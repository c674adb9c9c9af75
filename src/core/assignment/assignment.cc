#include "core/assignment/assignment.h"

#include "util/invariants.h"
#include "util/logging.h"

namespace qasca {

DistributionMatrix BuildAssignmentMatrix(
    const DistributionMatrix& current, const DistributionMatrix& estimated,
    const std::vector<QuestionIndex>& selected) {
  QASCA_CHECK_EQ(current.num_questions(), estimated.num_questions());
  QASCA_CHECK_EQ(current.num_labels(), estimated.num_labels());
  DistributionMatrix result = current;
  for (QuestionIndex i : selected) {
    result.SetRow(i, estimated.Row(i));
  }
  return result;
}

void ValidateRequest(const AssignmentRequest& request) {
  QASCA_CHECK(request.current != nullptr);
  QASCA_CHECK(request.estimated != nullptr);
  QASCA_CHECK_EQ(request.current->num_questions(),
                 request.estimated->num_questions());
  QASCA_CHECK_EQ(request.current->num_labels(),
                 request.estimated->num_labels());
  if (request.overlay != nullptr) {
    // One overlay row per candidate position, shaped like Qc's rows.
    QASCA_CHECK_EQ(request.overlay->num_labels(),
                   request.current->num_labels());
    QASCA_CHECK_EQ(static_cast<size_t>(request.overlay->rows_materialized()),
                   request.candidates.size());
  }
  QASCA_CHECK_GT(request.k, 0);
  QASCA_CHECK_LE(static_cast<size_t>(request.k), request.candidates.size());
  QASCA_CHECK_OK(invariants::CheckCandidateSet(
      request.candidates, request.current->num_questions()));
  // Rows of `estimated` outside the candidate set are allowed to be stale,
  // so only the current matrix is validated wholesale; the estimated rows
  // that will actually be read are checked per candidate, exactly as the
  // algorithms read them.
  QASCA_DCHECK_OK(invariants::CheckDistributionMatrix(*request.current));
#if QASCA_ENABLE_DCHECKS
  for (size_t c = 0; c < request.candidates.size(); ++c) {
    util::Status status =
        invariants::CheckDistributionRow(request.EstimatedSlotRow(c));
    QASCA_DCHECK(status.ok()) << "estimated row of candidate "
                              << request.candidates[c] << ": "
                              << status.ToString();
  }
#endif
}

}  // namespace qasca
