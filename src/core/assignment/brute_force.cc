#include "core/assignment/brute_force.h"

#include <vector>

#include "util/invariants.h"
#include "util/logging.h"

namespace qasca {
namespace {

// Invokes `visit` with every size-k combination of the positions [0, m), each
// in ascending order.
template <typename Visitor>
void ForEachCombination(int m, int k, Visitor visit) {
  std::vector<int> cursor(k);
  for (int c = 0; c < k; ++c) cursor[c] = c;
  while (true) {
    visit(cursor);
    int c = k - 1;
    while (c >= 0 && cursor[c] == m - k + c) --c;
    if (c < 0) return;
    ++cursor[c];
    for (int d = c + 1; d < k; ++d) cursor[d] = cursor[d - 1] + 1;
  }
}

}  // namespace

AssignmentResult AssignBruteForce(const AssignmentRequest& request,
                                  const EvaluationMetric& metric) {
  ValidateRequest(request);
  AssignmentResult best;
  best.objective = -1.0;
  ForEachCombination(
      static_cast<int>(request.candidates.size()), request.k,
      [&](const std::vector<int>& positions) {
        // Q^X (Eq. 1): Qc with the chosen candidates' rows taken from Qw.
        DistributionMatrix qx = *request.current;
        for (int c : positions) {
          qx.SetRow(request.candidates[static_cast<size_t>(c)],
                    request.EstimatedSlotRow(static_cast<size_t>(c)));
        }
        QASCA_DCHECK_OK(invariants::CheckDistributionMatrix(qx));
        double quality = metric.Quality(qx);
        ++best.outer_iterations;  // Repurposed as the enumeration count.
        if (quality > best.objective) {
          best.objective = quality;
          best.selected.clear();
          for (int c : positions) {
            best.selected.push_back(request.candidates[static_cast<size_t>(c)]);
          }
        }
      });
  return best;
}

}  // namespace qasca
