#include "platform/database.h"

#include <algorithm>

#include "model/prior.h"
#include "util/logging.h"

namespace qasca {

Database::Database(int num_questions, int num_labels)
    : num_questions_(num_questions),
      num_labels_(num_labels),
      answers_(num_questions) {
  QASCA_CHECK_GT(num_questions, 0);
  QASCA_CHECK_GT(num_labels, 1);
  parameters_.prior = UniformPrior(num_labels);
  parameters_.posterior = DistributionMatrix(num_questions, num_labels);
  parameters_.fallback = WorkerModel::PerfectWp(num_labels);
}

void Database::MarkAssigned(WorkerId worker,
                            const std::vector<QuestionIndex>& questions) {
  std::vector<QuestionIndex>& assigned = assigned_[worker];
  for (QuestionIndex q : questions) {
    QASCA_CHECK_GE(q, 0);
    QASCA_CHECK_LT(q, num_questions_);
    auto at = std::lower_bound(assigned.begin(), assigned.end(), q);
    QASCA_CHECK(at == assigned.end() || *at != q)
        << "question assigned twice to the same worker";
    assigned.insert(at, q);
  }
}

void Database::Unassign(WorkerId worker,
                        const std::vector<QuestionIndex>& questions) {
  auto it = assigned_.find(worker);
  QASCA_CHECK(it != assigned_.end())
      << "unassigning from a worker with no assignments";
  std::vector<QuestionIndex>& assigned = it->second;
  for (QuestionIndex q : questions) {
    QASCA_CHECK_GE(q, 0);
    QASCA_CHECK_LT(q, num_questions_);
    auto at = std::lower_bound(assigned.begin(), assigned.end(), q);
    QASCA_CHECK(at != assigned.end() && *at == q)
        << "question was not assigned to this worker";
    assigned.erase(at);
  }
}

void Database::RecordAnswer(QuestionIndex question, WorkerId worker,
                            LabelIndex label) {
  QASCA_CHECK_GE(question, 0);
  QASCA_CHECK_LT(question, num_questions_);
  QASCA_CHECK_GE(label, 0);
  QASCA_CHECK_LT(label, num_labels_);
  answers_[question].push_back(Answer{worker, label});
}

std::vector<QuestionIndex> Database::CandidatesFor(WorkerId worker) const {
  std::vector<QuestionIndex> candidates;
  CandidatesFor(worker, &candidates);
  return candidates;
}

void Database::CandidatesFor(WorkerId worker,
                             std::vector<QuestionIndex>* out) const {
  auto it = assigned_.find(worker);
  const size_t num_assigned = it == assigned_.end() ? 0 : it->second.size();
  out->resize(static_cast<size_t>(num_questions_) - num_assigned);
  // The runs of [0, n) between consecutive entries of the ascending
  // assigned list.
  QuestionIndex* next = out->data();
  QuestionIndex from = 0;
  if (it != assigned_.end()) {
    for (QuestionIndex assigned : it->second) {
      for (QuestionIndex i = from; i < assigned; ++i) *next++ = i;
      from = assigned + 1;
    }
  }
  for (QuestionIndex i = from; i < num_questions_; ++i) *next++ = i;
}

int Database::AnswerCount(QuestionIndex question) const {
  QASCA_CHECK_GE(question, 0);
  QASCA_CHECK_LT(question, num_questions_);
  return static_cast<int>(answers_[question].size());
}

void Database::SetParameters(EmResult parameters) {
  parameters_ = std::move(parameters);
  ++qc_version_;
}

void Database::UpdatePosteriorRow(QuestionIndex question,
                                  std::span<const double> row) {
  QASCA_CHECK_GE(question, 0);
  QASCA_CHECK_LT(question, num_questions_);
  // The engine may be mid-run with a posterior shaped before any full fit.
  QASCA_CHECK_EQ(parameters_.posterior.num_questions(), num_questions_);
  parameters_.posterior.SetRow(question, row);
  ++qc_version_;
}

}  // namespace qasca
