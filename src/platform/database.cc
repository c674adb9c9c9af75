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
  auto it = assigned_.find(worker);
  if (it == assigned_.end()) {
    candidates.resize(num_questions_);
    for (int i = 0; i < num_questions_; ++i) candidates[i] = i;
    return candidates;
  }
  // One merge walk of [0, n) against the ascending assigned list.
  const std::vector<QuestionIndex>& assigned = it->second;
  candidates.reserve(static_cast<size_t>(num_questions_) - assigned.size());
  auto next_assigned = assigned.begin();
  for (int i = 0; i < num_questions_; ++i) {
    if (next_assigned != assigned.end() && *next_assigned == i) {
      ++next_assigned;
    } else {
      candidates.push_back(i);
    }
  }
  return candidates;
}

int Database::AnswerCount(QuestionIndex question) const {
  QASCA_CHECK_GE(question, 0);
  QASCA_CHECK_LT(question, num_questions_);
  return static_cast<int>(answers_[question].size());
}

void Database::SetParameters(EmResult parameters) {
  parameters_ = std::move(parameters);
}

void Database::UpdatePosteriorRow(QuestionIndex question,
                                  std::span<const double> row) {
  QASCA_CHECK_GE(question, 0);
  QASCA_CHECK_LT(question, num_questions_);
  // The engine may be mid-run with a posterior shaped before any full fit.
  QASCA_CHECK_EQ(parameters_.posterior.num_questions(), num_questions_);
  parameters_.posterior.SetRow(question, row);
}

}  // namespace qasca
