#include "core/distribution_matrix.h"

#include <cmath>
#include <utility>

#include "util/fold.h"
#include "util/invariants.h"

namespace qasca {

DistributionMatrix::DistributionMatrix(int num_questions, int num_labels)
    : num_questions_(num_questions),
      num_labels_(num_labels),
      cells_(static_cast<size_t>(num_questions) * num_labels,
             num_labels > 0 ? 1.0 / num_labels : 0.0) {
  QASCA_CHECK_GE(num_questions, 0);
  QASCA_CHECK_GT(num_labels, 0);
}

DistributionMatrix::DistributionMatrix(int num_questions, int num_labels,
                                       std::vector<double> cells)
    : num_questions_(num_questions),
      num_labels_(num_labels),
      cells_(std::move(cells)) {
  QASCA_CHECK_GE(num_questions, 0);
  QASCA_CHECK_GT(num_labels, 0);
  QASCA_CHECK_EQ(cells_.size(),
                 static_cast<size_t>(num_questions) * num_labels);
  QASCA_DCHECK_OK(invariants::CheckDistributionMatrix(*this));
}

void DistributionMatrix::SetRow(QuestionIndex i,
                                std::span<const double> distribution) {
  QASCA_CHECK_GE(i, 0);
  QASCA_CHECK_LT(i, num_questions_);
  QASCA_CHECK_EQ(static_cast<int>(distribution.size()), num_labels_);
  QASCA_DCHECK_OK(invariants::CheckDistributionRow(distribution));
  double* row = cells_.data() + static_cast<size_t>(i) * num_labels_;
  for (int j = 0; j < num_labels_; ++j) row[j] = distribution[j];
}

void DistributionMatrix::SetRowNormalized(QuestionIndex i,
                                          std::span<const double> weights) {
  QASCA_CHECK_GE(i, 0);
  QASCA_CHECK_LT(i, num_questions_);
  QASCA_CHECK_EQ(static_cast<int>(weights.size()), num_labels_);
  const double total = util::DeterministicSum(
      0, static_cast<int>(weights.size()), [&](int j) {
        QASCA_CHECK_GE(weights[j], 0.0) << "negative probability weight";
        return weights[j];
      });
  QASCA_CHECK_GT(total, 0.0) << "all probability weights are zero";
  double* row = cells_.data() + static_cast<size_t>(i) * num_labels_;
  for (int j = 0; j < num_labels_; ++j) row[j] = weights[j] / total;
}

LabelIndex DistributionMatrix::ArgMaxLabel(QuestionIndex i) const noexcept {
  std::span<const double> row = Row(i);
  LabelIndex best = 0;
  for (int j = 1; j < num_labels_; ++j) {
    if (row[j] > row[best]) best = j;
  }
  return best;
}

bool DistributionMatrix::IsNormalized(double tolerance) const noexcept {
  for (int i = 0; i < num_questions_; ++i) {
    std::span<const double> row = Row(i);
    for (double p : row) {
      if (p < -tolerance) return false;
    }
    const double total = util::DeterministicSum(
        0, num_labels_, [&](int j) { return row[j]; });
    if (std::fabs(total - 1.0) > tolerance) return false;
  }
  return true;
}

}  // namespace qasca
