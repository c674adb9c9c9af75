#ifndef QASCA_CORE_DISTRIBUTION_MATRIX_H_
#define QASCA_CORE_DISTRIBUTION_MATRIX_H_

#include <span>
#include <vector>

#include "core/types.h"
#include "util/logging.h"

namespace qasca {

/// An n-by-l matrix whose i-th row is the probability distribution of
/// question i's true label (Section 2.1). Instances of this type serve as
/// the paper's current distribution matrix Qc, estimated distribution matrix
/// Qw, and assignment distribution matrix QX.
///
/// Rows are stored densely in row-major order. Rows of a Qw matrix that are
/// outside the worker's candidate set S^w are left untouched by callers and
/// must not be read; this class does not track validity itself (the
/// assignment code carries the candidate set separately).
class DistributionMatrix {
 public:
  /// Creates an n-by-l matrix with every row set to the uniform
  /// distribution — the paper's initial state for Qc (Section 5.1).
  DistributionMatrix(int num_questions, int num_labels);

  /// Takes `cells` (row-major, num_questions * num_labels entries) as the
  /// matrix's storage. Each row must already be a distribution.
  DistributionMatrix(int num_questions, int num_labels,
                     std::vector<double> cells);

  int num_questions() const noexcept { return num_questions_; }
  int num_labels() const noexcept { return num_labels_; }

  /// Probability that question i's true label is `label` (cell Q_{i,j}).
  double At(QuestionIndex i, LabelIndex label) const noexcept {
    QASCA_CHECK_GE(i, 0);
    QASCA_CHECK_LT(i, num_questions_);
    QASCA_CHECK_GE(label, 0);
    QASCA_CHECK_LT(label, num_labels_);
    return cells_[static_cast<size_t>(i) * num_labels_ + label];
  }

  /// Read-only view of row i (question i's label distribution Q_i).
  std::span<const double> Row(QuestionIndex i) const noexcept {
    QASCA_CHECK_GE(i, 0);
    QASCA_CHECK_LT(i, num_questions_);
    return {cells_.data() + static_cast<size_t>(i) * num_labels_,
            static_cast<size_t>(num_labels_)};
  }

  /// Overwrites row i with `distribution`, which must have l entries.
  /// Callers are responsible for passing a normalized distribution; use
  /// SetRowNormalized for raw proportional weights.
  void SetRow(QuestionIndex i, std::span<const double> distribution);

  /// Overwrites row i with `weights` scaled to sum to one. This is the
  /// "derive proportions then normalize" step of Eq. 16 / Eq. 18. All
  /// weights must be non-negative and not all zero.
  void SetRowNormalized(QuestionIndex i, std::span<const double> weights);

  /// Label with the highest probability in row i (ties broken toward the
  /// smaller label index). This is the paper's R-tilde per-question choice.
  LabelIndex ArgMaxLabel(QuestionIndex i) const noexcept;

  /// True if every row sums to 1 within `tolerance` and has no negative
  /// entries. Used by tests and debug assertions.
  bool IsNormalized(double tolerance = 1e-9) const noexcept;

 private:
  int num_questions_;
  int num_labels_;
  std::vector<double> cells_;
};

}  // namespace qasca

#endif  // QASCA_CORE_DISTRIBUTION_MATRIX_H_
