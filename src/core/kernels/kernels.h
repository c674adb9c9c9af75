#ifndef QASCA_CORE_KERNELS_KERNELS_H_
#define QASCA_CORE_KERNELS_KERNELS_H_

/// Row kernels for the assignment hot loops (DESIGN.md §12 "Assignment
/// kernels"): the row-quality / benefit scan, Qw answer-distribution and
/// posterior-weight inner loops, and the E-step's per-row normalisation all
/// funnel through the entry points below. There is one implementation;
/// its results are pinned bit-for-bit by the fold schedules documented here.
///
/// RowSum folds through four lane accumulators (acc[i % 4]) merged as
/// ((acc0 + acc1) + acc2) + acc3 with a left-to-right tail. For n <= 4 the
/// schedule degenerates to a strict left-to-right sum, so rows of up to
/// four labels (every golden-trace workload) match util::DeterministicSum
/// bit-for-bit; wider rows are deterministic but reassociated relative to a
/// serial sum. RowMax is order-insensitive (the inputs are probabilities,
/// so there are no NaNs or -0.0s). The inline kernels each perform a single
/// kind of operation and never feed a multiply into an add, so no
/// includer's FP-contraction setting can change their bits. The kernels
/// that do multiply-add (WpAnswerDistribution, CmAnswerDistribution,
/// SampledQwRows) live in kernels.cc, compiled with -ffp-contract=off.
/// CmAnswerDistribution accumulates each output lane in ascending-truth
/// order; SampledQwRows forms the same lanes from the transposed likelihood
/// table, and CmAnswerDistribution stays as its reference.
///
/// The float-determinism analyzer pass excludes src/core/kernels/: this
/// directory *is* an audited fold implementation, like util/fold.h.

#include <cstdint>

namespace qasca::kernels {

/// Sum of x[0..n) under the fixed 4-lane-accumulator schedule described
/// above; equals a left-to-right sum for n <= 4.
inline double RowSum(const double* x, int n) {
  double acc0 = 0.0;
  double acc1 = 0.0;
  double acc2 = 0.0;
  double acc3 = 0.0;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += x[i + 0];
    acc1 += x[i + 1];
    acc2 += x[i + 2];
    acc3 += x[i + 3];
  }
  double result = ((acc0 + acc1) + acc2) + acc3;
  for (; i < n; ++i) result += x[i];
  return result;
}

/// Max of x[0..n), n >= 1. Inputs must be NaN-free (probability rows).
inline double RowMax(const double* x, int n) {
  double best = x[0];
  for (int i = 1; i < n; ++i) best = best < x[i] ? x[i] : best;
  return best;
}

/// out[i] = a[i] * b[i]. `out` must not alias `a` or `b` partially (exact
/// aliasing out == a is allowed via MulRowInPlace).
inline void MulRow(double* out, const double* a, const double* b, int n) {
  for (int i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

/// inout[i] *= b[i].
inline void MulRowInPlace(double* inout, const double* b, int n) {
  for (int i = 0; i < n; ++i) inout[i] *= b[i];
}

/// inout[i] /= divisor (a true division, not a reciprocal multiply).
inline void DivRow(double* inout, int n, double divisor) {
  for (int i = 0; i < n; ++i) inout[i] /= divisor;
}

/// Closed-form WP answer distribution (Eq. 17 for a worker-probability
/// model): out[i] = m * row[i] + off * (1.0 - row[i]), each product and
/// the sum rounded separately.
void WpAnswerDistribution(const double* row, int n, double m, double off,
                          double* out);

/// Confusion-matrix answer distribution (Eq. 17):
/// out[answered] = sum_truth cm[truth * l + answered] * row[truth], with
/// each out lane accumulated in ascending-truth order. `cm` is the l-by-l
/// row-major [truth][answered] matrix; `out` must not alias `row` or `cm`.
void CmAnswerDistribution(const double* cm, const double* row, int l,
                          double* out);

/// How SampledQwRows forms a worker's predicted answer distribution
/// P(a = answered | D_i) (Eq. 17) from the current row q.
enum class AnswerModel {
  /// Worker probability: the closed form m * q + off * (1 - q), as
  /// WpAnswerDistribution computes it.
  kWp,
  /// Confusion matrix: out[answered] = sum_truth L[answered][truth] * q[truth]
  /// over the transposed likelihood table, each lane accumulated in
  /// ascending-truth order: the same products and adds as
  /// CmAnswerDistribution over the row-major matrix, whose [truth][answered]
  /// entry is L[answered][truth].
  kCm,
};

/// Rows of 2 to this many labels run SampledQwRows' fixed-width path, with
/// no scratch; every other width composes the kernels through
/// `dist_scratch`. Every paper app and benchmark workload has 2 or 3 labels
/// except CompanyLogo (214).
inline constexpr int kMaxFixedWidthLabels = 3;

/// Fused sampled-mode Qw batch (Eqs. 17-18; one call per scan chunk). For
/// each candidate c in [0, rows):
///   1. reads the current row at qc + candidates[c] * l,
///   2. forms the predicted answer distribution as `model` says (kWp from
///      wp_m and wp_off, kCm from `likelihoods`),
///   3. derives the candidate's uniform variate from the per-request seed
///      `base` — a util::SplitMix64 stream seeded with
///      MixSeed(base, candidates[c]), one NextDouble() —
///   4. selects the answered label by util::SampleWeightedAt's cumulative
///      rule, conditions the row on likelihoods + answered * l (the
///      transposed WorkerLikelihoods table) and normalises into
///      out + c * l (RowSum fold, uniform fallback, true division).
/// When row_max != nullptr, the normalised row's maximum — the Accuracy*
/// row quality — is additionally written to row_max[c] while the row is
/// still hot. `dist_scratch` must hold l doubles (per-chunk scratch)
/// unless 2 <= l <= kMaxFixedWidthLabels; those rows never read it, and
/// it may be null for them.
///
/// Every arithmetic step reproduces the exact op sequence of the per-row
/// composition (WpAnswerDistribution / CmAnswerDistribution,
/// SampleWeightedAt, MulRow, RowSum, DivRow and the uniform fallback), so
/// the fused batch is bitwise-equal to composing those kernels by hand.
/// The answered label is selected from comparison results, not by a branch
/// on the draw (DESIGN.md §12, "Branch-free selects").
void SampledQwRows(const double* qc, int l, const int* candidates, int rows,
                   uint64_t base, AnswerModel model, double wp_m,
                   double wp_off, const double* likelihoods, double* out,
                   double* row_max, double* dist_scratch);

/// One row of SampledQwRows at an explicit uniform variate `u01` in
/// [0, 1): steps 2 and 4 above for the row at `current_row`, written to
/// out[0, l). Returns the row's maximum. SampledQwRows is this at
/// u01 = the candidate's SplitMix64 variate; a test can place the sampling
/// target on a prefix-sum boundary.
double SampledQwRowAt(const double* current_row, int l, double u01,
                      AnswerModel model, double wp_m, double wp_off,
                      const double* likelihoods, double* out,
                      double* dist_scratch);

}  // namespace qasca::kernels

#endif  // QASCA_CORE_KERNELS_KERNELS_H_
