// The multiply-add kernels of kernels.h. This TU compiles with
// -ffp-contract=off, so no m * q + off * (1 - q) or cm * row accumulation
// below can fuse into a single rounding.

#include "core/kernels/kernels.h"

#include <cstddef>

#include "util/logging.h"
#include "util/rng.h"

namespace qasca::kernels {

void WpAnswerDistribution(const double* row, int n, double m, double off,
                          double* out) {
  for (int i = 0; i < n; ++i) out[i] = m * row[i] + off * (1.0 - row[i]);
}

// Loop order is truth-major so each out[answered] accumulates in ascending
// truth order while the inner loop walks cm's row-major [truth][answered]
// layout contiguously.
void CmAnswerDistribution(const double* cm, const double* row, int l,
                          double* out) {
  for (int a = 0; a < l; ++a) out[a] = 0.0;
  for (int t = 0; t < l; ++t) {
    const double* cm_row = cm + static_cast<size_t>(t) * l;
    const double rt = row[t];
    for (int a = 0; a < l; ++a) out[a] += cm_row[a] * rt;
  }
}

namespace {

// util::SampleWeightedAt's cumulative rule (util/rng.cc) on a raw row:
// identical left-to-right total, identical prefix sums, identical
// last-positive fallback — only the per-weight CHECKs are dropped (the
// inputs here are answer distributions the caller already validates).
// The weights are non-negative, so the prefix sums never decrease and the
// ones at or below the target form a prefix: its length is the index of
// the first sum above the target, counted without a branch on the draw.
// Only a count of n takes the fallback: the target at or past the total,
// which u01 < 1 reaches only by rounding against a subnormal total.
inline int SampleDistributionAt(const double* w, int n, double u01) {
  double total = 0.0;
  for (int i = 0; i < n; ++i) total += w[i];
  QASCA_DCHECK_GT(total, 0.0) << "all sampling weights are zero";
  const double target = u01 * total;
  double cumulative = 0.0;
  int below = 0;
  for (int i = 0; i < n; ++i) {
    cumulative += w[i];
    below += static_cast<int>(!(target < cumulative));
  }
  if (below < n) return below;
  for (int i = n; i-- > 0;) {
    if (w[i] > 0.0) return i;
  }
  return n - 1;
}

// The candidate's uniform variate, derived exactly as the unfused scan in
// EstimateWorkerDistribution does: one SplitMix64 stream per candidate
// seeded from (base, question index), one NextDouble().
inline double VariateFor(uint64_t base, int question) {
  util::SplitMix64 stream(
      util::SplitMix64::MixSeed(base, static_cast<uint64_t>(question)));
  return stream.NextDouble();
}

// One l == 2 row: the same op sequence as the composed kernels
// (WpAnswerDistribution / CmAnswerDistribution, the cumulative sampling
// rule, MulRow, the n <= 4 left-to-right RowSum, the 1/n uniform fallback
// and DivRow's true division), unrolled so the row and its answer
// distribution stay in registers instead of a scratch row and runtime-l
// loops. The sampled label comes from the two comparisons and picks the
// likelihood row by address: the draw is random, so a branch on it would
// be mispredicted about as often as the smaller label is drawn. Returns
// the row's maximum.
inline double SampledRowL2(const double* cur, double u01, double wp_m,
                           double wp_off, const double* cm, const double* lik,
                           double* o) {
  const double r0 = cur[0];
  const double r1 = cur[1];
  double d0;
  double d1;
  if (cm == nullptr) {
    d0 = wp_m * r0 + wp_off * (1.0 - r0);
    d1 = wp_m * r1 + wp_off * (1.0 - r1);
  } else {
    // Ascending-truth accumulation, cm row-major [truth][answered].
    d0 = cm[0] * r0 + cm[2] * r1;
    d1 = cm[1] * r0 + cm[3] * r1;
  }
  const double total = d0 + d1;
  QASCA_DCHECK_GT(total, 0.0) << "all sampling weights are zero";
  const double target = u01 * total;
  // Label 0 when the target falls below d0 (the first prefix sum), or when
  // it reaches the total (the second prefix sum, d0 + d1) and the
  // last-positive fallback finds lane 1 empty and lane 0 not; else 1.
  const bool first = target < d0;
  const bool fallback_first =
      !(target < total) & !(d1 > 0.0) & (d0 > 0.0);
  const int sampled = 1 - static_cast<int>(first | fallback_first);
  const double* ls = lik + static_cast<size_t>(sampled) * 2;
  const double w0 = r0 * ls[0];
  const double w1 = r1 * ls[1];
  const double norm = w0 + w1;
  double o0;
  double o1;
  if (norm <= 0.0) {
    o0 = 0.5;  // NormalizePosteriorRow's uniform fallback, 1.0 / n
    o1 = 0.5;
  } else {
    o0 = w0 / norm;
    o1 = w1 / norm;
  }
  o[0] = o0;
  o[1] = o1;
  return o0 < o1 ? o1 : o0;
}

// One row of any width through the composed kernels; `dist` holds l
// doubles. Returns the row's maximum.
inline double SampledRowGeneral(const double* cur, int l, double u01,
                                double wp_m, double wp_off, const double* cm,
                                const double* lik, double* o, double* dist) {
  if (cm == nullptr) {
    WpAnswerDistribution(cur, l, wp_m, wp_off, dist);
  } else {
    CmAnswerDistribution(cm, cur, l, dist);
  }
  const int sampled = SampleDistributionAt(dist, l, u01);
  MulRow(o, cur, lik + static_cast<size_t>(sampled) * l, l);
  const double norm = RowSum(o, l);
  if (norm <= 0.0) {
    for (int j = 0; j < l; ++j) o[j] = 1.0 / static_cast<double>(l);
  } else {
    DivRow(o, l, norm);
  }
  return RowMax(o, l);
}

}  // namespace

double SampledQwRowAt(const double* current_row, int l, double u01,
                      double wp_m, double wp_off, const double* cm,
                      const double* likelihoods, double* out,
                      double* dist_scratch) {
  if (l == 2) {
    return SampledRowL2(current_row, u01, wp_m, wp_off, cm, likelihoods, out);
  }
  return SampledRowGeneral(current_row, l, u01, wp_m, wp_off, cm, likelihoods,
                           out, dist_scratch);
}

// Timed over 2000 binary rows at -O2 on a 4-thread x86-64 host, the l == 2
// path costs about 5.3 ns per row (WP and CM), against 10.5 ns when the
// sampled label was a branch on the draw.
void SampledQwRows(const double* qc, int l, const int* candidates, int rows,
                   uint64_t base, double wp_m, double wp_off,
                   const double* cm, const double* likelihoods, double* out,
                   double* row_max, double* dist_scratch) {
  if (l == 2) {
    for (int c = 0; c < rows; ++c) {
      const int question = candidates[c];
      const double max = SampledRowL2(
          qc + static_cast<size_t>(question) * 2, VariateFor(base, question),
          wp_m, wp_off, cm, likelihoods, out + static_cast<size_t>(c) * 2);
      if (row_max != nullptr) row_max[c] = max;
    }
    return;
  }
  for (int c = 0; c < rows; ++c) {
    const int question = candidates[c];
    const double max = SampledRowGeneral(
        qc + static_cast<size_t>(question) * l, l, VariateFor(base, question),
        wp_m, wp_off, cm, likelihoods, out + static_cast<size_t>(c) * l,
        dist_scratch);
    if (row_max != nullptr) row_max[c] = max;
  }
}

}  // namespace qasca::kernels
