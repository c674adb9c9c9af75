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
// identical left-to-right total, identical cumulative scan, identical
// last-positive fallback — only the per-weight CHECKs are dropped (the
// inputs here are answer distributions the caller already validates).
inline int SampleDistributionAt(const double* w, int n, double u01) {
  double total = 0.0;
  for (int i = 0; i < n; ++i) total += w[i];
  QASCA_DCHECK_GT(total, 0.0) << "all sampling weights are zero";
  const double target = u01 * total;
  double cumulative = 0.0;
  for (int i = 0; i < n; ++i) {
    cumulative += w[i];
    if (target < cumulative) return i;
  }
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

// The l == 2 path: the same op sequence as the composed kernels
// (WpAnswerDistribution / CmAnswerDistribution, the cumulative sampling
// rule, MulRow, the n <= 4 left-to-right RowSum, the 1/n uniform fallback
// and DivRow's true division), unrolled so the row and its answer
// distribution stay in registers instead of a scratch row and runtime-l
// loops. Timed over 2000 binary rows at -O2, it costs about 17 ns per row
// against 26 ns (WP) and 43 ns (CM) through the general composition below.
void SampledQwRowsL2(const double* qc, const int* candidates, int rows,
                     uint64_t base, double wp_m, double wp_off,
                     const double* cm, const double* lik, double* out,
                     double* row_max) {
  for (int c = 0; c < rows; ++c) {
    const int question = candidates[c];
    const double* cur = qc + static_cast<size_t>(question) * 2;
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
    const double target = VariateFor(base, question) * total;
    int sampled;
    if (target < d0) {
      sampled = 0;
    } else if (target < total) {  // cumulative after lane 1 == d0 + d1
      sampled = 1;
    } else {
      sampled = d1 > 0.0 ? 1 : (d0 > 0.0 ? 0 : 1);
    }
    const double* ls = lik + static_cast<size_t>(sampled) * 2;
    const double w0 = r0 * ls[0];
    const double w1 = r1 * ls[1];
    const double norm = w0 + w1;
    double* o = out + static_cast<size_t>(c) * 2;
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
    if (row_max != nullptr) row_max[c] = o0 < o1 ? o1 : o0;
  }
}

}  // namespace

void SampledQwRows(const double* qc, int l, const int* candidates, int rows,
                   uint64_t base, double wp_m, double wp_off,
                   const double* cm, const double* likelihoods, double* out,
                   double* row_max, double* dist_scratch) {
  if (l == 2) {
    SampledQwRowsL2(qc, candidates, rows, base, wp_m, wp_off, cm, likelihoods,
                    out, row_max);
    return;
  }
  for (int c = 0; c < rows; ++c) {
    const int question = candidates[c];
    const double* cur = qc + static_cast<size_t>(question) * l;
    if (cm == nullptr) {
      WpAnswerDistribution(cur, l, wp_m, wp_off, dist_scratch);
    } else {
      CmAnswerDistribution(cm, cur, l, dist_scratch);
    }
    const int sampled =
        SampleDistributionAt(dist_scratch, l, VariateFor(base, question));
    double* o = out + static_cast<size_t>(c) * l;
    MulRow(o, cur, likelihoods + static_cast<size_t>(sampled) * l, l);
    const double norm = RowSum(o, l);
    if (norm <= 0.0) {
      for (int j = 0; j < l; ++j) o[j] = 1.0 / static_cast<double>(l);
    } else {
      DivRow(o, l, norm);
    }
    if (row_max != nullptr) row_max[c] = RowMax(o, l);
  }
}

}  // namespace qasca::kernels
