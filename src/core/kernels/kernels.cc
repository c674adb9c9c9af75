// The multiply-add kernels of kernels.h. This TU compiles with
// -ffp-contract=off, so no m * q + off * (1 - q) or cm * row accumulation
// below can fuse into a single rounding.

#include "core/kernels/kernels.h"

#include <cstddef>

#include "util/logging.h"
#include "util/rng.h"

namespace qasca::kernels {

// Unrolled so that the fixed-width Qw rows, which call it at a constant
// width, keep their answer distribution in registers.
void WpAnswerDistribution(const double* row, int n, double m, double off,
                          double* out) {
#pragma GCC unroll 4
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

// The kCm answer distribution of any width over the transposed likelihood
// table: one accumulator per answered label, adding L[a][t] * row[t] in
// ascending t. CmAnswerDistribution makes the same adds through memory,
// taking cm[t * l + a] == L[a][t]; it starts each lane at 0.0, and
// 0.0 + x == x for the non-negative products here. Unrolled like
// WpAnswerDistribution.
inline void CmAnswerDistributionFromTable(const double* lik, const double* row,
                                          int l, double* out) {
#pragma GCC unroll 4
  for (int a = 0; a < l; ++a) {
    const double* la = lik + static_cast<size_t>(a) * l;
    double acc = la[0] * row[0];
#pragma GCC unroll 4
    for (int t = 1; t < l; ++t) acc += la[t] * row[t];
    out[a] = acc;
  }
}

// One row of L = 2 or 3 labels: the composed kernels' op sequence (the
// answer distribution, the cumulative sampling rule, MulRow, the n <= 4
// left-to-right RowSum, the 1/L uniform fallback and DivRow's true
// division), fully unrolled, so the current row, its answer distribution,
// the sampled label and the conditioned row stay in registers instead of a
// scratch row and runtime-l loops. The first add of each fold starts from
// its first term rather than 0.0; 0.0 + x == x for the non-negative terms
// here. The sampled label is the count of prefix sums at or below the
// target (see SampleDistributionAt) and picks the likelihood row by
// address. Returns the row's maximum. The code is scalar on purpose: a row
// of three doubles is 24 bytes, so two-lane vectors would straddle rows,
// and every lane feeds one prefix-sum chain (DESIGN.md §12). Forced inline
// so the batch loop makes no call per row.
template <int L, AnswerModel kModel>
[[gnu::always_inline]] inline double SampledRowFixed(
    const double* cur, double u01, double wp_m, double wp_off,
    const double* lik, double* o) {
  static_assert(L >= 2 && L <= kMaxFixedWidthLabels);
  double r[L];
  double d[L];
#pragma GCC unroll 4
  for (int j = 0; j < L; ++j) r[j] = cur[j];
  if constexpr (kModel == AnswerModel::kWp) {
    WpAnswerDistribution(r, L, wp_m, wp_off, d);
  } else {
    CmAnswerDistributionFromTable(lik, r, L, d);
  }
  // Prefix sums; the last is the left-to-right total.
  double cumulative[L];
  cumulative[0] = d[0];
#pragma GCC unroll 4
  for (int a = 1; a < L; ++a) cumulative[a] = cumulative[a - 1] + d[a];
  const double total = cumulative[L - 1];
  QASCA_DCHECK_GT(total, 0.0) << "all sampling weights are zero";
  const double target = u01 * total;
  int sampled = 0;
#pragma GCC unroll 4
  for (int a = 0; a < L; ++a) {
    sampled += static_cast<int>(!(target < cumulative[a]));
  }
  if (sampled == L) [[unlikely]] {
    // The last-positive fallback; L - 1 when no weight is positive.
    int last_positive = L - 1;
#pragma GCC unroll 4
    for (int a = 0; a < L; ++a) {
      last_positive = d[a] > 0.0 ? a : last_positive;
    }
    sampled = last_positive;
  }
  const double* ls = lik + static_cast<size_t>(sampled) * L;
  double w[L];
#pragma GCC unroll 4
  for (int j = 0; j < L; ++j) w[j] = r[j] * ls[j];
  double norm = w[0];
#pragma GCC unroll 4
  for (int j = 1; j < L; ++j) norm += w[j];
  double q[L];
  if (norm <= 0.0) {
#pragma GCC unroll 4
    for (int j = 0; j < L; ++j) q[j] = 1.0 / L;  // the uniform fallback
  } else {
#pragma GCC unroll 4
    for (int j = 0; j < L; ++j) q[j] = w[j] / norm;
  }
  double max = q[0];
#pragma GCC unroll 4
  for (int j = 0; j < L; ++j) {
    o[j] = q[j];
    max = max < q[j] ? q[j] : max;
  }
  return max;
}

template <int L, AnswerModel kModel>
void SampledRowsFixed(const double* qc, const int* candidates, int rows,
                      uint64_t base, double wp_m, double wp_off,
                      const double* lik, double* out, double* row_max) {
  for (int c = 0; c < rows; ++c) {
    const int question = candidates[c];
    const double max = SampledRowFixed<L, kModel>(
        qc + static_cast<size_t>(question) * L, VariateFor(base, question),
        wp_m, wp_off, lik, out + static_cast<size_t>(c) * L);
    if (row_max != nullptr) row_max[c] = max;
  }
}

template <int L>
void SampledRowsFixed(AnswerModel model, const double* qc,
                      const int* candidates, int rows, uint64_t base,
                      double wp_m, double wp_off, const double* lik,
                      double* out, double* row_max) {
  if (model == AnswerModel::kWp) {
    SampledRowsFixed<L, AnswerModel::kWp>(qc, candidates, rows, base, wp_m,
                                          wp_off, lik, out, row_max);
  } else {
    SampledRowsFixed<L, AnswerModel::kCm>(qc, candidates, rows, base, wp_m,
                                          wp_off, lik, out, row_max);
  }
}

template <int L>
double SampledRowFixed(AnswerModel model, const double* cur, double u01,
                       double wp_m, double wp_off, const double* lik,
                       double* o) {
  return model == AnswerModel::kWp
             ? SampledRowFixed<L, AnswerModel::kWp>(cur, u01, wp_m, wp_off,
                                                    lik, o)
             : SampledRowFixed<L, AnswerModel::kCm>(cur, u01, wp_m, wp_off,
                                                    lik, o);
}

// One row of any width through the composed kernels; `dist` holds l
// doubles. Returns the row's maximum.
inline double SampledRowGeneral(const double* cur, int l, double u01,
                                AnswerModel model, double wp_m, double wp_off,
                                const double* lik, double* o, double* dist) {
  if (model == AnswerModel::kWp) {
    WpAnswerDistribution(cur, l, wp_m, wp_off, dist);
  } else {
    CmAnswerDistributionFromTable(lik, cur, l, dist);
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
                      AnswerModel model, double wp_m, double wp_off,
                      const double* likelihoods, double* out,
                      double* dist_scratch) {
  switch (l) {
    case 2:
      return SampledRowFixed<2>(model, current_row, u01, wp_m, wp_off,
                                likelihoods, out);
    case 3:
      return SampledRowFixed<3>(model, current_row, u01, wp_m, wp_off,
                                likelihoods, out);
    default:
      return SampledRowGeneral(current_row, l, u01, model, wp_m, wp_off,
                               likelihoods, out, dist_scratch);
  }
}

// bench_micro's BM_SampledQwRows times this per width and model (DESIGN.md
// §12 tabulates the results).
void SampledQwRows(const double* qc, int l, const int* candidates, int rows,
                   uint64_t base, AnswerModel model, double wp_m,
                   double wp_off, const double* likelihoods, double* out,
                   double* row_max, double* dist_scratch) {
  switch (l) {
    case 2:
      return SampledRowsFixed<2>(model, qc, candidates, rows, base, wp_m,
                                 wp_off, likelihoods, out, row_max);
    case 3:
      return SampledRowsFixed<3>(model, qc, candidates, rows, base, wp_m,
                                 wp_off, likelihoods, out, row_max);
    default:
      break;
  }
  for (int c = 0; c < rows; ++c) {
    const int question = candidates[c];
    const double max = SampledRowGeneral(
        qc + static_cast<size_t>(question) * l, l, VariateFor(base, question),
        model, wp_m, wp_off, likelihoods, out + static_cast<size_t>(c) * l,
        dist_scratch);
    if (row_max != nullptr) row_max[c] = max;
  }
}

}  // namespace qasca::kernels
