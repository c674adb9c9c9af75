// AVX2 kernel table. This is the only TU compiled with -mavx2, and it also
// carries -ffp-contract=off: GCC's -mavx2 does not imply -mfma, but
// contraction policy is what actually guarantees the multiply-add sequences
// below stay two correctly-rounded ops, matching the scalar table
// bit-for-bit (kernels.h). Lane extraction after reductions is always
// in-order (never haddpd-style shuffles that would change the fold order).

#include "core/kernels/kernel_table.h"

#if QASCA_KERNELS_X86

#include <immintrin.h>

namespace qasca::kernels {
namespace {

// One 4-lane register *is* the canonical 4-lane schedule; merge the lanes
// in index order: ((acc0 + acc1) + acc2) + acc3.
double RowSumImpl(const double* x, int n) {
  __m256d acc = _mm256_setzero_pd();
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  double result = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
  for (; i < n; ++i) result += x[i];
  return result;
}

double RowMaxImpl(const double* x, int n) {
  int i = 0;
  double best = x[0];
  if (n >= 4) {
    __m256d acc = _mm256_loadu_pd(x);
    for (i = 4; i + 4 <= n; i += 4) {
      acc = _mm256_max_pd(acc, _mm256_loadu_pd(x + i));
    }
    double lanes[4];
    _mm256_storeu_pd(lanes, acc);
    best = lanes[0];
    for (int lane = 1; lane < 4; ++lane) {
      best = best < lanes[lane] ? lanes[lane] : best;
    }
  } else {
    i = 1;
  }
  for (; i < n; ++i) best = best < x[i] ? x[i] : best;
  return best;
}

void MulRowImpl(double* out, const double* a, const double* b, int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void MulRowInPlaceImpl(double* inout, const double* b, int n) {
  MulRowImpl(inout, inout, b, n);
}

void DivRowImpl(double* inout, int n, double divisor) {
  const __m256d d = _mm256_set1_pd(divisor);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(inout + i, _mm256_div_pd(_mm256_loadu_pd(inout + i), d));
  }
  for (; i < n; ++i) inout[i] /= divisor;
}

void WpAnswerDistributionImpl(const double* row, int n, double m, double off,
                              double* out) {
  const __m256d mv = _mm256_set1_pd(m);
  const __m256d offv = _mm256_set1_pd(off);
  const __m256d one = _mm256_set1_pd(1.0);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d r = _mm256_loadu_pd(row + i);
    const __m256d hit = _mm256_mul_pd(mv, r);
    const __m256d miss = _mm256_mul_pd(offv, _mm256_sub_pd(one, r));
    _mm256_storeu_pd(out + i, _mm256_add_pd(hit, miss));
  }
  for (; i < n; ++i) out[i] = m * row[i] + off * (1.0 - row[i]);
}

// Vectorised over `answered` with `truth` outermost, so each out lane still
// accumulates in ascending-truth order (the bit-identity requirement).
void CmAnswerDistributionImpl(const double* cm, const double* row, int l,
                              double* out) {
  for (int a = 0; a < l; ++a) out[a] = 0.0;
  for (int t = 0; t < l; ++t) {
    const double* cm_row = cm + static_cast<long>(t) * l;
    const __m256d rt = _mm256_set1_pd(row[t]);
    int a = 0;
    for (; a + 4 <= l; a += 4) {
      const __m256d product = _mm256_mul_pd(_mm256_loadu_pd(cm_row + a), rt);
      _mm256_storeu_pd(out + a, _mm256_add_pd(_mm256_loadu_pd(out + a),
                                              product));
    }
    for (; a < l; ++a) out[a] += cm_row[a] * row[t];
  }
}

}  // namespace

const KernelTable& Avx2Kernels() {
  static const KernelTable table = {
      RowSumImpl,        RowMaxImpl,
      MulRowImpl,        MulRowInPlaceImpl,
      DivRowImpl,        WpAnswerDistributionImpl,
      CmAnswerDistributionImpl,
  };
  return table;
}

}  // namespace qasca::kernels

#else  // !QASCA_KERNELS_X86

namespace qasca::kernels {

const KernelTable& Avx2Kernels() { return ScalarKernels(); }

}  // namespace qasca::kernels

#endif  // QASCA_KERNELS_X86
