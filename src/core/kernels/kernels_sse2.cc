// SSE2 kernel table. SSE2 is part of the x86-64 baseline, so this TU needs
// no extra -m flags — only -ffp-contract=off, because every multiply-add
// below must stay a correctly-rounded multiply followed by a
// correctly-rounded add to match the scalar table bit-for-bit (kernels.h).

#include "core/kernels/kernel_table.h"

#if QASCA_KERNELS_X86

#include <emmintrin.h>

namespace qasca::kernels {
namespace {

// Two 2-lane registers realise the canonical 4-lane schedule: acc01 holds
// lanes 0/1, acc23 lanes 2/3, merged ((acc0 + acc1) + acc2) + acc3.
double RowSumImpl(const double* x, int n) {
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    acc01 = _mm_add_pd(acc01, _mm_loadu_pd(x + i));
    acc23 = _mm_add_pd(acc23, _mm_loadu_pd(x + i + 2));
  }
  double lanes[4];
  _mm_storeu_pd(lanes + 0, acc01);
  _mm_storeu_pd(lanes + 2, acc23);
  double result = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
  for (; i < n; ++i) result += x[i];
  return result;
}

double RowMaxImpl(const double* x, int n) {
  int i = 0;
  double best = x[0];
  if (n >= 2) {
    __m128d acc = _mm_loadu_pd(x);
    for (i = 2; i + 2 <= n; i += 2) {
      acc = _mm_max_pd(acc, _mm_loadu_pd(x + i));
    }
    double lanes[2];
    _mm_storeu_pd(lanes, acc);
    best = lanes[0] < lanes[1] ? lanes[1] : lanes[0];
  } else {
    i = 1;
  }
  for (; i < n; ++i) best = best < x[i] ? x[i] : best;
  return best;
}

void MulRowImpl(double* out, const double* a, const double* b, int n) {
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(out + i,
                  _mm_mul_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void MulRowInPlaceImpl(double* inout, const double* b, int n) {
  MulRowImpl(inout, inout, b, n);
}

void DivRowImpl(double* inout, int n, double divisor) {
  const __m128d d = _mm_set1_pd(divisor);
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(inout + i, _mm_div_pd(_mm_loadu_pd(inout + i), d));
  }
  for (; i < n; ++i) inout[i] /= divisor;
}

void WpAnswerDistributionImpl(const double* row, int n, double m, double off,
                              double* out) {
  const __m128d mv = _mm_set1_pd(m);
  const __m128d offv = _mm_set1_pd(off);
  const __m128d one = _mm_set1_pd(1.0);
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d r = _mm_loadu_pd(row + i);
    const __m128d hit = _mm_mul_pd(mv, r);
    const __m128d miss = _mm_mul_pd(offv, _mm_sub_pd(one, r));
    _mm_storeu_pd(out + i, _mm_add_pd(hit, miss));
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
    const __m128d rt = _mm_set1_pd(row[t]);
    int a = 0;
    for (; a + 2 <= l; a += 2) {
      const __m128d product = _mm_mul_pd(_mm_loadu_pd(cm_row + a), rt);
      _mm_storeu_pd(out + a, _mm_add_pd(_mm_loadu_pd(out + a), product));
    }
    for (; a < l; ++a) out[a] += cm_row[a] * row[t];
  }
}

}  // namespace

const KernelTable& Sse2Kernels() {
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

const KernelTable& Sse2Kernels() { return ScalarKernels(); }

}  // namespace qasca::kernels

#endif  // QASCA_KERNELS_X86
