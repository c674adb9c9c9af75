// Scalar kernel table: the reference implementation of the fold schedules
// every wider ISA must reproduce bit-for-bit (see kernels.h). Compiled with
// -ffp-contract=off like the SIMD tables, so the compiler cannot fuse the
// multiply-add sequences here either.

#include "core/kernels/kernel_table.h"

namespace qasca::kernels {
namespace {

// The canonical 4-lane-accumulator schedule (kernels.h): lane j collects
// x[4t + j], lanes merge as ((acc0 + acc1) + acc2) + acc3, tail
// left-to-right. For n <= 4 the lane loop never runs (or runs once with
// every lane summing a single term), so the result is exactly the
// left-to-right sum util::DeterministicSum would produce.
double RowSumImpl(const double* x, int n) {
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

double RowMaxImpl(const double* x, int n) {
  double best = x[0];
  for (int i = 1; i < n; ++i) best = best < x[i] ? x[i] : best;
  return best;
}

void MulRowImpl(double* out, const double* a, const double* b, int n) {
  for (int i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void MulRowInPlaceImpl(double* inout, const double* b, int n) {
  for (int i = 0; i < n; ++i) inout[i] *= b[i];
}

void DivRowImpl(double* inout, int n, double divisor) {
  for (int i = 0; i < n; ++i) inout[i] /= divisor;
}

void WpAnswerDistributionImpl(const double* row, int n, double m, double off,
                              double* out) {
  for (int i = 0; i < n; ++i) out[i] = m * row[i] + off * (1.0 - row[i]);
}

// Loop order is truth-major so each out[answered] accumulates in ascending
// truth order — the order the pre-kernel code used — while the inner loop
// walks cm's row-major [truth][answered] layout contiguously.
void CmAnswerDistributionImpl(const double* cm, const double* row, int l,
                              double* out) {
  for (int a = 0; a < l; ++a) out[a] = 0.0;
  for (int t = 0; t < l; ++t) {
    const double* cm_row = cm + static_cast<long>(t) * l;
    const double rt = row[t];
    for (int a = 0; a < l; ++a) out[a] += cm_row[a] * rt;
  }
}

}  // namespace

const KernelTable& ScalarKernels() {
  static const KernelTable table = {
      RowSumImpl,        RowMaxImpl,
      MulRowImpl,        MulRowInPlaceImpl,
      DivRowImpl,        WpAnswerDistributionImpl,
      CmAnswerDistributionImpl,
  };
  return table;
}

}  // namespace qasca::kernels
