#ifndef QASCA_CORE_KERNELS_KERNEL_TABLE_H_
#define QASCA_CORE_KERNELS_KERNEL_TABLE_H_

/// Internal to src/core/kernels/: the per-ISA implementation table behind
/// the dispatch in kernels.cc. Each ISA translation unit fills one static
/// table; kernels.cc picks one pointer at startup (kernels.h documents the
/// selection and bit-identity rules). Nothing outside this directory may
/// include this header — call the kernels.h entry points instead.

namespace qasca::kernels {

#if defined(__x86_64__) || defined(_M_X64)
#define QASCA_KERNELS_X86 1
#else
#define QASCA_KERNELS_X86 0
#endif

struct KernelTable {
  double (*row_sum)(const double*, int) = nullptr;
  double (*row_max)(const double*, int) = nullptr;
  void (*mul_row)(double*, const double*, const double*, int) = nullptr;
  void (*mul_row_in_place)(double*, const double*, int) = nullptr;
  void (*div_row)(double*, int, double) = nullptr;
  void (*wp_answer_distribution)(const double*, int, double, double,
                                 double*) = nullptr;
  void (*cm_answer_distribution)(const double*, const double*, int,
                                 double*) = nullptr;
};

/// Always available; the reference implementation of the fold schedules.
const KernelTable& ScalarKernels();
/// On non-x86 builds these return ScalarKernels() (and IsaSupported
/// reports them unsupported, so dispatch never selects them).
const KernelTable& Sse2Kernels();
const KernelTable& Avx2Kernels();

}  // namespace qasca::kernels

#endif  // QASCA_CORE_KERNELS_KERNEL_TABLE_H_
