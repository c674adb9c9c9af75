// Dispatch for the assignment kernels (kernels.h): resolve the widest
// supported ISA once, honour the QASCA_KERNEL_ISA override, and forward
// every entry point through one function-pointer table.

#include "core/kernels/kernels.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/kernels/kernel_table.h"
#include "util/logging.h"
#include "util/rng.h"

namespace qasca::kernels {
namespace {

const KernelTable& TableFor(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return ScalarKernels();
    case Isa::kSse2:
      return Sse2Kernels();
    case Isa::kAvx2:
      return Avx2Kernels();
  }
  return ScalarKernels();
}

// Widest ISA this host can execute.
Isa DetectIsa() {
  if (IsaSupported(Isa::kAvx2)) return Isa::kAvx2;
  if (IsaSupported(Isa::kSse2)) return Isa::kSse2;
  return Isa::kScalar;
}

bool ParseIsaName(const char* name, Isa* out) {
  if (std::strcmp(name, "scalar") == 0) {
    *out = Isa::kScalar;
    return true;
  }
  if (std::strcmp(name, "sse2") == 0) {
    *out = Isa::kSse2;
    return true;
  }
  if (std::strcmp(name, "avx2") == 0) {
    *out = Isa::kAvx2;
    return true;
  }
  return false;
}

Isa ResolveIsa() {
  const Isa detected = DetectIsa();
  const char* override_name = std::getenv("QASCA_KERNEL_ISA");
  if (override_name == nullptr || override_name[0] == '\0') return detected;
  Isa requested = detected;
  if (!ParseIsaName(override_name, &requested)) {
    std::fprintf(stderr,
                 "[QASCA kernels] unknown QASCA_KERNEL_ISA=\"%s\" "
                 "(want scalar|sse2|avx2); using %s\n",
                 override_name, IsaName(detected));
    return detected;
  }
  if (!IsaSupported(requested)) {
    // Clamp to the widest supported ISA at or below the request, so a CI
    // matrix can export QASCA_KERNEL_ISA=avx2 on hosts without AVX2 and
    // still run meaningfully.
    Isa clamped = detected < requested ? detected : requested;
    while (clamped > Isa::kScalar && !IsaSupported(clamped)) {
      clamped = static_cast<Isa>(static_cast<int>(clamped) - 1);
    }
    std::fprintf(stderr,
                 "[QASCA kernels] QASCA_KERNEL_ISA=%s not supported on this "
                 "host; using %s\n",
                 IsaName(requested), IsaName(clamped));
    return clamped;
  }
  return requested;
}

struct Dispatch {
  Isa isa;
  const KernelTable* table;
};

// Resolved exactly once, on the first kernel call (thread-safe static
// init); SetIsaForTesting repoints it afterwards. All mutation happens on
// the single engine/test thread (the engine's threading contract), worker
// threads only read through the entry points.
Dispatch& ActiveDispatch() {
  // analyze:allow(global-state) immutable-after-init ISA dispatch singleton
  static Dispatch dispatch = [] {
    const Isa isa = ResolveIsa();
    return Dispatch{isa, &TableFor(isa)};
  }();
  return dispatch;
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse2:
      return "sse2";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool IsaSupported(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
#if QASCA_KERNELS_X86
    case Isa::kSse2:
      return true;  // Part of the x86-64 baseline.
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
#else
    case Isa::kSse2:
    case Isa::kAvx2:
      return false;
#endif
  }
  return false;
}

Isa ActiveIsa() { return ActiveDispatch().isa; }

void SetIsaForTesting(Isa isa) {
  QASCA_CHECK(IsaSupported(isa)) << "ISA " << IsaName(isa)
                                 << " not supported on this host";
  ActiveDispatch() = Dispatch{isa, &TableFor(isa)};
}

double RowSum(const double* x, int n) {
  return ActiveDispatch().table->row_sum(x, n);
}

double RowMax(const double* x, int n) {
  return ActiveDispatch().table->row_max(x, n);
}

void MulRow(double* out, const double* a, const double* b, int n) {
  ActiveDispatch().table->mul_row(out, a, b, n);
}

void MulRowInPlace(double* inout, const double* b, int n) {
  ActiveDispatch().table->mul_row_in_place(inout, b, n);
}

void DivRow(double* inout, int n, double divisor) {
  ActiveDispatch().table->div_row(inout, n, divisor);
}

void WpAnswerDistribution(const double* row, int n, double m, double off,
                          double* out) {
  ActiveDispatch().table->wp_answer_distribution(row, n, m, off, out);
}

void CmAnswerDistribution(const double* cm, const double* row, int l,
                          double* out) {
  ActiveDispatch().table->cm_answer_distribution(cm, row, l, out);
}

RowMaxFn ActiveRowMax() { return ActiveDispatch().table->row_max; }

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

// Fully-inlined l == 2 fast path: the same op sequence as the composed
// kernels (WpAnswerDistribution / CmAnswerDistribution, the cumulative
// sampling rule, MulRow, the n <= 4 left-to-right RowSum, the 1/n uniform
// fallback and DivRow's true division), spelled out scalar so a chunk of
// binary-label rows runs with zero indirect calls. This TU compiles with
// -ffp-contract=off, so none of the multiply-adds below can fuse.
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
  // General shape: compose the active table's kernels through one hoisted
  // pointer — the same per-row sequence the unfused overlay scan ran, with
  // the dispatch resolved once per chunk instead of four times per row.
  const KernelTable& t = *ActiveDispatch().table;
  for (int c = 0; c < rows; ++c) {
    const int question = candidates[c];
    const double* cur = qc + static_cast<size_t>(question) * l;
    if (cm == nullptr) {
      t.wp_answer_distribution(cur, l, wp_m, wp_off, dist_scratch);
    } else {
      t.cm_answer_distribution(cm, cur, l, dist_scratch);
    }
    const int sampled =
        SampleDistributionAt(dist_scratch, l, VariateFor(base, question));
    double* o = out + static_cast<size_t>(c) * l;
    t.mul_row(o, cur, likelihoods + static_cast<size_t>(sampled) * l, l);
    const double norm = t.row_sum(o, l);
    if (norm <= 0.0) {
      for (int j = 0; j < l; ++j) o[j] = 1.0 / static_cast<double>(l);
    } else {
      t.div_row(o, l, norm);
    }
    if (row_max != nullptr) row_max[c] = t.row_max(o, l);
  }
}

}  // namespace qasca::kernels
