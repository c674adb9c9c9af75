#ifndef QASCA_CORE_KERNELS_KERNELS_H_
#define QASCA_CORE_KERNELS_KERNELS_H_

/// Runtime-dispatched SIMD kernels for the assignment hot loops (DESIGN.md
/// §12 "Assignment kernels"): the row-quality / benefit scan, Qw
/// answer-distribution and posterior-weight inner loops, and the E-step's
/// per-row normalisation all funnel through the entry points below.
///
/// Dispatch model: one implementation table per ISA (scalar, SSE2, AVX2),
/// resolved exactly once — the first kernel call picks the widest ISA the
/// CPU supports, overridable with the QASCA_KERNEL_ISA environment variable
/// ("scalar" | "sse2" | "avx2") for testing, or SetIsaForTesting() from
/// inside a test binary. Non-x86 builds compile the scalar table only and
/// report SSE2/AVX2 as unsupported.
///
/// Bit-identity contract: every ISA path returns *bit-identical* doubles
/// for every input. Element-wise kernels (MulRow, DivRow,
/// WpAnswerDistribution) are exact per IEEE-754 — each output lane performs
/// the same correctly-rounded op sequence as the scalar loop, and every
/// kernel TU compiles with -ffp-contract=off so no FMA contraction can
/// change a rounding. Reductions are pinned by fixing the fold *schedule*
/// rather than the vector width: RowSum always folds through four lane
/// accumulators (acc[i % 4]) merged as ((acc0 + acc1) + acc2) + acc3 with a
/// left-to-right tail — the scalar path implements that same schedule
/// explicitly, SSE2 uses two 2-lane registers and AVX2 one 4-lane register,
/// all algebraically *and bitwise* the same order. For n <= 4 the schedule
/// degenerates to a strict left-to-right sum, so rows of up to four labels
/// (every golden-trace workload) match util::DeterministicSum bit-for-bit;
/// wider rows are deterministic but reassociated relative to a serial sum.
/// CmAnswerDistribution accumulates each output lane in ascending-truth
/// order regardless of ISA. RowMax is order-insensitive (max is commutative
/// and the inputs are probabilities, so there are no NaNs or -0.0s).
///
/// The float-determinism analyzer pass excludes src/core/kernels/: this
/// directory *is* an audited fold implementation, like util/fold.h.

#include <cstdint>

namespace qasca::kernels {

/// Instruction sets a kernel table can be compiled for, ordered narrowest
/// to widest. Numeric values are stable (exported as the kernel.isa gauge).
enum class Isa : int {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

/// Lower-case name used by the QASCA_KERNEL_ISA override and bench output.
const char* IsaName(Isa isa);

/// Whether this host can execute the given table.
bool IsaSupported(Isa isa);

/// The ISA the kernel entry points currently dispatch to. First call
/// resolves the dispatch: QASCA_KERNEL_ISA if set (unsupported or unknown
/// values warn on stderr and fall back), else the widest supported ISA.
Isa ActiveIsa();

/// Repoints the dispatch table; `isa` must be supported on this host.
/// Tests use this to prove every path selects identical assignments.
void SetIsaForTesting(Isa isa);

/// Sum of x[0..n) under the fixed 4-lane-accumulator schedule described
/// above. Bit-identical across ISAs; equals a left-to-right sum for n <= 4.
double RowSum(const double* x, int n);

/// Max of x[0..n), n >= 1. Inputs must be NaN-free (probability rows).
double RowMax(const double* x, int n);

/// out[i] = a[i] * b[i]. `out` must not alias `a` or `b` partially (exact
/// aliasing out == a is allowed via MulRowInPlace).
void MulRow(double* out, const double* a, const double* b, int n);

/// inout[i] *= b[i].
void MulRowInPlace(double* inout, const double* b, int n);

/// inout[i] /= divisor (a true division — not a reciprocal multiply — so
/// the result matches the scalar normalisation loop bit-for-bit).
void DivRow(double* inout, int n, double divisor);

/// Closed-form WP answer distribution (Eq. 17 for a worker-probability
/// model): out[i] = m * row[i] + off * (1.0 - row[i]).
void WpAnswerDistribution(const double* row, int n, double m, double off,
                          double* out);

/// Confusion-matrix answer distribution (Eq. 17):
/// out[answered] = sum_truth cm[truth * l + answered] * row[truth], with
/// each out lane accumulated in ascending-truth order on every ISA. `cm` is
/// the l-by-l row-major [truth][answered] matrix; `out` must not alias
/// `row` or `cm`.
void CmAnswerDistribution(const double* cm, const double* row, int l,
                          double* out);

/// The active table's RowMax implementation as a raw function pointer, for
/// hot scans that hoist the dispatch resolution out of a per-row loop. The
/// pointer stays valid for the whole program run but goes stale if
/// SetIsaForTesting repoints the dispatch — hoist it per scan, never into a
/// global.
using RowMaxFn = double (*)(const double*, int);
RowMaxFn ActiveRowMax();

/// Fused sampled-mode Qw batch (Eqs. 17-18 under QwMode::kSampled; one call
/// per scan chunk). For each candidate c in [0, rows):
///   1. reads the current row at qc + candidates[c] * l,
///   2. forms the predicted answer distribution — the WP closed form
///      m * q + off * (1 - q) when cm == nullptr, else the confusion-matrix
///      product over the row-major [truth][answered] matrix `cm`,
///   3. derives the candidate's uniform variate from the per-request seed
///      `base` exactly as the unfused path does — a util::SplitMix64 stream
///      seeded with MixSeed(base, candidates[c]), one NextDouble() —
///   4. selects the answered label by util::SampleWeightedAt's cumulative
///      rule, conditions the row on likelihoods + answered * l (the
///      transposed WorkerLikelihoods table) and normalises into
///      out + c * l (RowSum fold, uniform fallback, true division).
/// When row_max != nullptr, the normalised row's maximum — the Accuracy*
/// row quality — is additionally written to row_max[c] while the row is
/// still hot. `dist_scratch` must hold l doubles (per-chunk scratch; unused
/// by the l == 2 fast path).
///
/// Bit-identity: every arithmetic step reproduces the exact op sequence of
/// the per-row composition (WpAnswerDistribution / CmAnswerDistribution,
/// SampleWeightedAt, MulRow, RowSum, DivRow and the uniform fallback), so
/// the fused batch is bitwise-equal to the unfused path on every ISA. The
/// l == 2 hot path (binary labels — every golden-trace workload) is fully
/// inlined scalar with one dispatch resolution per call instead of four
/// indirect kernel calls per row; wider rows compose the active table's
/// kernels through a single hoisted table pointer.
void SampledQwRows(const double* qc, int l, const int* candidates, int rows,
                   uint64_t base, double wp_m, double wp_off,
                   const double* cm, const double* likelihoods, double* out,
                   double* row_max, double* dist_scratch);

}  // namespace qasca::kernels

#endif  // QASCA_CORE_KERNELS_KERNELS_H_
