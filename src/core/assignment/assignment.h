#ifndef QASCA_CORE_ASSIGNMENT_ASSIGNMENT_H_
#define QASCA_CORE_ASSIGNMENT_ASSIGNMENT_H_

#include <span>
#include <vector>

#include "core/assignment/qw_overlay.h"
#include "core/distribution_matrix.h"
#include "core/fractional.h"
#include "core/top_k.h"
#include "core/types.h"

namespace qasca::util {
class MetricRegistry;
class ThreadPool;
}  // namespace qasca::util

namespace qasca {

/// Buffers an assignment call fills and reads within the call. A server
/// keeps one across requests (QascaStrategy owns one), so a warmed-up
/// request allocates nothing of size n (DESIGN.md §12, "Request-scoped
/// scratch"); a request without one gets empty buffers local to the call.
/// Nothing in them carries over from one call to the next.
struct AssignmentScratch {
  /// F-score: Qw's target entry, n-sized like b and d below and, like
  /// them, written only at candidate entries, the only ones read.
  std::vector<double> estimated;
  /// F-score: the Update step's program. b and d are n-sized and written
  /// only at candidate entries, the only ones the solver reads.
  ZeroOneFractionalProgram problem;
  /// F-score: the Dinkelbach solve's maximisers and top-k buffer.
  ExactlyKSolution solution;
  /// Top-K benefit scan: each chunk's k best and their count, then the
  /// chunk-ordered merge.
  std::vector<ScoredQuestion> chunk_top;
  std::vector<int> chunk_counts;
  std::vector<ScoredQuestion> merged;
};

/// Inputs common to every task-assignment call (Definition 1): the current
/// distribution matrix Qc, the estimated distribution matrix Qw for the
/// requesting worker, the worker's candidate set S^w (questions not yet
/// assigned to them), and the HIT size k.
///
/// Qw is read only at the candidate set, by candidate position, through
/// EstimatedSlotRow(c); rows of `estimated` outside `candidates` are never
/// read.
///
/// Zero-copy form (DESIGN.md §12): when `overlay` is set, only the candidate
/// rows of Qw exist, slot c of the overlay holding candidates[c]'s row as
/// EstimateWorkerRowsInto fills it, and `estimated` is not read. Both
/// representations hold the same doubles, so selections are bit-identical
/// either way.
struct AssignmentRequest {
  const DistributionMatrix* current = nullptr;    // Qc
  const DistributionMatrix* estimated = nullptr;  // Qw
  /// Optional zero-copy Qw: one row per candidate, in candidate order.
  const QwOverlay* overlay = nullptr;
  /// The candidate set S^w: distinct question indices, any order.
  std::vector<QuestionIndex> candidates;
  int k = 0;
  /// Optional worker pool for the Top-K benefit scan; AssignFScoreOnline
  /// runs serially and ignores it. nullptr runs serial; any pool size
  /// produces bit-identical selections (fixed-grain chunking, chunk-ordered
  /// reductions — see util/thread_pool.h).
  util::ThreadPool* pool = nullptr;
  /// Optional telemetry registry for stage spans; nullptr records nothing,
  /// a disabled registry reads no clock, and neither influences the
  /// selection. Counts of the work done (candidates scanned, Dinkelbach
  /// iterations) are the caller's to record from the result.
  util::MetricRegistry* telemetry = nullptr;
  /// Optional reusable buffers; nullptr uses buffers local to the call.
  AssignmentScratch* scratch = nullptr;
  /// Whether the Top-K benefit algorithms should also evaluate the
  /// objective F(Q^X*) (an O(n) row-quality sweep per request on top of
  /// the candidate scan). The serving path only consumes `selected`, so
  /// QascaStrategy turns this off; analysis callers and tests keep the
  /// default and get the exact Eq. 12 value. Never read by
  /// AssignFScoreOnline, whose Dinkelbach iteration computes delta*
  /// (= the objective) as a by-product either way.
  bool compute_objective = true;

  /// The Qw row of candidates[c]: overlay slot c when an overlay is
  /// attached, else that row of `estimated`. This is the only way
  /// assignment algorithms read Qw.
  std::span<const double> EstimatedSlotRow(size_t c) const {
    if (overlay != nullptr) return overlay->SlotRow(static_cast<int>(c));
    return estimated->Row(candidates[c]);
  }
};

/// Outcome of an assignment: the chosen questions (ascending order) plus the
/// objective value F(Q^{X*}) the optimizer converged to and iteration
/// diagnostics for the efficiency experiments (Figure 4).
struct AssignmentResult {
  std::vector<QuestionIndex> selected;
  /// Per-question selection scores parallel to `selected`: the quantity the
  /// optimizer ranked each chosen question by (Top-K Benefit: the Eq. 12
  /// benefit est_quality - cur_quality; F-score*: the target-label
  /// probability swing Qw[i][t] - Qc[i][t]). Consumed by the decision
  /// provenance records (platform/provenance.h); purely diagnostic, never
  /// read back by the algorithms.
  std::vector<double> selected_scores;
  /// The optimal objective value (Accuracy*(Q^X*, R^X*) or delta* for
  /// F-score*).
  double objective = 0.0;
  /// Outer iterations (the paper's u; 1 for the Accuracy top-k algorithm).
  int outer_iterations = 0;
  /// Total inner Dinkelbach iterations across all Update calls (the paper's
  /// u*v bound; 0 for Accuracy).
  int inner_iterations = 0;
};

/// Builds the assignment distribution matrix Q^X (Eq. 1): rows of `current`
/// with the rows of `selected` questions replaced by the worker's estimated
/// rows.
DistributionMatrix BuildAssignmentMatrix(
    const DistributionMatrix& current, const DistributionMatrix& estimated,
    const std::vector<QuestionIndex>& selected);

/// Validates structural invariants of `request` (matching shapes, distinct
/// in-range candidates, 0 < k <= |S^w|, an overlay row per candidate).
/// Aborts on violation; assignment entry points call this first.
void ValidateRequest(const AssignmentRequest& request);

}  // namespace qasca

#endif  // QASCA_CORE_ASSIGNMENT_ASSIGNMENT_H_
