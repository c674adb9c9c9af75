#include "core/assignment/topk_benefit.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "core/assignment/qw_overlay.h"
#include "core/kernels/kernels.h"
#include "core/top_k.h"
#include "util/fold.h"
#include "util/invariants.h"
#include "util/logging.h"
#include "util/telemetry.h"
#include "util/telemetry_names.h"
#include "util/thread_pool.h"

namespace qasca {
namespace {

// Fixed chunk grain for the per-candidate benefit scan and the fixed-term
// objective sum; constant so the decomposition (and the chunk-ordered fold
// of the objective) is identical for every thread count.
constexpr int kBenefitScanGrain = 512;

// The Top-K Benefit scan (Section 4.1, generalised to any decomposable row
// quality), templated on the two quality reads so concrete instantiations —
// the Accuracy* row max below, the generic RowQualityFn wrapper — inline
// them into the per-candidate loop instead of paying a type-erased call per
// row. `est_quality(c)` is the quality of candidate position c's estimated
// row, `cur_quality(i)` that of question i's current row.
//
// Selection is a streaming top-k (BoundedTopK, core/top_k.h): each chunk
// keeps its own k best candidates under ScoreGreater, and the serial
// chunk-ordered merge picks the global top-k from their union. Because the
// union always contains the global top-k and the order is strict and total,
// the selected *set* is exactly what nth_element over a full benefit vector
// would produce, for every thread count — without materialising (or
// re-scanning) an n-entry benefit vector per request.
template <typename EstQuality, typename CurQuality>
AssignmentResult ScanTopKBenefit(const AssignmentRequest& request,
                                 const EstQuality& est_quality,
                                 const CurQuality& cur_quality) {
  util::Span span(request.telemetry, util::tnames::kSpanTopkScan);
  const DistributionMatrix& current = *request.current;

  const int num_candidates = static_cast<int>(request.candidates.size());
  const int k = request.k;
  const int num_chunks = util::NumChunks(0, num_candidates, kBenefitScanGrain);
  AssignmentScratch local_scratch;
  AssignmentScratch& scratch =
      request.scratch != nullptr ? *request.scratch : local_scratch;
  std::vector<ScoredQuestion>& local = scratch.chunk_top;
  std::vector<int>& local_counts = scratch.chunk_counts;
  local.resize(static_cast<size_t>(num_chunks) * k);
  local_counts.resize(static_cast<size_t>(num_chunks));
  util::ParallelFor(
      request.pool, 0, num_candidates, kBenefitScanGrain, [&](int cb, int ce) {
        const int chunk = util::ChunkIndex(0, cb, kBenefitScanGrain);
        BoundedTopK selector(local.data() + static_cast<size_t>(chunk) * k,
                             k);
        for (int c = cb; c < ce; ++c) {
          const QuestionIndex i = request.candidates[static_cast<size_t>(c)];
          selector.Offer({est_quality(c) - cur_quality(i), i});
        }
        local_counts[static_cast<size_t>(chunk)] = selector.count();
      });

  // Serial merge in chunk order; after the sort, benefits[0..k) is the
  // global top-k in ScoreGreater order.
  std::vector<ScoredQuestion>& benefits = scratch.merged;
  benefits.clear();
  for (int chunk = 0; chunk < num_chunks; ++chunk) {
    const auto* top = local.data() + static_cast<size_t>(chunk) * k;
    benefits.insert(benefits.end(), top,
                    top + local_counts[static_cast<size_t>(chunk)]);
  }
  std::sort(benefits.begin(), benefits.end(), ScoreGreater);

  AssignmentResult result;
  result.outer_iterations = 1;
  // Objective: the fixed term (quality of every current row) plus the
  // selected benefits, averaged (Eq. 12), summed over benefits[0..k) in
  // ScoreGreater order: another order would change the floating-point
  // association (the golden traces pin the exact bits). Skipped when the
  // caller only consumes the selection — the fixed term is an O(n) sweep
  // per request.
  if (request.compute_objective) {
    double total = util::ParallelSum(
        request.pool, 0, current.num_questions(), kBenefitScanGrain,
        [&](int cb, int ce) {
          double sum = 0.0;
          for (int i = cb; i < ce; ++i) sum += cur_quality(i);
          return sum;
        });
    // Seeded with the ParallelSum total so the benefit adds keep their
    // historical association (the golden traces pin the exact bits).
    total = util::DeterministicFold(
        total, 0, request.k,
        [&](double acc, int c) { return acc + benefits[c].first; });
    result.objective = total / current.num_questions();
  }

  // The selection and its scores, reordered ascending by question index.
  std::sort(benefits.begin(), benefits.begin() + k,
            [](const ScoredQuestion& a, const ScoredQuestion& b) {
              return a.second < b.second;
            });
  result.selected.resize(static_cast<size_t>(k));
  result.selected_scores.resize(static_cast<size_t>(k));
  for (int c = 0; c < k; ++c) {
    result.selected[static_cast<size_t>(c)] =
        benefits[static_cast<size_t>(c)].second;
    result.selected_scores[static_cast<size_t>(c)] =
        benefits[static_cast<size_t>(c)].first;
  }
  QASCA_DCHECK_OK(invariants::CheckAssignment(result.selected, request.k,
                                              current.num_questions()));
  return result;
}

}  // namespace

AssignmentResult AssignTopKBenefitDecomposable(
    const AssignmentRequest& request, const RowQualityFn& row_quality) {
  ValidateRequest(request);
  const DistributionMatrix& current = *request.current;
  return ScanTopKBenefit(
      request,
      [&](int c) {
        return row_quality(request.EstimatedSlotRow(static_cast<size_t>(c)));
      },
      [&](QuestionIndex i) { return row_quality(current.Row(i)); });
}

AssignmentResult AssignTopKBenefit(const AssignmentRequest& request) {
  ValidateRequest(request);
  // Accuracy row quality = max cell of the row (Eq. 12's max over labels).
  // Current rows are read straight off the dense matrix, and when the Qw
  // estimation fused the row maxima into the overlay's quality channel the
  // estimated quality is a single contiguous load per candidate instead of
  // a row reduction.
  const DistributionMatrix& current = *request.current;
  const int num_labels = current.num_labels();
  const double* current_base = current.Row(0).data();
  const QwOverlay* overlay = request.overlay;
  const bool fused_qualities = overlay != nullptr && overlay->has_qualities();
  return ScanTopKBenefit(
      request,
      [&, fused_qualities](int c) {
        if (fused_qualities) return overlay->Quality(c);
        const std::span<const double> row =
            request.EstimatedSlotRow(static_cast<size_t>(c));
        return kernels::RowMax(row.data(), static_cast<int>(row.size()));
      },
      [&](QuestionIndex i) {
        return kernels::RowMax(
            current_base + static_cast<size_t>(i) * num_labels, num_labels);
      });
}

}  // namespace qasca
