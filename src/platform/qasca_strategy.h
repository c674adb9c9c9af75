#ifndef QASCA_PLATFORM_QASCA_STRATEGY_H_
#define QASCA_PLATFORM_QASCA_STRATEGY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/assignment/assignment.h"
#include "core/assignment/fscore_online.h"
#include "core/assignment/qw_overlay.h"
#include "model/likelihood_cache.h"
#include "model/posterior.h"
#include "platform/strategy.h"
#include "util/telemetry.h"

namespace qasca {

/// QASCA's own task-assignment policy (Sections 4–5): estimate Qw for the
/// requesting worker from Qc and the worker's fitted model, then solve the
/// online assignment problem exactly —
///  * Accuracy metric: the Top-K Benefit Algorithm (Section 4.1);
///  * F-score metric: the F-score Online Assignment Algorithm
///    (Section 4.2, Algorithms 2–3) with the delta'_init warm start.
///
/// Threading contract: inherits AssignmentStrategy's engine-thread-only
/// SelectQuestions discipline (kernels parallelise through context.pool
/// with const-read bodies). The instance owns the request-scoped scratch
/// (DESIGN.md §12) — the zero-copy Qw overlay, the requesting worker's
/// likelihood table, the assignment request with its candidate list, and
/// the algorithms' buffers — which never carries state between calls (each
/// is rebuilt per selection in storage kept across selections). The one
/// state kept across calls is the F-score app's Qc-only inputs, tagged with
/// the Database::qc_version() they were prepared for, so one strategy
/// serves one engine's Database.
class QascaStrategy final : public AssignmentStrategy {
 public:
  /// Qw is always the paper's sampled estimate; the QwMode parameter stays
  /// because perfbench constructs the strategy from AppConfig::qw_mode.
  explicit QascaStrategy(QwMode /*qw_mode*/ = QwMode::kSampled) {}

  std::string name() const override { return "QASCA"; }

  /// Resolves the request path's counters: Qw samples drawn, Top-K
  /// candidates scanned, and Dinkelbach outer and inner iterations.
  void AttachTelemetry(util::MetricRegistry* registry) override;

  /// F-score apps: prepares PrepareFScoreCurrent(Qc) for the metric's alpha
  /// and target label. Other metrics read nothing Qc-only.
  void PrepareForQc(const Database& database,
                    const MetricSpec& metric) override;

  std::vector<QuestionIndex> SelectQuestions(
      const StrategyContext& context,
      const std::vector<QuestionIndex>& candidates, int k) override;

  /// The prepared F-score inputs; nullptr until the first F-score
  /// preparation.
  const FScoreCurrent* prepared_fscore() const {
    return fscore_.has_value() ? &*fscore_ : nullptr;
  }

  /// Diagnostics of the most recent selection (for the Figure 4
  /// experiments).
  int last_outer_iterations() const { return last_outer_iterations_; }
  int last_inner_iterations() const { return last_inner_iterations_; }

 private:
  int last_outer_iterations_ = 0;
  int last_inner_iterations_ = 0;
  /// Reusable zero-copy Qw scratch (candidate rows only; DESIGN.md §12).
  QwOverlay overlay_;
  /// The requesting worker's likelihood table, rebuilt from its current
  /// model on every request into storage kept across requests.
  WorkerLikelihoods likelihoods_;
  /// The request handed to the assignment algorithms, refilled per
  /// selection, and their buffers.
  AssignmentRequest request_;
  AssignmentScratch scratch_;
  /// Null until AttachTelemetry.
  util::Counter* qw_samples_drawn_ = nullptr;
  util::Counter* topk_candidates_scanned_ = nullptr;
  util::Counter* dinkelbach_outer_iterations_ = nullptr;
  util::Counter* dinkelbach_inner_iterations_ = nullptr;
  /// F-score inputs prepared for the Qc whose Database::qc_version() is
  /// fscore_qc_version_.
  std::optional<FScoreCurrent> fscore_;
  uint64_t fscore_qc_version_ = 0;
};

}  // namespace qasca

#endif  // QASCA_PLATFORM_QASCA_STRATEGY_H_
