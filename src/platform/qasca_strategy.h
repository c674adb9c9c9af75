#ifndef QASCA_PLATFORM_QASCA_STRATEGY_H_
#define QASCA_PLATFORM_QASCA_STRATEGY_H_

#include <string>
#include <vector>

#include "core/assignment/qw_overlay.h"
#include "model/likelihood_cache.h"
#include "model/posterior.h"
#include "platform/strategy.h"

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
/// with const-read bodies). The instance owns reusable per-call scratch —
/// the zero-copy Qw overlay and the requesting worker's likelihood table —
/// so one strategy must not serve two engines concurrently; scratch never
/// carries state between calls (both are rebuilt per selection).
class QascaStrategy final : public AssignmentStrategy {
 public:
  /// Qw is always the paper's sampled estimate; the QwMode parameter stays
  /// because perfbench constructs the strategy from AppConfig::qw_mode.
  explicit QascaStrategy(QwMode /*qw_mode*/ = QwMode::kSampled) {}

  std::string name() const override { return "QASCA"; }

  std::vector<QuestionIndex> SelectQuestions(
      const StrategyContext& context,
      const std::vector<QuestionIndex>& candidates, int k) override;

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
};

}  // namespace qasca

#endif  // QASCA_PLATFORM_QASCA_STRATEGY_H_
