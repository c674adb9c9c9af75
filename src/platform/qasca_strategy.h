#ifndef QASCA_PLATFORM_QASCA_STRATEGY_H_
#define QASCA_PLATFORM_QASCA_STRATEGY_H_

#include <string>
#include <vector>

#include "core/assignment/qw_overlay.h"
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
/// the zero-copy Qw overlay — so one strategy must not serve two engines
/// concurrently; scratch never carries state between calls (the overlay is
/// re-begun per selection).
class QascaStrategy final : public AssignmentStrategy {
 public:
  /// `qw_mode` selects the paper's sampled Qw estimation or the expected
  /// ablation variant (see QwMode).
  explicit QascaStrategy(QwMode qw_mode = QwMode::kSampled)
      : qw_mode_(qw_mode) {}

  std::string name() const override { return "QASCA"; }

  std::vector<QuestionIndex> SelectQuestions(
      const StrategyContext& context,
      const std::vector<QuestionIndex>& candidates, int k) override;

  /// Diagnostics of the most recent selection (for the Figure 4
  /// experiments).
  int last_outer_iterations() const { return last_outer_iterations_; }
  int last_inner_iterations() const { return last_inner_iterations_; }

 private:
  QwMode qw_mode_;
  int last_outer_iterations_ = 0;
  int last_inner_iterations_ = 0;
  /// Reusable zero-copy Qw scratch (candidate rows only; DESIGN.md §12).
  QwOverlay overlay_;
};

}  // namespace qasca

#endif  // QASCA_PLATFORM_QASCA_STRATEGY_H_
