// Ablation (DESIGN.md §5): the paper estimates Qw by *sampling* the label
// the worker would answer (weighted random sampling, Section 5.3). The
// tempting deterministic alternative — averaging the conditioned posterior
// over the predicted answer distribution — is degenerate: by the law of
// total probability that average is Qc itself, so every assignment looks
// equally (un)profitable and the assignment decays to an arbitrary fixed
// choice. This bench quantifies that collapse end to end by running the
// same assignment algorithms with Qw = Qc.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/experiment_driver.h"
#include "core/assignment/fscore_online.h"
#include "core/assignment/topk_benefit.h"
#include "platform/database.h"
#include "platform/qasca_strategy.h"
#include "util/logging.h"
#include "util/table.h"

namespace qasca {
namespace {

// QASCA's assignment step with Qc handed in as Qw: what an "expected Qw"
// estimator would produce. No overlay, no random draw.
class QwEqualsQcStrategy final : public AssignmentStrategy {
 public:
  std::string name() const override { return "QASCA(Qw = Qc)"; }

  std::vector<QuestionIndex> SelectQuestions(
      const StrategyContext& context,
      const std::vector<QuestionIndex>& candidates, int k) override {
    const DistributionMatrix& qc = context.database->current();
    AssignmentRequest request;
    request.current = &qc;
    request.estimated = &qc;
    request.candidates = candidates;
    request.k = k;
    request.compute_objective = false;
    const MetricSpec& metric = *context.metric;
    if (metric.kind == MetricSpec::Kind::kAccuracy) {
      return AssignTopKBenefit(request).selected;
    }
    QASCA_CHECK(metric.kind == MetricSpec::Kind::kFScore);
    FScoreAssignmentOptions options;
    options.alpha = metric.alpha;
    options.target_label = metric.target_label;
    options.warm_start = true;
    return AssignFScoreOnline(request, options).selected;
  }
};

void RunAll() {
  const int seeds = bench::SeedsFromEnv(2);
  std::vector<SystemFactory> systems = {
      {"QASCA(sampled Qw)", [] { return std::make_unique<QascaStrategy>(); }},
      {"QASCA(Qw = Qc)", [] { return std::make_unique<QwEqualsQcStrategy>(); }},
  };

  util::PrintSection(
      "Ablation — sampled Qw vs Qw = Qc (final quality, mean of runs)");
  util::Table table({"Dataset", "metric", "sampled Qw", "Qw = Qc"});
  for (const ApplicationSpec& app :
       {FilmPostersApp(), EntityResolutionApp(), NegativeSentimentApp()}) {
    bench::AveragedTraces traces = bench::RunAveraged(
        app, systems, seeds, /*checkpoints=*/4,
        /*track_estimation_deviation=*/false);
    table.AddRow()
        .Cell(app.name)
        .Cell(app.metric.kind == MetricSpec::Kind::kAccuracy ? "Accuracy"
                                                             : "F-score")
        .Percent(traces.final_quality[0], 2)
        .Percent(traces.final_quality[1], 2);
  }
  table.Print();
  std::printf(
      "Expected shape: Qw = Qc collapses toward chance level — the\n"
      "sampling step in Section 5.3 is load-bearing, not incidental.\n");
}

}  // namespace
}  // namespace qasca

int main() {
  qasca::RunAll();
  return 0;
}
