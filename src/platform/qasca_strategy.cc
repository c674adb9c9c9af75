#include "platform/qasca_strategy.h"

#include <utility>

#include "core/assignment/assignment.h"
#include "core/assignment/fscore_online.h"
#include "core/assignment/topk_benefit.h"
#include "core/metrics/cost_accuracy.h"
#include "platform/database.h"
#include "platform/provenance.h"
#include "util/logging.h"
#include "util/telemetry.h"
#include "util/telemetry_names.h"

namespace qasca {
namespace {

FScoreAssignmentOptions FScoreOptions(const MetricSpec& metric) {
  FScoreAssignmentOptions options;
  options.alpha = metric.alpha;
  options.target_label = metric.target_label;
  options.warm_start = true;
  return options;
}

}  // namespace

void QascaStrategy::AttachTelemetry(util::MetricRegistry* registry) {
  qw_samples_drawn_ = registry->GetCounter(util::tnames::kQwSamplesDrawn);
  topk_candidates_scanned_ =
      registry->GetCounter(util::tnames::kTopkCandidatesScanned);
  dinkelbach_outer_iterations_ =
      registry->GetCounter(util::tnames::kDinkelbachOuterIterations);
  dinkelbach_inner_iterations_ =
      registry->GetCounter(util::tnames::kDinkelbachInnerIterations);
}

void QascaStrategy::PrepareForQc(const Database& database,
                                 const MetricSpec& metric) {
  if (metric.kind != MetricSpec::Kind::kFScore) return;
  fscore_ = PrepareFScoreCurrent(database.current(), FScoreOptions(metric));
  fscore_qc_version_ = database.qc_version();
}

std::vector<QuestionIndex> QascaStrategy::SelectQuestions(
    const StrategyContext& context,
    const std::vector<QuestionIndex>& candidates, int k) {
  QASCA_CHECK(context.database != nullptr);
  QASCA_CHECK(context.metric != nullptr);
  QASCA_CHECK(context.worker_model != nullptr);
  QASCA_CHECK(context.rng != nullptr);

  const DistributionMatrix& qc = context.database->current();

  AssignmentRequest& request = request_;
  request.current = &qc;
  // Copied into storage kept across requests: no allocation.
  request.candidates = candidates;
  request.k = k;
  request.pool = context.pool;
  request.telemetry = context.telemetry;
  request.scratch = &scratch_;
  // The engine consumes only the selection; skip the Top-K algorithms'
  // O(n) objective sweep per request (F-score's Dinkelbach computes its
  // objective as a by-product regardless).
  request.compute_objective = false;
  const auto num_candidates = static_cast<int64_t>(candidates.size());

  // Qw estimation (Section 5.3): materialise only the candidate rows into
  // the reusable overlay, multiplying through the requesting worker's
  // likelihood table, rebuilt here because every full EM refit changes the
  // model.
  {
    likelihoods_.Rebuild(*context.worker_model);
    util::Span span(context.telemetry, util::tnames::kSpanEstimateQw);
    // Accuracy* consumes each estimated row only through its max, so the
    // estimation kernel fuses the row maxima into the overlay's quality
    // channel while the rows are hot; the benefit scan then reads one
    // double per candidate (AssignTopKBenefit's fused path).
    const bool fuse_row_max =
        context.metric->kind == MetricSpec::Kind::kAccuracy;
    EstimateWorkerRowsInto(qc, *context.worker_model, likelihoods_, candidates,
                           QwMode::kSampled, *context.rng, &overlay_,
                           context.pool, context.telemetry, fuse_row_max);
    if (qw_samples_drawn_ != nullptr) qw_samples_drawn_->Add(num_candidates);
  }
  request.estimated = &qc;
  request.overlay = &overlay_;

  AssignmentResult result;
  if (context.metric->kind != MetricSpec::Kind::kFScore &&
      topk_candidates_scanned_ != nullptr) {
    topk_candidates_scanned_->Add(num_candidates);
  }
  if (context.metric->kind == MetricSpec::Kind::kAccuracy) {
    result = AssignTopKBenefit(request);
  } else if (context.metric->kind == MetricSpec::Kind::kCostAccuracy) {
    // Decomposable like Accuracy*: Top-K Benefit with the metric's row
    // quality (expected-cost minimiser per question).
    CostAccuracyMetric metric(context.metric->costs,
                              context.metric->CostLabels());
    result = AssignTopKBenefitDecomposable(
        request,
        [&metric](std::span<const double> row) {
          return metric.RowQuality(row);
        });
  } else {
    // Inputs prepared before a Qc change nobody announced, or for other
    // options, are rebuilt here rather than read.
    const FScoreAssignmentOptions options = FScoreOptions(*context.metric);
    if (!fscore_.has_value() || fscore_->options != options ||
        fscore_qc_version_ != context.database->qc_version()) {
      PrepareForQc(*context.database, *context.metric);
    }
    QASCA_DCHECK(IdenticalBits(*fscore_, PrepareFScoreCurrent(qc, options)))
        << "prepared F-score inputs differ from a fresh preparation";
    result = AssignFScoreOnline(request, *fscore_);
    if (dinkelbach_outer_iterations_ != nullptr) {
      dinkelbach_outer_iterations_->Add(result.outer_iterations);
      dinkelbach_inner_iterations_->Add(result.inner_iterations);
    }
  }
  last_outer_iterations_ = result.outer_iterations;
  last_inner_iterations_ = result.inner_iterations;
  if (context.provenance != nullptr) {
    context.provenance->scores = std::move(result.selected_scores);
    context.provenance->objective = result.objective;
    context.provenance->outer_iterations = result.outer_iterations;
    context.provenance->inner_iterations = result.inner_iterations;
  }
  return result.selected;
}

}  // namespace qasca
