#include "platform/assignment_core.h"

#include <algorithm>
#include <cmath>

#include "model/posterior.h"
#include "util/invariants.h"
#include "util/logging.h"
#include "util/telemetry_names.h"

namespace qasca {

AssignmentCore::AssignmentCore(const AppConfig* config,
                               std::unique_ptr<AssignmentStrategy> strategy,
                               uint64_t seed,
                               util::MetricRegistry* telemetry)
    : config_(*config),
      telemetry_(*telemetry),
      strategy_(std::move(strategy)),
      metric_(config_.metric.Make()),
      database_(config_.num_questions, config_.num_labels),
      rng_(seed),
      em_full_refits_counter_(
          telemetry->GetCounter(util::tnames::kEmFullRefits)),
      em_incremental_refreshes_counter_(
          telemetry->GetCounter(util::tnames::kEmIncrementalRefreshes)),
      last_refresh_drift_gauge_(
          telemetry->GetGauge(util::tnames::kLastRefreshDrift)),
      answers_recorded_counter_(
          telemetry->GetCounter(util::tnames::kDbAnswersRecorded)),
      posterior_row_updates_counter_(
          telemetry->GetCounter(util::tnames::kDbPosteriorRowUpdates)),
      em_iterations_counter_(
          telemetry->GetCounter(util::tnames::kEmIterations)) {
  QASCA_CHECK(strategy_ != nullptr);
  strategy_->AttachTelemetry(&telemetry_);
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(config_.num_threads);
    pool_->AttachTelemetry(&telemetry_);
  }
  strategy_->PrepareForQc(database_, config_.metric);
}

util::StatusOr<AssignmentCore::Decision> AssignmentCore::Decide(
    WorkerId worker, DecisionProvenance* provenance) {
  std::vector<QuestionIndex>& candidates = candidates_;
  database_.CandidatesFor(worker, &candidates);
  const int k = config_.questions_per_hit;
  if (static_cast<int>(candidates.size()) < k) {
    return util::Status::NotFound(
        "fewer than k unassigned questions remain for this worker");
  }

  StrategyContext context;
  context.database = &database_;
  context.metric = &config_.metric;
  const WorkerModel& model = ModelFor(worker);
  context.worker_model = &model;
  if (strategy_->ReadsTypicalWorker()) {
    context.typical_worker = &TypicalWorker();
  }
  context.rng = &rng_;
  context.pool = pool_.get();
  context.telemetry = &telemetry_;
  context.provenance = provenance;

  Decision decision;
  decision.questions = strategy_->SelectQuestions(context, candidates, k);
  decision.candidates = static_cast<int>(candidates.size());

  // Every HIT leaving the core must be exactly k distinct in-range
  // questions, and each must come from the candidate set the strategy was
  // given. Always on: a malformed HIT reaching the platform corrupts the
  // answer set silently.
  QASCA_CHECK_OK(invariants::CheckAssignment(decision.questions, k,
                                             config_.num_questions));
#if QASCA_ENABLE_DCHECKS
  // CandidatesFor returns ascending indices, so membership is a binary
  // search — O(k log n) instead of the O(k n) linear scan that used to
  // dominate debug-build latency measurements.
  QASCA_DCHECK(std::is_sorted(candidates.begin(), candidates.end()));
  for (QuestionIndex question : decision.questions) {
    QASCA_DCHECK(
        std::binary_search(candidates.begin(), candidates.end(), question))
        << "strategy selected question " << question
        << " outside the candidate set";
  }
#endif
  if (provenance != nullptr) {
    provenance->candidates = decision.candidates;
    provenance->em_generation =
        static_cast<uint64_t>(em_full_refits_counter_->value());
  }
  return decision;
}

void AssignmentCore::CommitAssignment(
    WorkerId worker, const std::vector<QuestionIndex>& questions) {
  database_.MarkAssigned(worker, questions);
}

void AssignmentCore::ReleaseAssignment(
    WorkerId worker, const std::vector<QuestionIndex>& questions) {
  database_.Unassign(worker, questions);
}

void AssignmentCore::ApplyCompletion(
    WorkerId worker, const std::vector<QuestionIndex>& questions,
    const std::vector<LabelIndex>& labels) {
  QASCA_CHECK_EQ(questions.size(), labels.size());
  // Step A: update the answer set D.
  for (size_t q = 0; q < questions.size(); ++q) {
    database_.RecordAnswer(questions[q], worker, labels[q]);
  }
  answers_recorded_counter_->Add(static_cast<int64_t>(questions.size()));
  ++completions_since_refit_;

  // Steps B + C: re-estimate the parameters and refresh Qc. A full EM refit
  // is the dominant per-completion cost at scale, and only the k touched
  // rows' answer sets changed — so between scheduled refits we keep the
  // fitted worker models and prior frozen and re-derive just those rows
  // (Eq. 5). The first fit is always full: before it, the fallback model is
  // a perfect worker and a Bayes update under it would drive rows to 0/1
  // certainty that EM would never assert.
  const bool can_refresh_incrementally =
      config_.em_refresh_interval > 1 &&
      !database_.parameters().workers.empty();
  if (can_refresh_incrementally) {
    util::Span refresh_span(&telemetry_,
                            util::tnames::kSpanIncrementalRefresh);
    // Applied even on a completion that triggers a scheduled refit, so the
    // refit's drift invariant compares a fully-updated incremental Qc —
    // never one stale by this HIT's k new answers.
    const EmResult& parameters = database_.parameters();
    std::vector<double> row;
    row.reserve(static_cast<size_t>(config_.num_labels));
    // Eq. 5 under the frozen models: the same AnswerProbability doubles,
    // multiplied in the same order, as perfbench's table-based leaf rung
    // (PosteriorTest pins the two routines bit-identical).
    const WorkerModelLookup models =
        [&parameters](WorkerId w) -> const WorkerModel& {
      return parameters.WorkerFor(w);
    };
    for (QuestionIndex question : questions) {
      ComputePosteriorRowInto(
          database_.answers()[static_cast<size_t>(question)],
          parameters.prior, models, &row);
      // Always on: an incremental row is the only writer of Qc between
      // refits, so a denormalised one corrupts every later assignment
      // decision without crashing.
      QASCA_CHECK_OK(invariants::CheckDistributionRow(row));
      database_.UpdatePosteriorRow(question, row);
    }
    posterior_row_updates_counter_->Add(
        static_cast<int64_t>(questions.size()));
    incremental_since_refit_ = true;
  }
  if (!can_refresh_incrementally ||
      completions_since_refit_ >= config_.em_refresh_interval) {
    RunFullEmRefit();
  } else {
    em_incremental_refreshes_counter_->Add(1);
    strategy_->PrepareForQc(database_, config_.metric);
  }
}

void AssignmentCore::ForceFullEmRefit() { RunFullEmRefit(); }

void AssignmentCore::WarmSharedState() {
  if (strategy_->ReadsTypicalWorker()) (void)TypicalWorker();
}

void AssignmentCore::RunFullEmRefit() {
  util::Span span(&telemetry_, util::tnames::kSpanEmFullRefit);
  EmResult fit =
      config_.warm_start_em
          ? RunEmWarmStart(database_.answers(), config_.num_labels,
                           config_.em, database_.parameters(), pool_.get(),
                           em_iterations_counter_)
          : RunEm(database_.answers(), config_.num_labels, config_.em,
                  pool_.get(), em_iterations_counter_);
  if (incremental_since_refit_) {
    // Always-on incremental-agreement invariant: the Qc the incremental
    // path maintained (still current until the fit replaces it) must agree
    // with the full refit within the configured tolerance. A violation
    // means the incremental updates diverged from the model (stale rows,
    // wrong parameters), not floating-point noise.
    const DistributionMatrix& refit = fit.posterior;
    const DistributionMatrix& incremental = database_.current();
    double drift = 0.0;
    for (int i = 0; i < refit.num_questions(); ++i) {
      for (int j = 0; j < refit.num_labels(); ++j) {
        drift = std::max(drift,
                         std::fabs(refit.At(i, j) - incremental.At(i, j)));
      }
    }
    max_refresh_drift_ = std::max(max_refresh_drift_, drift);
    last_refresh_drift_gauge_->Set(drift);
    QASCA_CHECK(drift <= config_.em_drift_tolerance)
        << "incremental Qc drifted" << drift << "from the full EM refit"
        << "(tolerance" << config_.em_drift_tolerance << ")";
  }
  database_.SetParameters(std::move(fit));
  // The refreshed Qc is what every later assignment decision reads; a
  // denormalised row here corrupts all of them without crashing.
  QASCA_DCHECK_OK(invariants::CheckDistributionMatrix(database_.current()));
  em_full_refits_counter_->Add(1);
  completions_since_refit_ = 0;
  incremental_since_refit_ = false;
  // The fitted worker pool changed; the cached typical worker is stale.
  typical_worker_.reset();
  strategy_->PrepareForQc(database_, config_.metric);
}

ResultVector AssignmentCore::CurrentResults() const {
  return metric_->OptimalResult(database_.current());
}

double AssignmentCore::QualityAgainstTruth(
    const GroundTruthVector& truth) const {
  return metric_->EvaluateAgainstTruth(truth, CurrentResults());
}

const WorkerModel& AssignmentCore::ModelFor(WorkerId worker) const {
  return database_.parameters().WorkerFor(worker);
}

const WorkerModel& AssignmentCore::TypicalWorker() {
  if (!typical_worker_.has_value()) {
    typical_worker_ = ComputeTypicalWorker();
  }
  return *typical_worker_;
}

WorkerModel AssignmentCore::ComputeTypicalWorker() const {
  const auto& workers = database_.parameters().workers;
  if (workers.empty()) {
    return WorkerModel::Wp(0.75, config_.num_labels);
  }
  // Fold worker qualities in ascending-id order: the mean feeds assignment
  // decisions through the typical-worker model, so its floating-point
  // association must not depend on unordered_map bucket layout (determinism
  // pass, tools/analyze.py).
  std::vector<WorkerId> ids;
  ids.reserve(workers.size());
  for (const auto& [id, model] : workers) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  double total_quality = 0.0;
  for (WorkerId id : ids) {
    std::vector<double> cm = workers.at(id).AsConfusionMatrix();
    double diagonal = 0.0;
    for (int j = 0; j < config_.num_labels; ++j) {
      diagonal += cm[static_cast<size_t>(j) * config_.num_labels + j];
    }
    total_quality += diagonal / config_.num_labels;
  }
  return WorkerModel::Wp(
      std::clamp(total_quality / static_cast<double>(workers.size()), 0.0,
                 1.0),
      config_.num_labels);
}

}  // namespace qasca
