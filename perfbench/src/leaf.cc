#include "leaf.h"

#include <optional>

#include "core/assignment/fscore_online.h"
#include "core/assignment/topk_benefit.h"
#include "model/em.h"
#include "model/posterior.h"
#include "replay.h"
#include "util/logging.h"

namespace perfbench {
namespace {

// Probe sampling: one request in kProbeRequestEvery, one refit in
// kProbeRefitEvery, keeps the probes' extra cost to a fraction of a pass.
constexpr int kProbeRequestEvery = 4;
constexpr int kProbeRefitEvery = 4;
constexpr int kProbeThreads = 4;

}  // namespace

LeafTarget::LeafTarget(const qasca::AppConfig& config, uint64_t seed,
                       LeafTimes* times, bool probe)
    : config_(ShellConfig(config)),
      database_(config_.num_questions, config_.num_labels),
      rng_(seed),
      times_(times),
      probe_(probe) {
  QASCA_CHECK(config_.metric.kind != qasca::MetricSpec::Kind::kCostAccuracy)
      << "the leaf rung composes Accuracy* and F-score* only";
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<qasca::util::ThreadPool>(config_.num_threads);
  } else if (probe_) {
    probe_pool_ = std::make_unique<qasca::util::ThreadPool>(kProbeThreads);
  }
}

const qasca::WorkerLikelihoods& LeafTarget::Likelihoods(WorkerId worker) {
  auto it = likelihoods_.find(worker);
  if (it == likelihoods_.end()) {
    it = likelihoods_
             .emplace(worker, qasca::WorkerLikelihoods::FromModel(
                                  database_.parameters().WorkerFor(worker)))
             .first;
  }
  return it->second;
}

qasca::util::StatusOr<std::vector<QuestionIndex>> LeafTarget::Request(
    WorkerId worker) {
  const int k = config_.questions_per_hit;
  Clock::time_point start = Clock::now();
  std::vector<QuestionIndex> candidates = database_.CandidatesFor(worker);
  times_->candidates_ms.push_back(MsSince(start));
  times_->candidates.push_back(static_cast<int>(candidates.size()));
  if (static_cast<int>(candidates.size()) < k) {
    return qasca::util::Status::NotFound("fewer than k candidates");
  }

  const bool probe = probe_ && requests_++ % kProbeRequestEvery == 0;
  std::optional<qasca::util::Rng> probe_rng;
  if (probe) probe_rng.emplace(rng_);
  const bool accuracy =
      config_.metric.kind == qasca::MetricSpec::Kind::kAccuracy;
  const qasca::DistributionMatrix& qc = database_.current();
  const qasca::WorkerModel& model = database_.parameters().WorkerFor(worker);
  start = Clock::now();
  const qasca::WorkerLikelihoods& likelihoods = Likelihoods(worker);
  qasca::EstimateWorkerRowsInto(qc, model, likelihoods, candidates,
                                config_.qw_mode, rng_, &overlay_, pool_.get(),
                                nullptr, accuracy);
  const double qw_ms = MsSince(start);
  times_->qw_ms.push_back(qw_ms);

  qasca::AssignmentRequest request;
  request.current = &qc;
  request.estimated = &qc;
  request.overlay = &overlay_;
  request.candidates = std::move(candidates);
  request.k = k;
  request.pool = pool_.get();
  request.compute_objective = false;
  qasca::AssignmentResult result;
  start = Clock::now();
  if (accuracy) {
    result = qasca::AssignTopKBenefit(request);
    times_->topk_ms.push_back(MsSince(start));
  } else {
    qasca::FScoreAssignmentOptions options;
    options.alpha = config_.metric.alpha;
    options.target_label = config_.metric.target_label;
    options.warm_start = true;
    result = qasca::AssignFScoreOnline(request, options);
    times_->dinkelbach_ms.push_back(MsSince(start));
    times_->dinkelbach_iters.push_back(result.inner_iterations);
  }
  database_.MarkAssigned(worker, result.selected);

  if (probe) {
    qasca::util::ThreadPool* other = probe_pool_.get();
    start = Clock::now();
    qasca::EstimateWorkerRowsInto(qc, model, likelihoods, request.candidates,
                                  config_.qw_mode, *probe_rng, &probe_overlay_,
                                  other, nullptr, accuracy);
    const double other_qw_ms = MsSince(start);
    (other == nullptr ? times_->qw_serial_ms : times_->qw_pooled_ms)
        .push_back(other_qw_ms);
    (other == nullptr ? times_->qw_pooled_ms : times_->qw_serial_ms)
        .push_back(qw_ms);
    if (accuracy) {
      start = Clock::now();
      const qasca::AssignmentResult whatif = qasca::AssignFScoreOnline(
          request, qasca::FScoreAssignmentOptions());
      times_->whatif_dinkelbach_ms.push_back(MsSince(start));
      times_->whatif_dinkelbach_iters.push_back(whatif.inner_iterations);

      const double topk_ms = times_->topk_ms.back();
      request.pool = other;
      start = Clock::now();
      qasca::AssignmentResult again = qasca::AssignTopKBenefit(request);
      const double other_topk_ms = MsSince(start);
      QASCA_CHECK(again.selected == result.selected);
      (other == nullptr ? times_->topk_serial_ms : times_->topk_pooled_ms)
          .push_back(other_topk_ms);
      (other == nullptr ? times_->topk_pooled_ms : times_->topk_serial_ms)
          .push_back(topk_ms);
    } else {
      start = Clock::now();
      qasca::AssignTopKBenefit(request);
      times_->whatif_topk_ms.push_back(MsSince(start));
    }
  }
  return std::move(result.selected);
}

std::vector<qasca::util::StatusOr<std::vector<QuestionIndex>>>
LeafTarget::Batch(const std::vector<WorkerId>& workers) {
  std::vector<qasca::util::StatusOr<std::vector<QuestionIndex>>> results;
  results.reserve(workers.size());
  for (WorkerId worker : workers) results.push_back(Request(worker));
  return results;
}

qasca::util::Status LeafTarget::Complete(
    WorkerId worker, const std::vector<QuestionIndex>& questions,
    const std::vector<LabelIndex>& labels) {
  for (size_t q = 0; q < questions.size(); ++q) {
    database_.RecordAnswer(questions[q], worker, labels[q]);
  }
  times_->refit_flags.push_back(0);
  ++completions_since_refit_;
  const bool incremental = config_.em_refresh_interval > 1 &&
                           !database_.parameters().workers.empty();
  const qasca::EmResult& parameters = database_.parameters();
  qasca::LikelihoodLookup lookup =
      [this](WorkerId w) -> const qasca::WorkerLikelihoods& {
    return Likelihoods(w);
  };
  if (incremental) {
    const Clock::time_point start = Clock::now();
    for (QuestionIndex question : questions) {
      qasca::ComputePosteriorRowWithLikelihoods(
          database_.answers()[static_cast<size_t>(question)], parameters.prior,
          lookup, &row_);
      database_.UpdatePosteriorRow(question, row_);
    }
    times_->refresh_ms.push_back(MsSince(start));
  } else if (probe_ && !parameters.workers.empty() &&
             completions_++ % kProbeRequestEvery == 0) {
    // What the incremental path would cost here; the rows are discarded.
    const Clock::time_point start = Clock::now();
    for (QuestionIndex question : questions) {
      qasca::ComputePosteriorRowWithLikelihoods(
          database_.answers()[static_cast<size_t>(question)], parameters.prior,
          lookup, &row_);
    }
    times_->whatif_refresh_ms.push_back(MsSince(start));
  }
  if (!incremental || completions_since_refit_ >= config_.em_refresh_interval) {
    const bool probe = probe_ && refits_++ % kProbeRefitEvery == 0;
    const Clock::time_point start = Clock::now();
    qasca::EmResult fit =
        config_.warm_start_em
            ? qasca::RunEmWarmStart(database_.answers(), config_.num_labels,
                                    config_.em, database_.parameters(),
                                    pool_.get(), nullptr)
            : qasca::RunEm(database_.answers(), config_.num_labels, config_.em,
                           pool_.get(), nullptr);
    const int iterations = fit.iterations;
    database_.SetParameters(std::move(fit));
    const double refit_ms = MsSince(start);
    times_->refit_ms.push_back(refit_ms);
    times_->refit_flags.back() = 1;
    times_->em_iterations.push_back(iterations);
    likelihoods_.clear();
    completions_since_refit_ = 0;
    if (probe && !config_.warm_start_em) {
      qasca::util::ThreadPool* other = probe_pool_.get();
      const Clock::time_point again = Clock::now();
      qasca::EmResult refit = qasca::RunEm(
          database_.answers(), config_.num_labels, config_.em, other, nullptr);
      const double other_ms = MsSince(again);
      QASCA_CHECK_EQ(refit.iterations, iterations);
      (other == nullptr ? times_->em_serial_ms : times_->em_pooled_ms)
          .push_back(other_ms);
      (other == nullptr ? times_->em_pooled_ms : times_->em_serial_ms)
          .push_back(refit_ms);
    }
  }
  return qasca::util::Status::Ok();
}

qasca::util::StatusOr<int> LeafTarget::Tick(
    const std::vector<std::pair<WorkerId, const std::vector<QuestionIndex>*>>&
        expiring) {
  for (const auto& [worker, questions] : expiring) {
    database_.Unassign(worker, *questions);
  }
  return static_cast<int>(expiring.size());
}

}  // namespace perfbench
