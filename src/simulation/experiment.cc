#include "simulation/experiment.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "baselines/askit.h"
#include "baselines/cdas.h"
#include "baselines/exp_loss.h"
#include "baselines/max_margin.h"
#include "baselines/random_strategy.h"
#include "platform/qasca_strategy.h"
#include "util/logging.h"

namespace qasca {
namespace {

// The real quality improvement of optimal result selection over the
// argmax-label rule at the current state (Eq. 21); 0 for Accuracy, where the
// two coincide (Theorem 1).
double ResultSelectionGain(const TaskAssignmentEngine& engine,
                           const GroundTruthVector& truth) {
  if (engine.config().metric.kind != MetricSpec::Kind::kFScore) return 0.0;
  const DistributionMatrix& qc = engine.database().current();
  ResultVector optimal = engine.metric().OptimalResult(qc);
  ResultVector argmax(qc.num_questions());
  for (int i = 0; i < qc.num_questions(); ++i) argmax[i] = qc.ArgMaxLabel(i);
  return engine.metric().EvaluateAgainstTruth(truth, optimal) -
         engine.metric().EvaluateAgainstTruth(truth, argmax);
}

double EstimationDeviation(const TaskAssignmentEngine& engine,
                           const std::vector<SimulatedWorker>& pool) {
  const auto& fitted = engine.database().parameters().workers;
  if (fitted.empty()) return 0.0;
  // Summed in ascending id order, so the mean does not depend on the
  // fitted map's bucket layout.
  std::vector<WorkerId> ids;
  ids.reserve(fitted.size());
  for (const auto& [id, model] : fitted) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  double total = 0.0;
  for (WorkerId id : ids) {
    QASCA_CHECK_GE(id, 0);
    QASCA_CHECK_LT(static_cast<size_t>(id), pool.size());
    total += fitted.at(id).Deviation(pool[id].latent);
  }
  return total / static_cast<double>(ids.size());
}

}  // namespace

std::vector<SystemFactory> DefaultSystems() {
  return {
      {"Baseline", [] { return std::make_unique<RandomStrategy>(); }},
      {"CDAS", [] { return std::make_unique<CdasStrategy>(); }},
      {"AskIt!", [] { return std::make_unique<AskItStrategy>(); }},
      {"QASCA", [] { return std::make_unique<QascaStrategy>(); }},
      {"MaxMargin", [] { return std::make_unique<MaxMarginStrategy>(); }},
      {"ExpLoss", [] { return std::make_unique<ExpLossStrategy>(); }},
  };
}

ExperimentResult RunParallelExperiment(
    const ApplicationSpec& spec, const std::vector<SystemFactory>& systems,
    const ExperimentOptions& options) {
  QASCA_CHECK(!systems.empty());
  util::Rng world_rng(options.seed);
  util::Rng arrival_rng = world_rng.Fork();
  util::Rng answer_rng = world_rng.Fork();

  ExperimentResult result;
  result.spec = spec;
  result.truth = GenerateGroundTruth(spec, world_rng);
  result.difficulty = GenerateQuestionDifficulty(spec, world_rng);
  std::vector<SimulatedWorker> pool =
      GenerateWorkerPool(spec.workers, world_rng);

  // One isolated engine per system; each gets its own derived seed so
  // internal sampling streams are independent.
  std::vector<std::unique_ptr<TaskAssignmentEngine>> engines;
  for (size_t s = 0; s < systems.size(); ++s) {
    engines.push_back(std::make_unique<TaskAssignmentEngine>(
        MakeAppConfig(spec), systems[s].make(),
        options.seed * 7919 + 31 * s + 1));
    result.systems.push_back(SystemTrace{});
    result.systems.back().name = systems[s].name;
  }

  const int total_hits = spec.TotalHits();
  const int k = spec.questions_per_hit;
  const int checkpoint_every =
      std::max(1, total_hits / std::max(1, options.checkpoints));

  // A worker answers a given question the same way in every system — the
  // paper batches all systems' picks into one physical HIT.
  std::unordered_map<int64_t, LabelIndex> answer_cache;
  auto answer_for = [&](const SimulatedWorker& worker, QuestionIndex q) {
    int64_t key =
        static_cast<int64_t>(worker.id) * spec.num_questions + q;
    auto it = answer_cache.find(key);
    if (it != answer_cache.end()) return it->second;
    LabelIndex label = worker.AnswerQuestion(result.truth[q], answer_rng,
                                             result.difficulty[q]);
    answer_cache.emplace(key, label);
    return label;
  };

  auto record_checkpoint = [&](int completed) {
    for (size_t s = 0; s < engines.size(); ++s) {
      SystemTrace& trace = result.systems[s];
      trace.completed_hits.push_back(completed);
      trace.quality.push_back(
          engines[s]->QualityAgainstTruth(result.truth));
      if (options.track_estimation_deviation) {
        trace.estimation_deviation.push_back(
            EstimationDeviation(*engines[s], pool));
      }
      trace.result_selection_gain +=
          ResultSelectionGain(*engines[s], result.truth);
    }
  };

  // HITs served per worker; every system assigns the same worker the same
  // number of questions, so one counter per worker bounds S^w for all.
  std::vector<int> hits_served(pool.size(), 0);
  int checkpoints_recorded = 0;
  record_checkpoint(0);
  ++checkpoints_recorded;

  for (int round = 0; round < total_hits; ++round) {
    // Sample an arriving worker who still has >= k candidate questions.
    const SimulatedWorker* worker = nullptr;
    for (int attempt = 0; attempt < 10 * static_cast<int>(pool.size());
         ++attempt) {
      const SimulatedWorker& candidate =
          pool[arrival_rng.UniformInt(static_cast<int>(pool.size()))];
      if (spec.num_questions - k * (hits_served[candidate.id] + 1) >= 0) {
        worker = &candidate;
        break;
      }
    }
    QASCA_CHECK(worker != nullptr) << "no worker with remaining capacity";
    ++hits_served[worker->id];

    for (auto& engine : engines) {
      util::StatusOr<std::vector<QuestionIndex>> hit =
          engine->RequestHit(worker->id);
      QASCA_CHECK(hit.ok()) << hit.status().ToString();
      std::vector<LabelIndex> labels;
      labels.reserve(hit->size());
      for (QuestionIndex q : *hit) labels.push_back(answer_for(*worker, q));
      util::Status status = engine->CompleteHit(worker->id, labels);
      QASCA_CHECK(status.ok()) << status.ToString();
    }

    bool last_round = round + 1 == total_hits;
    if ((round + 1) % checkpoint_every == 0 || last_round) {
      record_checkpoint(round + 1);
      ++checkpoints_recorded;
    }
  }

  for (size_t s = 0; s < engines.size(); ++s) {
    SystemTrace& trace = result.systems[s];
    trace.final_quality = trace.quality.back();
    trace.max_assignment_seconds = engines[s]->max_assignment_seconds();
    trace.result_selection_gain /= checkpoints_recorded;
  }
  return result;
}

}  // namespace qasca
