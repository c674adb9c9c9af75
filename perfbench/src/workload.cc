#include "workload.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using qasca::AppConfig;
using qasca::ApplicationSpec;
using qasca::util::Rng;

// Seed-derivation domains, so the streams of one app never overlap.
constexpr uint64_t kDecisionDomain = 1;
constexpr uint64_t kDataDomain = 2;
constexpr uint64_t kScriptDomain = 3;
constexpr uint64_t kAnswerDomain = 4;

// Scripts are generated in chunks of kChunkSlots HITs, each chunk from its
// own seed (the CAFExp simulate_processes pattern): a chunk never depends on
// how many random draws an earlier chunk took. Fault and batch counts are
// exact per chunk, so every seed gets the same mix.
constexpr int kChunkSlots = 200;
constexpr int kBatchSize = 4;

// pool_1e5: the hot-path crowd of bench/bench_hotpath_scaling.cc.
constexpr int kPoolQuestions = 100000;
constexpr int kPoolWorkers = 30;
constexpr int kPoolWarmupHits = 16;
constexpr int kPoolTimedHits = 240;

constexpr int kErCopies = 4;

struct ScriptShape {
  int completions = 0;
  int warmup_steps = 0;
  /// Exact counts per kChunkSlots HITs (scaled down in the last chunk).
  int abandons_per_chunk = 0;
  int duplicates_per_chunk = 0;
  int batches_per_chunk = 0;
  /// Workers take turns in id order instead of arriving at random.
  bool round_robin = false;
};

// Marks `count` of the first `population` entries of `flags`, at random.
void MarkRandom(qasca::util::Rng& rng, int population, int count,
                std::vector<uint8_t>* flags) {
  for (int i : rng.SampleWithoutReplacement(population, count)) {
    (*flags)[static_cast<size_t>(i)] = 1;
  }
}

void BuildScript(const ScriptShape& shape, uint64_t script_seed, App* app) {
  using Kind = Event::Kind;
  const int num_workers = static_cast<int>(app->crowd.size());
  QASCA_CHECK_GE(num_workers, kBatchSize);
  int completed = 0;
  int steps_done = 0;
  for (int chunk = 0; completed < shape.completions; ++chunk) {
    Rng rng(MixSeed(script_seed, static_cast<uint64_t>(chunk)));
    const int remaining = shape.completions - completed;
    int slots = kChunkSlots;
    int abandons = shape.abandons_per_chunk;
    int duplicates = shape.duplicates_per_chunk;
    int batches = shape.batches_per_chunk;
    const bool last = slots - abandons >= remaining;
    if (last) {
      const double scale =
          remaining / static_cast<double>(kChunkSlots - abandons);
      abandons = static_cast<int>(std::lround(abandons * scale));
      duplicates = static_cast<int>(std::lround(duplicates * scale));
      batches = static_cast<int>(std::lround(batches * scale));
      slots = remaining + abandons;
    }
    const int steps = slots - (kBatchSize - 1) * batches;
    // The budget affords exactly `completions` HITs and every HIT of a step
    // is assigned before any resolves, so the last chunk ends with four
    // single HITs that complete.
    const int tail = last ? kBatchSize : 0;
    QASCA_CHECK_GE(steps - tail, batches);
    std::vector<uint8_t> batch_step(static_cast<size_t>(steps), 0);
    MarkRandom(rng, steps - tail, batches, &batch_step);
    std::vector<uint8_t> abandon(static_cast<size_t>(slots), 0);
    MarkRandom(rng, slots - tail, abandons, &abandon);
    std::vector<int> kept;
    for (int i = 0; i < slots; ++i) {
      if (!abandon[static_cast<size_t>(i)]) kept.push_back(i);
    }
    std::vector<uint8_t> kept_duplicate(kept.size(), 0);
    MarkRandom(rng, static_cast<int>(kept.size()), duplicates, &kept_duplicate);
    std::vector<uint8_t> duplicate(static_cast<size_t>(slots), 0);
    for (size_t i = 0; i < kept.size(); ++i) {
      duplicate[static_cast<size_t>(kept[i])] = kept_duplicate[i];
    }

    int local = 0;  // slot index within the chunk
    std::vector<WorkerId> step_workers;
    for (int step = 0; step < steps; ++step, ++steps_done) {
      if (steps_done == shape.warmup_steps) {
        app->warmup_events = app->events.size();
      }
      const bool batch = batch_step[static_cast<size_t>(step)] != 0;
      const int size = batch ? kBatchSize : 1;
      step_workers.clear();
      while (static_cast<int>(step_workers.size()) < size) {
        const WorkerId worker =
            shape.round_robin
                ? static_cast<WorkerId>(app->slots.size() % num_workers)
                : rng.UniformInt(num_workers);
        if (std::find(step_workers.begin(), step_workers.end(), worker) ==
            step_workers.end()) {
          step_workers.push_back(worker);
        }
      }
      const int first = static_cast<int>(app->slots.size());
      int abandoned = 0;
      for (WorkerId worker : step_workers) {
        Slot slot;
        slot.worker = worker;
        slot.abandon = abandon[static_cast<size_t>(local)] != 0;
        slot.duplicate = duplicate[static_cast<size_t>(local)] != 0;
        ++local;
        abandoned += slot.abandon ? 1 : 0;
        app->slots.push_back(slot);
      }
      app->events.push_back(
          {batch ? Kind::kBatch : Kind::kRequest, first, size});
      app->requests += size;
      app->batches += batch ? 1 : 0;
      for (int i = first; i < first + size; ++i) {
        const Slot& slot = app->slots[static_cast<size_t>(i)];
        if (slot.abandon) continue;
        app->events.push_back({Kind::kComplete, i, 1});
        ++completed;
        if (slot.duplicate) {
          app->events.push_back({Kind::kDuplicate, i, 1});
          ++app->duplicates;
        }
      }
      if (abandoned > 0) {
        app->events.push_back({Kind::kTick, first, abandoned});
        for (int i = first; i < first + size; ++i) {
          if (app->slots[static_cast<size_t>(i)].abandon) {
            app->events.push_back({Kind::kLate, i, 1});
          }
        }
        app->abandons += abandoned;
      }
    }
    QASCA_CHECK_EQ(local, slots);
  }
  QASCA_CHECK_GT(steps_done, shape.warmup_steps);
  app->completions = completed;
}

}  // namespace

uint64_t MixSeed(uint64_t a, uint64_t b) {
  return qasca::util::SplitMix64(qasca::util::SplitMix64::MixSeed(a, b))
      .Next();
}

uint64_t FoldSelection(uint64_t hash, WorkerId worker,
                       const std::vector<QuestionIndex>& questions) {
  constexpr uint64_t kFnvPrime = 1099511628211ull;
  hash = (hash ^ (static_cast<uint64_t>(worker) + 1)) * kFnvPrime;
  for (QuestionIndex q : questions) {
    hash = (hash ^ (static_cast<uint64_t>(q) + 1)) * kFnvPrime;
  }
  return hash;
}

App PaperApp(const ApplicationSpec& spec, uint64_t seed, int index) {
  const uint64_t app_seed = MixSeed(seed, static_cast<uint64_t>(index));
  App app;
  app.name = spec.name;
  app.config = qasca::MakeAppConfig(spec);
  app.seed = MixSeed(app_seed, kDecisionDomain);
  Rng data(MixSeed(app_seed, kDataDomain));
  app.crowd = qasca::GenerateWorkerPool(spec.workers, data);
  app.truth = qasca::GenerateGroundTruth(spec, data);
  app.difficulty = qasca::GenerateQuestionDifficulty(spec, data);
  app.answer_seed = MixSeed(app_seed, kAnswerDomain);
  return app;
}

App PoolApp(int questions, int hits, const qasca::MetricSpec& metric,
            uint64_t seed) {
  const uint64_t app_seed = MixSeed(seed, 0);
  App app;
  app.name = "pool";
  AppConfig& config = app.config;
  config.num_questions = questions;
  config.num_labels = 2;
  config.questions_per_hit = 20;
  config.pay_per_hit = 0.02;
  config.budget = 0.02 * hits;
  config.metric = metric;
  config.worker_kind = qasca::WorkerModel::Kind::kWorkerProbability;
  config.em.worker_kind = config.worker_kind;
  config.em.max_iterations = 15;
  app.seed = MixSeed(app_seed, kDecisionDomain);
  Rng data(MixSeed(app_seed, kDataDomain));
  app.truth.resize(static_cast<size_t>(questions));
  for (LabelIndex& label : app.truth) label = data.UniformInt(2);
  app.difficulty.assign(static_cast<size_t>(questions), 0.0);
  // 25% wrong answers: every worker is a WP worker of quality 0.75.
  for (int w = 0; w < kPoolWorkers; ++w) {
    app.crowd.push_back(
        qasca::SimulatedWorker{w, qasca::WorkerModel::Wp(0.75, 2)});
  }
  app.answer_seed = MixSeed(app_seed, kAnswerDomain);
  return app;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload workload;
  if (name == "pool_1e5") {
    App app = PoolApp(kPoolQuestions, kPoolWarmupHits + kPoolTimedHits,
                      qasca::MetricSpec::Accuracy(), seed);
    app.config.name = "pool_1e5";
    app.config.em_refresh_interval = 8;
    app.config.num_threads = 4;
    ScriptShape shape;
    shape.completions = kPoolWarmupHits + kPoolTimedHits;
    shape.warmup_steps = kPoolWarmupHits;
    shape.round_robin = true;
    BuildScript(shape, MixSeed(MixSeed(seed, 0), kScriptDomain), &app);
    workload.apps.push_back(std::move(app));
  } else if (name == "er_fscore") {
    // Four independent copies of the ER app, one client each. A single
    // client thread's speed moved by up to 30% between quiet and busy
    // periods of a shared 4-core host, four clients' by under 10%; four
    // copies also average the seed-to-seed spread of quality and EM cost.
    const ApplicationSpec spec = qasca::EntityResolutionApp();
    for (int index = 0; index < kErCopies; ++index) {
      App app = PaperApp(spec, seed, index);
      app.name = "ER" + std::to_string(index);
      ScriptShape shape;
      shape.completions = spec.TotalHits();
      shape.warmup_steps = 60;
      BuildScript(shape,
                  MixSeed(MixSeed(seed, static_cast<uint64_t>(index)),
                          kScriptDomain),
                  &app);
      workload.apps.push_back(std::move(app));
    }
  } else if (name == "serve_4app") {
    workload.persistence = true;
    const std::vector<ApplicationSpec> paper = qasca::PaperApplications();
    int index = 0;
    for (const ApplicationSpec& spec : paper) {
      if (spec.name == "ER") continue;  // FS, SA, PSA, NSA
      App app = PaperApp(spec, seed, index);
      app.config.lease_timeout_ticks = 1;
      ScriptShape shape;
      shape.completions = spec.TotalHits();
      shape.warmup_steps = 100;
      // Per 200 HITs: 10 abandoned (5%), 4 of the 190 completions
      // redelivered (2%), 5 batches of 4 (10% of requests).
      shape.abandons_per_chunk = 10;
      shape.duplicates_per_chunk = 4;
      shape.batches_per_chunk = 5;
      BuildScript(shape,
                  MixSeed(MixSeed(seed, static_cast<uint64_t>(index)),
                          kScriptDomain),
                  &app);
      workload.apps.push_back(std::move(app));
      ++index;
    }
  } else {
    return false;
  }
  for (const App& app : workload.apps) {
    for (size_t w = 0; w < app.crowd.size(); ++w) {
      QASCA_CHECK_EQ(app.crowd[w].id, static_cast<WorkerId>(w));
    }
    QASCA_CHECK_EQ(app.completions, app.config.TotalHits());
  }
  *out = std::move(workload);
  return true;
}

std::vector<LabelIndex> Answers(const App& app, WorkerId worker,
                                const std::vector<QuestionIndex>& questions) {
  const qasca::SimulatedWorker& simulated =
      app.crowd[static_cast<size_t>(worker)];
  const uint64_t worker_seed =
      MixSeed(app.answer_seed, static_cast<uint64_t>(worker));
  std::vector<LabelIndex> labels;
  labels.reserve(questions.size());
  for (QuestionIndex q : questions) {
    Rng rng(MixSeed(worker_seed, static_cast<uint64_t>(q)));
    labels.push_back(simulated.AnswerQuestion(
        app.truth[static_cast<size_t>(q)], rng,
        app.difficulty[static_cast<size_t>(q)]));
  }
  return labels;
}

std::vector<LabelIndex> LateAnswers(const App& app, WorkerId worker,
                                    const std::vector<QuestionIndex>& questions,
                                    const std::vector<LabelIndex>& previous) {
  std::vector<LabelIndex> labels = Answers(app, worker, questions);
  if (labels == previous && !labels.empty()) {
    labels[0] = (labels[0] + 1) % app.config.num_labels;
  }
  return labels;
}

}  // namespace perfbench
