#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "platform/engine.h"
#include "platform/qasca_strategy.h"

namespace qasca {
namespace {

// The PR 2 determinism contract: AppConfig::num_threads parallelises the
// hot kernels but must never change a single assignment decision. These
// tests drive full engine runs at 1, 2 and 8 threads with identical inputs
// and assert byte-identical outcomes — selected HITs, fitted EM parameters,
// the final Qc and the final quality — across both worker-model kinds and
// both assignment engines (Top-K Benefit for Accuracy*, Dinkelbach for
// F-score*).

// Deterministic pseudo-noisy worker: the answer depends only on (worker,
// question, truth), so every engine configuration replays the identical
// answer stream. ~25% of answers are wrong.
LabelIndex SimulatedAnswer(WorkerId worker, QuestionIndex question,
                           LabelIndex truth, int num_labels) {
  uint64_t h = (static_cast<uint64_t>(worker) * 1000003u +
                static_cast<uint64_t>(question) + 1) *
               0x9e3779b97f4a7c15ull;
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  if (h % 100 < 25) {
    return static_cast<LabelIndex>(
        (static_cast<uint64_t>(truth) + 1 + h % (num_labels - 1)) %
        num_labels);
  }
  return truth;
}

// Everything observable about one engine run, in comparable form.
struct RunRecord {
  std::vector<QuestionIndex> selections;  // every selected question, in order
  std::vector<double> qc;                 // final Qc, row-major
  std::vector<double> prior;
  // Worker models in WorkerId order, flattened to confusion matrices so WP
  // and CM compare through the same representation.
  std::map<WorkerId, std::vector<double>> workers;
  double quality = 0.0;
  double last_drift = 0.0;
  int full_refits = 0;
  int incremental = 0;
};

// gtest ASSERTs require a void function, so the record comes back through
// an out-parameter.
void RunEngine(const MetricSpec& metric, WorkerModel::Kind kind,
               int num_threads, int em_refresh_interval,
               bool force_final_refit, RunRecord* record_out,
               bool telemetry_enabled = false,
               bool observability_enabled = false) {
  AppConfig config;
  config.name = "determinism";
  config.num_questions = 36;
  config.num_labels = 2;
  config.questions_per_hit = 4;
  config.pay_per_hit = 0.02;
  config.budget = 0.02 * 24;  // 24 HITs
  config.metric = metric;
  config.worker_kind = kind;
  config.em.max_iterations = 15;
  config.num_threads = num_threads;
  config.em_refresh_interval = em_refresh_interval;
  config.telemetry_enabled = telemetry_enabled;
  if (observability_enabled) {
    // The full PR 8 observability stack: flight recorder, decision
    // provenance and the SLO tracker, all live at once.
    config.flight_recorder_enabled = true;
    config.flight_recorder_capacity = 4096;
    config.provenance_enabled = true;
    config.provenance_capacity = 64;
    config.slo_p95_assign_ms = 5.0;
    config.latency_window_samples = 64;
  }

  GroundTruthVector truth(config.num_questions);
  for (int q = 0; q < config.num_questions; ++q) {
    truth[q] = q % config.num_labels;
  }

  TaskAssignmentEngine engine(config, std::make_unique<QascaStrategy>(),
                              /*seed=*/7);
  RunRecord record;
  int round = 0;
  while (!engine.BudgetExhausted()) {
    const WorkerId worker = round++ % 6;
    auto hit = engine.RequestHit(worker);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    std::vector<LabelIndex> labels;
    labels.reserve(hit->size());
    for (QuestionIndex q : *hit) {
      record.selections.push_back(q);
      labels.push_back(
          SimulatedAnswer(worker, q, truth[q], config.num_labels));
    }
    ASSERT_TRUE(engine.CompleteHit(worker, labels).ok());
  }
  if (force_final_refit) {
    engine.ForceFullEmRefit();
  }

  const DistributionMatrix& qc = engine.database().current();
  for (int i = 0; i < qc.num_questions(); ++i) {
    for (int j = 0; j < qc.num_labels(); ++j) {
      record.qc.push_back(qc.At(i, j));
    }
  }
  const EmResult& parameters = engine.database().parameters();
  record.prior = parameters.prior;
  for (const auto& [id, model] : parameters.workers) {
    record.workers[id] = model.AsConfusionMatrix();
  }
  record.quality = engine.QualityAgainstTruth(truth);
  record.last_drift = engine.last_refresh_drift();
  record.full_refits = engine.full_em_refits();
  record.incremental = engine.incremental_refreshes();
  *record_out = std::move(record);
}

RunRecord MustRun(const MetricSpec& metric, WorkerModel::Kind kind,
                  int num_threads, int em_refresh_interval,
                  bool force_final_refit = false,
                  bool telemetry_enabled = false,
                  bool observability_enabled = false) {
  RunRecord record;
  RunEngine(metric, kind, num_threads, em_refresh_interval,
            force_final_refit, &record, telemetry_enabled,
            observability_enabled);
  return record;
}

// Byte-identical comparison: EXPECT_EQ on doubles is exact equality, which
// is the contract — not a tolerance.
void ExpectIdentical(const RunRecord& a, const RunRecord& b,
                     const std::string& what) {
  EXPECT_EQ(a.selections, b.selections) << what << ": selected HITs differ";
  EXPECT_EQ(a.qc, b.qc) << what << ": final Qc differs";
  EXPECT_EQ(a.prior, b.prior) << what << ": fitted prior differs";
  EXPECT_EQ(a.workers, b.workers) << what << ": worker models differ";
  EXPECT_EQ(a.quality, b.quality) << what << ": final quality differs";
}

struct Scenario {
  std::string name;
  MetricSpec metric;
  WorkerModel::Kind kind;
};

std::vector<Scenario> AllScenarios() {
  return {
      {"accuracy/wp", MetricSpec::Accuracy(),
       WorkerModel::Kind::kWorkerProbability},
      {"accuracy/cm", MetricSpec::Accuracy(),
       WorkerModel::Kind::kConfusionMatrix},
      {"fscore/wp", MetricSpec::FScore(0.5, 0),
       WorkerModel::Kind::kWorkerProbability},
      {"fscore/cm", MetricSpec::FScore(0.5, 0),
       WorkerModel::Kind::kConfusionMatrix},
  };
}

TEST(DeterminismTest, ThreadCountNeverChangesDecisions) {
  for (const Scenario& s : AllScenarios()) {
    const RunRecord serial = MustRun(s.metric, s.kind, /*num_threads=*/1,
                                       /*em_refresh_interval=*/1, false);
    for (int threads : {2, 8}) {
      const RunRecord parallel = MustRun(s.metric, s.kind, threads,
                                           /*em_refresh_interval=*/1, false);
      ExpectIdentical(serial, parallel,
                      s.name + " @ " + std::to_string(threads) + " threads");
    }
    // Sanity: the run did something nontrivial.
    EXPECT_EQ(serial.selections.size(), 24u * 4u) << s.name;
    EXPECT_GT(serial.quality, 0.5) << s.name;
  }
}

TEST(DeterminismTest, ThreadCountNeverChangesIncrementalRuns) {
  // The incremental-refresh path must be just as thread-independent as the
  // full-refit path.
  for (const Scenario& s : AllScenarios()) {
    const RunRecord serial = MustRun(s.metric, s.kind, /*num_threads=*/1,
                                       /*em_refresh_interval=*/4, false);
    const RunRecord parallel = MustRun(s.metric, s.kind, /*num_threads=*/8,
                                         /*em_refresh_interval=*/4, false);
    ExpectIdentical(serial, parallel, s.name + " @ interval 4");
    EXPECT_GT(serial.incremental, 0) << s.name;
  }
}

TEST(DeterminismTest, IncrementalAgreesWithFullRefit) {
  // Between full refits the incremental path re-derives only the touched
  // posterior rows. Forcing a final full refit exercises the engine's
  // always-on agreement invariant (it aborts past em_drift_tolerance) and
  // lets us assert the measured drift is small in absolute terms too.
  for (const Scenario& s : AllScenarios()) {
    const RunRecord record = MustRun(s.metric, s.kind, /*num_threads=*/2,
                                       /*em_refresh_interval=*/5, true);
    EXPECT_GT(record.incremental, 0) << s.name;
    EXPECT_GT(record.full_refits, 0) << s.name;
    // The default tolerance is 0.95; the final forced refit follows at most
    // four incremental completions, so its drift stays well below that.
    EXPECT_LT(record.last_drift, 0.75) << s.name;
  }
}

TEST(DeterminismTest, TelemetryNeverChangesDecisions) {
  // Telemetry observes the engine but must never perturb it: spans and
  // counters touch no RNG stream and no model state, so enabling the
  // registry leaves every decision byte-identical — serial and threaded,
  // full-refit and incremental.
  for (const Scenario& s : AllScenarios()) {
    const RunRecord off = MustRun(s.metric, s.kind, /*num_threads=*/1,
                                    /*em_refresh_interval=*/4, false,
                                    /*telemetry_enabled=*/false);
    const RunRecord on = MustRun(s.metric, s.kind, /*num_threads=*/1,
                                   /*em_refresh_interval=*/4, false,
                                   /*telemetry_enabled=*/true);
    ExpectIdentical(off, on, s.name + " telemetry on vs off");
    const RunRecord on_threaded =
        MustRun(s.metric, s.kind, /*num_threads=*/8,
                /*em_refresh_interval=*/4, false, /*telemetry_enabled=*/true);
    ExpectIdentical(off, on_threaded,
                    s.name + " telemetry on @ 8 threads vs off serial");
  }
}

TEST(DeterminismTest, TracingNeverChangesDecisions) {
  // The flight recorder, provenance log and SLO tracker observe every
  // request, but none of them may perturb one: trace ids advance whether or
  // not a recorder exists, recorder appends touch no RNG stream, and
  // provenance is filled from the decision after it is made. Decisions must
  // stay byte-identical with the full stack on — serial and threaded.
  for (const Scenario& s : AllScenarios()) {
    const RunRecord off = MustRun(s.metric, s.kind, /*num_threads=*/1,
                                    /*em_refresh_interval=*/4, false,
                                    /*telemetry_enabled=*/false,
                                    /*observability_enabled=*/false);
    const RunRecord on = MustRun(s.metric, s.kind, /*num_threads=*/1,
                                   /*em_refresh_interval=*/4, false,
                                   /*telemetry_enabled=*/false,
                                   /*observability_enabled=*/true);
    ExpectIdentical(off, on, s.name + " observability on vs off");
    const RunRecord on_threaded = MustRun(
        s.metric, s.kind, /*num_threads=*/8, /*em_refresh_interval=*/4,
        false, /*telemetry_enabled=*/true, /*observability_enabled=*/true);
    ExpectIdentical(off, on_threaded,
                    s.name + " observability+telemetry @ 8 threads");
  }
}

TEST(DeterminismTest, TelemetryCountsMatchEngineCounters) {
  // The registry's counters are the engine's only count of each event, so
  // they must count with telemetry off; only the clock-reading span
  // histograms stay empty. The request path's counters (resolved once per
  // core and strategy) are pinned against counts the test keeps itself.
  for (const MetricSpec& metric :
       {MetricSpec::Accuracy(), MetricSpec::FScore(0.5, 0)}) {
    const bool fscore = metric.kind == MetricSpec::Kind::kFScore;
    SCOPED_TRACE(fscore ? "F-score" : "Accuracy");
    AppConfig config;
    config.num_questions = 36;
    config.num_labels = 2;
    config.questions_per_hit = 4;
    config.pay_per_hit = 0.02;
    config.budget = 0.02 * 12;
    config.metric = metric;
    config.em_refresh_interval = 4;
    config.telemetry_enabled = false;
    GroundTruthVector truth(config.num_questions);
    for (int q = 0; q < config.num_questions; ++q) {
      truth[q] = q % config.num_labels;
    }
    TaskAssignmentEngine engine(config, std::make_unique<QascaStrategy>(), 7);
    const auto& strategy =
        static_cast<const QascaStrategy&>(engine.strategy());
    int64_t candidates = 0;
    int64_t outer_iterations = 0;
    int64_t inner_iterations = 0;
    int64_t em_iterations = 0;
    std::map<WorkerId, int> hits_of;
    int round = 0;
    while (!engine.BudgetExhausted()) {
      const WorkerId worker = round++ % 6;
      // S^w: every question not yet assigned to this worker.
      candidates += config.num_questions -
                    config.questions_per_hit * hits_of[worker]++;
      auto hit = engine.RequestHit(worker);
      ASSERT_TRUE(hit.ok());
      outer_iterations += strategy.last_outer_iterations();
      inner_iterations += strategy.last_inner_iterations();
      std::vector<LabelIndex> labels;
      for (QuestionIndex q : *hit) {
        labels.push_back(SimulatedAnswer(worker, q, truth[q],
                                         config.num_labels));
      }
      const int refits = engine.full_em_refits();
      ASSERT_TRUE(engine.CompleteHit(worker, labels).ok());
      if (engine.full_em_refits() > refits) {
        em_iterations += engine.database().parameters().iterations;
      }
    }
    const util::TelemetrySnapshot snapshot = engine.TelemetrySnapshot();
    EXPECT_FALSE(snapshot.enabled);
    auto counter = [&snapshot](std::string_view name) -> int64_t {
      for (const util::CounterSnapshot& c : snapshot.counters) {
        if (c.name == name) return c.value;
      }
      return -1;
    };
    // 12 HITs, none expired. The first completion is always a full refit
    // (no fitted workers yet); after it every 4th completion refits and the
    // other three refresh incrementally: full refits at completions 1, 5, 9.
    EXPECT_EQ(counter("engine.hits_assigned"), 12);
    EXPECT_EQ(engine.assigned_hits(), 12);
    EXPECT_EQ(counter("engine.hits_completed"), 12);
    EXPECT_EQ(engine.completed_hits(), 12);
    EXPECT_EQ(counter("em.full_refits"), 3);
    EXPECT_EQ(engine.full_em_refits(), 3);
    EXPECT_EQ(counter("em.incremental_refreshes"), 9);
    EXPECT_EQ(engine.incremental_refreshes(), 9);
    // Every completion records exactly questions_per_hit answers.
    EXPECT_EQ(counter("db.answers_recorded"), 12 * config.questions_per_hit);
    // Six workers with two HITs each: 36 candidates, then 32.
    EXPECT_EQ(candidates, 6 * (36 + 32));
    EXPECT_EQ(counter("qw.samples_drawn"), candidates);
    EXPECT_EQ(counter("topk.candidates_scanned"), fscore ? 0 : candidates);
    EXPECT_EQ(counter("dinkelbach.outer_iterations"),
              fscore ? outer_iterations : 0);
    EXPECT_EQ(counter("dinkelbach.inner_iterations"),
              fscore ? inner_iterations : 0);
    if (fscore) {
      EXPECT_GE(outer_iterations, 12);
      EXPECT_GE(inner_iterations, outer_iterations);
    } else {
      EXPECT_EQ(outer_iterations, 12);  // one pass per Top-K request
    }
    EXPECT_EQ(counter("em.iterations"), em_iterations);
    EXPECT_GE(em_iterations, 3);
    // The spans read no clock with telemetry off.
    for (const util::LatencySnapshot& latency : snapshot.latencies) {
      EXPECT_EQ(latency.count, 0) << latency.name;
    }
  }
}

TEST(DeterminismTest, IncrementalQualityTracksFullRefits) {
  // Refitting every 4th completion instead of every completion must not
  // collapse end quality — that is the whole point of the incremental path.
  for (const Scenario& s : AllScenarios()) {
    const RunRecord full = MustRun(s.metric, s.kind, 1, 1, false);
    const RunRecord incremental = MustRun(s.metric, s.kind, 1, 4, false);
    EXPECT_GT(incremental.quality, full.quality - 0.15) << s.name;
    EXPECT_EQ(incremental.full_refits + incremental.incremental, 24)
        << s.name;
  }
}

}  // namespace
}  // namespace qasca
