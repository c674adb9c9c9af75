// Lifecycle stress harness (ISSUE 5 tentpole): drives the real engine with
// 1200+ seeded lifecycle events per configuration — HIT requests,
// completions, worker abandonment, duplicate completion callbacks, virtual
// clock ticks, and process crashes — under both worker models (CM, WP) and
// both metrics (Accuracy*, F-score*). The FaultPlan makes the schedule a
// pure function of the seed, so every run injects the identical fault
// sequence.
//
// After EVERY event the harness checks:
//  * open-HIT accounting balances: open_hit_count == assigned - completed,
//    and the engine's open set mirrors the harness's independent model of
//    which leases are live (including their deadlines);
//  * the lease/duplicate/late counters match the harness's expectations;
//  * every Qc row is still a normalized distribution.
//
// Each injected crash abandons the in-memory engine, recovers a fresh one
// from the lifecycle journal, and requires StateFingerprint() identity —
// answers, Qc bit patterns, open leases, the virtual clock and the result
// vector all replay exactly.
//
// A separate test proves the robustness layer is byte-identical while
// disarmed: an engine with leases + journaling enabled (but no fault ever
// firing) makes the same decisions, bit for bit, as one with the layer off.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "platform/app_manager.h"
#include "platform/engine.h"
#include "platform/qasca_strategy.h"
#include "scoped_test_dir.h"
#include "simulation/fault_plan.h"
#include "simulation/serving_driver.h"
#include "util/invariants.h"

namespace qasca {
namespace {

// Deterministic pseudo-noisy worker (~25% wrong): the answer is a pure
// function of (worker, question, truth), so reruns and recovery replays see
// identical labels. Same scheme as the golden-trace test.
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

struct StressCase {
  const char* name;
  bool fscore;
  WorkerModel::Kind kind;
  int threads;
  uint64_t seed;
};

constexpr StressCase kStressCases[] = {
    {"accuracy_cm", false, WorkerModel::Kind::kConfusionMatrix, 1, 11},
    {"accuracy_wp", false, WorkerModel::Kind::kWorkerProbability, 2, 12},
    {"fscore_cm", true, WorkerModel::Kind::kConfusionMatrix, 2, 13},
    {"fscore_wp", true, WorkerModel::Kind::kWorkerProbability, 1, 14},
};

constexpr int kNumQuestions = 60;
constexpr int kNumLabels = 2;
constexpr int kQuestionsPerHit = 3;
constexpr int kNumWorkers = 12;
constexpr int kSteps = 1200;
constexpr uint64_t kLeaseTimeout = 4;

AppConfig MakeConfig(const StressCase& c, const std::string& persistence) {
  AppConfig config;
  config.name = c.name;
  config.num_questions = kNumQuestions;
  config.num_labels = kNumLabels;
  config.questions_per_hit = kQuestionsPerHit;
  config.pay_per_hit = 0.02;
  config.budget = 0.02 * 200;
  config.em.max_iterations = 8;
  config.em_refresh_interval = 6;
  config.worker_kind = c.kind;
  config.metric = c.fscore ? MetricSpec::FScore(0.6, 0) : MetricSpec::Accuracy();
  config.num_threads = c.threads;
  config.lease_timeout_ticks = kLeaseTimeout;
  config.persistence_path = persistence;
  // Heavy abandonment keeps contested questions sparse for longer, so a
  // refit can legitimately flip a posterior cell end to end; a cell is a
  // probability, so 1.0 still bounds it while disabling the abort.
  config.em_drift_tolerance = 1.0;
  // Decision provenance rides the whole storm (crashes included): recovery
  // must rebuild one record per assignment.
  config.provenance_enabled = true;
  config.provenance_capacity = 4096;
  return config;
}

std::unique_ptr<TaskAssignmentEngine> MakeEngine(const AppConfig& config,
                                                 uint64_t seed) {
  return std::make_unique<TaskAssignmentEngine>(
      config, std::make_unique<QascaStrategy>(), seed);
}

class LifecycleStressTest : public ::testing::TestWithParam<StressCase> {};

TEST_P(LifecycleStressTest, SeededEventStormHoldsInvariants) {
  const StressCase& c = GetParam();
  ScopedTestDir dir;
  const AppConfig config = MakeConfig(c, dir.path() + "/journal");

  GroundTruthVector truth(kNumQuestions);
  for (int q = 0; q < kNumQuestions; ++q) truth[q] = q % kNumLabels;

  FaultPlanOptions fault_options;
  fault_options.abandon_rate = 0.06;
  fault_options.duplicate_rate = 0.05;
  fault_options.crash_rate = 0.02;
  fault_options.tick_rate = 0.30;
  fault_options.max_tick_advance = 2;
  FaultPlan plan(c.seed * 7919 + 17, fault_options);

  std::unique_ptr<TaskAssignmentEngine> engine = MakeEngine(config, c.seed);

  // The harness's independent model of the lifecycle, updated in lockstep
  // and compared against the engine after every event.
  struct OpenView {
    std::vector<QuestionIndex> questions;
    uint64_t deadline = 0;
  };
  std::map<WorkerId, OpenView> open;
  std::map<WorkerId, std::vector<LabelIndex>> last_labels;
  std::set<WorkerId> expired_waiting;
  int expected_expired = 0;
  int expected_requeued = 0;
  // Duplicate/late rejections are deliberately NOT journaled (they change
  // no state), so a recovery resets the engine's counters; these track the
  // engine's view since the last crash, the totals the whole run.
  int expected_duplicates = 0;
  int expected_late = 0;
  int total_duplicates = 0;
  int total_late = 0;
  int completions = 0;
  int assignments = 0;
  int crashes = 0;

  for (int step = 0; step < kSteps; ++step) {
    const WorkerId worker = step % kNumWorkers;
    const FaultPlan::Fault fault = plan.At(static_cast<uint64_t>(step));
    auto open_it = open.find(worker);
    if (fault == FaultPlan::Fault::kCrash) {
      // The process dies: all in-memory state is gone. A fresh engine must
      // replay the journal to the bit-identical decision state.
      const uint64_t fingerprint = engine->StateFingerprint();
      engine.reset();
      engine = MakeEngine(config, c.seed);
      util::Status recovered = engine->Recover();
      ASSERT_TRUE(recovered.ok()) << recovered.ToString();
      ASSERT_EQ(engine->StateFingerprint(), fingerprint)
          << c.name << ": recovery diverged at step " << step;
      expected_duplicates = engine->duplicates_dropped();  // always 0
      expected_late = engine->late_completions_rejected();
      ++crashes;
    } else if (open_it != open.end()) {
      if (fault == FaultPlan::Fault::kAbandon) {
        // The worker walks away: never deliver; ticks will expire the
        // lease and requeue the questions.
      } else {
        std::vector<LabelIndex> labels;
        labels.reserve(open_it->second.questions.size());
        for (QuestionIndex q : open_it->second.questions) {
          labels.push_back(SimulatedAnswer(worker, q, truth[q], kNumLabels));
        }
        util::Status status = engine->CompleteHit(worker, labels);
        ASSERT_TRUE(status.ok()) << status.ToString();
        last_labels[worker] = labels;
        open.erase(open_it);
        ++completions;
      }
    } else if (fault == FaultPlan::Fault::kDuplicate &&
               (last_labels.contains(worker) ||
                expired_waiting.contains(worker))) {
      if (expired_waiting.contains(worker)) {
        // Late delivery for the expired HIT. If the stale answers happen to
        // hash-match the worker's last *completed* HIT they are classified
        // as a duplicate instead; either way they must be rejected.
        std::vector<LabelIndex> stale(kQuestionsPerHit, 0);
        util::Status status = engine->CompleteHit(worker, stale);
        ASSERT_FALSE(status.ok());
        if (status.code() == util::StatusCode::kAlreadyExists) {
          ++expected_duplicates;
          ++total_duplicates;
        } else {
          ASSERT_EQ(status.code(), util::StatusCode::kFailedPrecondition)
              << status.ToString();
          ++expected_late;
          ++total_late;
        }
      } else {
        // The platform redelivers the last completion callback verbatim.
        util::Status status =
            engine->CompleteHit(worker, last_labels.at(worker));
        ASSERT_EQ(status.code(), util::StatusCode::kAlreadyExists)
            << status.ToString();
        ++expected_duplicates;
        ++total_duplicates;
      }
    } else {
      util::StatusOr<std::vector<QuestionIndex>> hit =
          engine->RequestHit(worker);
      if (hit.ok()) {
        open[worker] =
            OpenView{*hit, engine->now_ticks() + kLeaseTimeout};
        expired_waiting.erase(worker);
        ++assignments;
      } else {
        // Legitimate platform outcomes once the run saturates.
        ASSERT_TRUE(hit.status().code() ==
                        util::StatusCode::kResourceExhausted ||
                    hit.status().code() == util::StatusCode::kNotFound)
            << hit.status().ToString();
      }
    }

    const uint64_t advance = plan.TickAdvanceAt(static_cast<uint64_t>(step));
    if (advance > 0) {
      const uint64_t now = engine->now_ticks() + advance;
      int expiring = 0;
      for (auto it = open.begin(); it != open.end();) {
        if (it->second.deadline <= now) {
          expected_requeued += static_cast<int>(it->second.questions.size());
          expired_waiting.insert(it->first);
          it = open.erase(it);
          ++expiring;
        } else {
          ++it;
        }
      }
      expected_expired += expiring;
      ASSERT_EQ(engine->Tick(advance), expiring) << "at step " << step;
    }

    // --- invariants, after every single event --------------------------
    ASSERT_EQ(engine->open_hit_count(), static_cast<int>(open.size()));
    ASSERT_EQ(engine->assigned_hits() - engine->completed_hits(),
              engine->open_hit_count());
    ASSERT_EQ(engine->leases_expired(), expected_expired);
    ASSERT_EQ(engine->questions_requeued(), expected_requeued);
    ASSERT_EQ(engine->duplicates_dropped(), expected_duplicates);
    ASSERT_EQ(engine->late_completions_rejected(), expected_late);
    util::Status qc_ok =
        invariants::CheckDistributionMatrix(engine->database().current());
    ASSERT_TRUE(qc_ok.ok()) << "after step " << step << ": "
                            << qc_ok.ToString();
  }

  // Expiries are derived from journaled ticks, so the count — rebuilt by
  // every recovery replay — must agree with the cumulative one.
  EXPECT_EQ(engine->leases_expired(), expected_expired);

  // One provenance record per assignment the surviving engine knows about
  // (expiry refunds assigned_hits, so the expired ones are added back):
  // replay re-derives the records along with the counters, so the counts
  // agree across every crash/recovery boundary, and each record carries a
  // full HIT's worth of scored questions.
  ASSERT_NE(engine->provenance(), nullptr);
  EXPECT_EQ(engine->provenance()->total_appended(),
            engine->assigned_hits() + engine->leases_expired());
  for (int i = 0; i < engine->provenance()->size(); ++i) {
    const DecisionProvenance& record = engine->provenance()->at(i);
    ASSERT_EQ(record.questions.size(),
              static_cast<size_t>(kQuestionsPerHit));
    ASSERT_EQ(record.scores.size(), record.questions.size());
  }

  // The storm must actually have exercised every failure mode.
  EXPECT_GE(completions, 100) << c.name;
  EXPECT_GE(assignments, completions);
  EXPECT_GT(expected_expired, 0) << c.name;
  EXPECT_GT(total_duplicates, 0) << c.name;
  EXPECT_GT(crashes, 0) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, LifecycleStressTest, ::testing::ValuesIn(kStressCases),
    [](const ::testing::TestParamInfo<StressCase>& info) {
      return std::string(info.param.name);
    });

// With leases + journaling enabled but no fault ever firing, every decision
// must be byte-identical to an engine with the robustness layer off: same
// selections, same Qc bit patterns, same results. (The golden-trace test
// separately pins this behaviour against the pre-PR engine.)
TEST(LifecycleByteIdentityTest, DisarmedRobustnessLayerChangesNothing) {
  ScopedTestDir dir;
  for (const bool fscore : {false, true}) {
    StressCase base{fscore ? "identity_fscore" : "identity_accuracy", fscore,
                    WorkerModel::Kind::kConfusionMatrix, 1, 21};
    AppConfig plain = MakeConfig(base, "");
    plain.lease_timeout_ticks = 0;
    // Leases + journal.
    AppConfig armed = MakeConfig(base, dir.path() + "/" + base.name);

    GroundTruthVector truth(kNumQuestions);
    for (int q = 0; q < kNumQuestions; ++q) truth[q] = q % kNumLabels;

    std::unique_ptr<TaskAssignmentEngine> reference =
        MakeEngine(plain, base.seed);
    std::unique_ptr<TaskAssignmentEngine> robust =
        MakeEngine(armed, base.seed);

    int round = 0;
    while (!reference->BudgetExhausted()) {
      const WorkerId worker = round++ % kNumWorkers;
      auto ref_hit = reference->RequestHit(worker);
      auto rob_hit = robust->RequestHit(worker);
      ASSERT_EQ(ref_hit.ok(), rob_hit.ok());
      if (!ref_hit.ok()) break;
      ASSERT_EQ(*ref_hit, *rob_hit) << "HIT " << round;
      std::vector<LabelIndex> labels;
      for (QuestionIndex q : *ref_hit) {
        labels.push_back(SimulatedAnswer(worker, q, truth[q], kNumLabels));
      }
      ASSERT_TRUE(reference->CompleteHit(worker, labels).ok());
      ASSERT_TRUE(robust->CompleteHit(worker, labels).ok());
      // Completing within the lease window: ticks pass but nothing expires.
      robust->Tick(1);
    }
    ASSERT_EQ(reference->CurrentResults(), robust->CurrentResults());
    const DistributionMatrix& ref_qc = reference->database().current();
    const DistributionMatrix& rob_qc = robust->database().current();
    for (int i = 0; i < ref_qc.num_questions(); ++i) {
      for (int j = 0; j < ref_qc.num_labels(); ++j) {
        ASSERT_EQ(ref_qc.At(i, j), rob_qc.At(i, j)) << i << "," << j;
      }
    }
  }
}

// The concurrent phase of the storm (ISSUE 10): the same lifecycle faults
// now arrive through the multi-app serving layer from racing worker
// threads, and every app periodically crashes and recovers from its journal
// MID-STORM while its siblings keep serving. The single-threaded replay of
// the identical schedule is the oracle: per-app decision hashes and state
// fingerprints must survive both the threads and the crashes bit for bit,
// and provenance must hold exactly one record per assignment the recovered
// engine knows about.
TEST(ConcurrentLifecycleStressTest, MidStormRecoveryUnderRacingSiblings) {
  ServingWorkloadOptions options;
  options.apps = 4;
  options.workers_per_app = 8;
  options.events_per_app = 150;
  options.num_questions = kNumQuestions;
  options.num_labels = kNumLabels;
  options.questions_per_hit = kQuestionsPerHit;
  options.em_refresh_interval = 6;
  options.lease_timeout_ticks = kLeaseTimeout;
  options.crash_every = 40;  // 3 crash+recover events per app, mid-storm
  options.provenance = true;
  ScopedTestDir journals;
  options.persistence_dir = journals.path();
  const uint64_t seed = 77;
  const ServingSchedule schedule = ServingSchedule::Generate(options, seed);

  AppManager oracle;
  ASSERT_TRUE(BuildServingApps(oracle, options, seed).ok());
  const ServingRunResult serial =
      RunServingSchedule(oracle, schedule, options, 1);

  AppManager manager;
  journals.Reset();
  ASSERT_TRUE(BuildServingApps(manager, options, seed).ok());
  const ServingRunResult storm =
      RunServingSchedule(manager, schedule, options, 4);

  // The storm really was a storm: every failure mode fired, and every app
  // crashed and recovered while the other three kept serving.
  EXPECT_GE(storm.crash_recoveries, static_cast<int64_t>(options.apps));
  EXPECT_GT(storm.leases_expired, 0);
  EXPECT_GT(storm.completions, 0);
  EXPECT_GT(storm.rejects, 0);

  EXPECT_EQ(storm.decision_hashes, serial.decision_hashes);
  EXPECT_EQ(storm.fingerprints, serial.fingerprints);

  for (int app = 0; app < options.apps; ++app) {
    util::StatusOr<AppManager::AppStats> stats = manager.StatsFor(app);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_GT(stats->completed_hits, 0) << "app " << app;
    // One provenance record per assignment the app's engine knows about
    // (assigned plus refunded by expiry) — recovery replay rebuilds the
    // records along with the counters, so the identity holds across every
    // crash boundary.
    util::Status inspected = manager.InspectApp(
        app, [app](const TaskAssignmentEngine& engine) {
          ASSERT_NE(engine.provenance(), nullptr);
          EXPECT_EQ(engine.provenance()->total_appended(),
                    engine.assigned_hits() + engine.leases_expired())
              << "app " << app;
        });
    ASSERT_TRUE(inspected.ok()) << inspected.ToString();
  }
}

}  // namespace
}  // namespace qasca
