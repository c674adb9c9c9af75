// Concurrency conformance suite for the multi-app serving layer (ISSUE 10
// tentpole). The core claim under test: a hosted app's decisions are a pure
// function of (config, seed, the app's own event order) — so one generated
// multi-app schedule, replayed single-threaded and by 2/4/8 racing worker
// threads, must leave every app with bit-identical decision hashes and
// state fingerprints. The seeded turnstile harness in
// simulation/serving_driver.{h,cc} makes the concurrent replays
// deterministic without weakening them: threads really do contend on the
// shard locks (TSan runs this suite via the tsan-threads preset), only the
// per-app event order is pinned.
//
// Also pinned here:
//  * batching equivalence — a batch of b requests is byte-identical to the
//    same b requests submitted serially in batch order;
//  * cross-app isolation — sibling traffic never perturbs an app;
//  * crash + recovery of one app mid-schedule keeps the bit-identity;
//  * the lease-expiry-vs-completion race refunds the budget at most once
//    (regression for the double-refund hazard the shard lock closes).

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "platform/app_manager.h"
#include "platform/qasca_strategy.h"
#include "scoped_test_dir.h"
#include "simulation/serving_driver.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace qasca {
namespace {

AppConfig SmallConfig(const std::string& name) {
  AppConfig config;
  config.name = name;
  config.num_questions = 24;
  config.num_labels = 2;
  config.questions_per_hit = 2;
  config.pay_per_hit = 1.0;
  config.budget = 40.0;
  config.em.max_iterations = 6;
  config.em_refresh_interval = 3;
  return config;
}

AppManager::AppOptions SmallApp(const std::string& name, uint64_t seed) {
  AppManager::AppOptions options;
  options.config = SmallConfig(name);
  options.strategy_factory = [] { return std::make_unique<QascaStrategy>(); };
  options.seed = seed;
  return options;
}

TEST(AppManagerTest, RegisterAppValidatesInputs) {
  AppManager manager;
  AppManager::AppOptions no_factory;
  no_factory.config = SmallConfig("no_factory");
  EXPECT_EQ(manager.RegisterApp(std::move(no_factory)).status().code(),
            util::StatusCode::kInvalidArgument);

  AppManager::AppOptions bad = SmallApp("bad", 1);
  bad.config.num_questions = 0;
  EXPECT_FALSE(manager.RegisterApp(std::move(bad)).ok());
  EXPECT_EQ(manager.app_count(), 0);

  util::StatusOr<AppId> first = manager.RegisterApp(SmallApp("a", 1));
  util::StatusOr<AppId> second = manager.RegisterApp(SmallApp("b", 2));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, 0);
  EXPECT_EQ(*second, 1);
  EXPECT_EQ(manager.app_count(), 2);
}

TEST(AppManagerTest, UnknownAppIdIsRejectedEverywhere) {
  AppManager manager;
  ASSERT_TRUE(manager.RegisterApp(SmallApp("only", 7)).ok());
  for (AppId bogus : {-1, 1, 42}) {
    EXPECT_EQ(manager.SubmitHitRequest(bogus, 0).status().code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ(manager.SubmitHitRequestBatch(bogus, {0, 1}).status().code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ(manager.SubmitHitCompletion(bogus, 0, {0, 0}).code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ(manager.AdvanceAppClock(bogus).status().code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ(manager.CrashAndRecoverApp(bogus).code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ(manager.AppStateFingerprint(bogus).status().code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ(manager.StatsFor(bogus).status().code(),
              util::StatusCode::kInvalidArgument);
  }
}

TEST(AppManagerTest, ServesIndependentAppLifecycles) {
  AppManager manager;
  util::StatusOr<AppId> a = manager.RegisterApp(SmallApp("a", 11));
  util::StatusOr<AppId> b = manager.RegisterApp(SmallApp("b", 22));
  ASSERT_TRUE(a.ok() && b.ok());

  util::StatusOr<std::vector<QuestionIndex>> hit_a =
      manager.SubmitHitRequest(*a, 0);
  ASSERT_TRUE(hit_a.ok()) << hit_a.status().ToString();
  ASSERT_EQ(hit_a->size(), 2u);
  ASSERT_TRUE(
      manager.SubmitHitCompletion(*a, 0, {0, 0}).ok());

  util::StatusOr<AppManager::AppStats> stats_a = manager.StatsFor(*a);
  util::StatusOr<AppManager::AppStats> stats_b = manager.StatsFor(*b);
  ASSERT_TRUE(stats_a.ok() && stats_b.ok());
  EXPECT_EQ(stats_a->assigned_hits, 1);
  EXPECT_EQ(stats_a->completed_hits, 1);
  EXPECT_EQ(stats_a->open_hits, 0);
  EXPECT_EQ(stats_b->assigned_hits, 0);
  EXPECT_EQ(stats_b->completed_hits, 0);
}

// A batch of b requests must be byte-identical to the same b requests
// submitted serially in batch order — the amortised Qc snapshot + warmed EM
// shared state must never change a decision (ISSUE 10 batching contract).
TEST(AppManagerTest, BatchMatchesSerialInBatchOrder) {
  const std::vector<WorkerId> batch = {3, 0, 5, 1, 4, 2, 0};
  AppManager batched;
  AppManager serial;
  ASSERT_TRUE(batched.RegisterApp(SmallApp("batch", 99)).ok());
  ASSERT_TRUE(serial.RegisterApp(SmallApp("batch", 99)).ok());

  for (int round = 0; round < 4; ++round) {
    util::StatusOr<std::vector<util::StatusOr<std::vector<QuestionIndex>>>>
        results = batched.SubmitHitRequestBatch(0, batch);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    ASSERT_EQ(results->size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      util::StatusOr<std::vector<QuestionIndex>> lone =
          serial.SubmitHitRequest(0, batch[i]);
      const util::StatusOr<std::vector<QuestionIndex>>& slot = (*results)[i];
      ASSERT_EQ(slot.ok(), lone.ok()) << "round " << round << " slot " << i;
      if (slot.ok()) {
        EXPECT_EQ(*slot, *lone) << "round " << round << " slot " << i;
      } else {
        EXPECT_EQ(slot.status().code(), lone.status().code());
      }
    }
    // Drain both replicas identically so later rounds decide from evolved,
    // identical state (duplicate workers in the batch were rejected with
    // AlreadyExists on both sides and hold one open HIT each).
    for (WorkerId worker : {0, 1, 2, 3, 4, 5}) {
      util::Status done_batched =
          batched.SubmitHitCompletion(0, worker, {0, 1});
      util::Status done_serial = serial.SubmitHitCompletion(0, worker, {0, 1});
      ASSERT_EQ(done_batched.code(), done_serial.code());
    }
    ASSERT_EQ(*batched.AppStateFingerprint(0), *serial.AppStateFingerprint(0))
        << "state diverged after round " << round;
  }
}

TEST(AppManagerTest, BatchTelemetryCountsBatches) {
  AppManager manager;
  AppManager::AppOptions options = SmallApp("telemetry", 5);
  options.config.telemetry_enabled = true;
  ASSERT_TRUE(manager.RegisterApp(std::move(options)).ok());
  ASSERT_TRUE(manager.SubmitHitRequestBatch(0, {0, 1, 2}).ok());
  util::StatusOr<std::string> json = manager.AppTelemetryJson(0);
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("\"serving.batches\":1"), std::string::npos) << *json;
  EXPECT_NE(json->find("\"serving.batch_requests\":3"), std::string::npos)
      << *json;
}

// The conformance core: one schedule, every thread count, bit-identical
// per-app outcomes. Fingerprints AND decision hashes — the former pins the
// engines' end states, the latter pins every intermediate decision (two
// wrong interleavings could cancel in the end state; they cannot cancel in
// the order-sensitive hash fold).
class ServingConformanceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServingConformanceTest, ThreadCountNeverChangesDecisions) {
  const uint64_t seed = GetParam();
  ServingWorkloadOptions options;
  options.apps = 5;
  options.workers_per_app = 6;
  options.events_per_app = 90;
  options.num_questions = 24;
  options.questions_per_hit = 2;
  options.em_refresh_interval = 3;
  // Short leases so the storm actually exercises expiry + late rejection.
  options.lease_timeout_ticks = 3;

  const ServingSchedule schedule = ServingSchedule::Generate(options, seed);

  AppManager reference;
  ASSERT_TRUE(BuildServingApps(reference, options, seed).ok());
  const ServingRunResult serial =
      RunServingSchedule(reference, schedule, options, 1);
  ASSERT_GT(serial.assignments, 0);
  ASSERT_GT(serial.completions, 0);
  ASSERT_GT(serial.leases_expired, 0);
  ASSERT_GT(serial.batches, 0);

  for (int threads : {2, 4, 8}) {
    AppManager manager;
    ASSERT_TRUE(BuildServingApps(manager, options, seed).ok());
    const ServingRunResult concurrent =
        RunServingSchedule(manager, schedule, options, threads);
    EXPECT_EQ(concurrent.decision_hashes, serial.decision_hashes)
        << threads << " threads, seed " << seed;
    EXPECT_EQ(concurrent.fingerprints, serial.fingerprints)
        << threads << " threads, seed " << seed;
    EXPECT_EQ(concurrent.assignments, serial.assignments);
    EXPECT_EQ(concurrent.completions, serial.completions);
    EXPECT_EQ(concurrent.rejects, serial.rejects);
    EXPECT_EQ(concurrent.leases_expired, serial.leases_expired);
  }
}

// Same claim with the fault layer armed: per-app journals, provenance, and
// a crash + journal recovery every 30th event of every app's stream, raced
// by sibling traffic. Recovery replays must land on the same bit-identical
// state no matter how many threads are storming the other apps.
TEST_P(ServingConformanceTest, CrashRecoveryKeepsBitIdentityUnderRace) {
  const uint64_t seed = GetParam();
  ServingWorkloadOptions options;
  options.apps = 3;
  options.workers_per_app = 5;
  options.events_per_app = 60;
  options.num_questions = 24;
  options.questions_per_hit = 2;
  options.em_refresh_interval = 3;
  options.crash_every = 30;
  options.provenance = true;
  ScopedTestDir journals;
  options.persistence_dir = journals.path();

  const ServingSchedule schedule = ServingSchedule::Generate(options, seed);

  AppManager reference;
  ASSERT_TRUE(BuildServingApps(reference, options, seed).ok());
  const ServingRunResult serial =
      RunServingSchedule(reference, schedule, options, 1);
  ASSERT_GT(serial.crash_recoveries, 0);

  for (int threads : {2, 4}) {
    AppManager manager;
    journals.Reset();
    ASSERT_TRUE(BuildServingApps(manager, options, seed).ok());
    const ServingRunResult concurrent =
        RunServingSchedule(manager, schedule, options, threads);
    EXPECT_EQ(concurrent.decision_hashes, serial.decision_hashes)
        << threads << " threads, seed " << seed;
    EXPECT_EQ(concurrent.fingerprints, serial.fingerprints)
        << threads << " threads, seed " << seed;
    EXPECT_EQ(concurrent.crash_recoveries, serial.crash_recoveries);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServingConformanceTest,
                         ::testing::Values(101u, 202u, 303u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Cross-app isolation: app 0's stream is generated from a per-app RNG, so
// the same (options, seed) with apps = 1 yields exactly app 0's events.
// Hosting four noisy siblings next to it must not perturb a single
// decision or state bit of app 0.
TEST(AppManagerTest, SiblingTrafficNeverPerturbsAnApp) {
  const uint64_t seed = 4242;
  ServingWorkloadOptions crowded;
  crowded.apps = 5;
  crowded.events_per_app = 80;
  crowded.num_questions = 24;
  crowded.questions_per_hit = 2;
  ServingWorkloadOptions solo = crowded;
  solo.apps = 1;

  AppManager crowded_manager;
  ASSERT_TRUE(BuildServingApps(crowded_manager, crowded, seed).ok());
  const ServingRunResult crowded_run = RunServingSchedule(
      crowded_manager, ServingSchedule::Generate(crowded, seed), crowded, 4);

  AppManager solo_manager;
  ASSERT_TRUE(BuildServingApps(solo_manager, solo, seed).ok());
  const ServingRunResult solo_run = RunServingSchedule(
      solo_manager, ServingSchedule::Generate(solo, seed), solo, 1);

  ASSERT_EQ(solo_run.decision_hashes.size(), 1u);
  EXPECT_EQ(crowded_run.decision_hashes[0], solo_run.decision_hashes[0]);
  EXPECT_EQ(crowded_run.fingerprints[0], solo_run.fingerprints[0]);
}

TEST(AppManagerTest, CrashRecoverRequiresAJournal) {
  AppManager manager;
  ASSERT_TRUE(manager.RegisterApp(SmallApp("ephemeral", 3)).ok());
  EXPECT_EQ(manager.CrashAndRecoverApp(0).code(),
            util::StatusCode::kFailedPrecondition);
}

// The "app_manager.crash_recover" fail point refuses the recovery before
// the engine is discarded: the refusal must surface as Internal and leave
// the app serving from its intact in-memory engine.
TEST(AppManagerTest, CrashRecoverFailPointRefusesWithoutDataLoss) {
  ScopedTestDir journals;
  AppManager manager;
  AppManager::AppOptions options = SmallApp("faulty", 8);
  options.config.persistence_path = journals.path() + "/journal";
  ASSERT_TRUE(manager.RegisterApp(std::move(options)).ok());
  ASSERT_TRUE(manager.SubmitHitRequest(0, 0).ok());
  const uint64_t before = *manager.AppStateFingerprint(0);

  util::FailPoints::Global().Arm("app_manager.crash_recover");
  EXPECT_EQ(manager.CrashAndRecoverApp(0).code(),
            util::StatusCode::kInternal);
  util::FailPoints::Global().Disarm("app_manager.crash_recover");

  EXPECT_EQ(*manager.AppStateFingerprint(0), before);
  util::Status recovered = manager.CrashAndRecoverApp(0);
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  EXPECT_EQ(*manager.AppStateFingerprint(0), before);
}

// Regression (ISSUE 10 fix): a lease expiry refunds the HIT's budget; the
// late completion racing it must be rejected WITHOUT refunding again. With
// a budget of exactly one HIT, a double refund would hand out a third
// assignment — pin that it cannot.
TEST(AppManagerTest, ExpiryRacingCompletionRefundsBudgetAtMostOnce) {
  AppManager manager;
  AppManager::AppOptions options = SmallApp("refund", 17);
  options.config.budget = 1.0;  // pay_per_hit 1.0 → exactly one HIT
  options.config.lease_timeout_ticks = 2;
  ASSERT_TRUE(manager.RegisterApp(std::move(options)).ok());

  ASSERT_TRUE(manager.SubmitHitRequest(0, 0).ok());
  EXPECT_EQ(manager.SubmitHitRequest(0, 1).status().code(),
            util::StatusCode::kResourceExhausted);

  util::StatusOr<int> expired = manager.AdvanceAppClock(0, 3);
  ASSERT_TRUE(expired.ok());
  ASSERT_EQ(*expired, 1);  // the lease expired and refunded the budget

  // The worker's completion arrives after the expiry won the race: late,
  // rejected, and — the regression — no second refund.
  EXPECT_EQ(manager.SubmitHitCompletion(0, 0, {0, 0}).code(),
            util::StatusCode::kFailedPrecondition);

  ASSERT_TRUE(manager.SubmitHitRequest(0, 1).ok());  // spends the one refund
  EXPECT_EQ(manager.SubmitHitRequest(0, 2).status().code(),
            util::StatusCode::kResourceExhausted);

  util::StatusOr<AppManager::AppStats> stats = manager.StatsFor(0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->leases_expired, 1);
  EXPECT_EQ(stats->late_completions_rejected, 1);
  // Expiry un-counts the abandoned assignment (assigned - completed must
  // keep equalling open), so of the two grants only the live one remains.
  EXPECT_EQ(stats->assigned_hits, 1);
  EXPECT_EQ(stats->open_hits, 1);
}

}  // namespace
}  // namespace qasca
