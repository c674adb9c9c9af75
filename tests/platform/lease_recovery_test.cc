// Unit coverage for the HIT-lifecycle robustness layer (ISSUE 5): every
// new Status branch in Engine::CompleteHit / Engine::Recover, the lease
// expiry/requeue mechanics, the telemetry counters they increment, and the
// journal's crash points (fail-point driven, so those tests are compiled
// out with QASCA_ENABLE_FAILPOINTS=0). The end-to-end seeded storm lives in
// tests/integration/lifecycle_stress_test.cc; this file isolates each
// branch.

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "platform/engine.h"
#include "platform/journal.h"
#include "platform/qasca_strategy.h"
#include "scoped_test_dir.h"
#include "util/failpoint.h"

namespace qasca {
namespace {

AppConfig LeaseConfig(const std::string& persistence = "") {
  AppConfig config;
  config.name = "lease_test";
  config.num_questions = 12;
  config.num_labels = 2;
  config.questions_per_hit = 2;
  config.pay_per_hit = 0.02;
  config.budget = 0.02 * 30;
  config.metric = MetricSpec::Accuracy();
  config.em.max_iterations = 6;
  config.telemetry_enabled = true;
  config.lease_timeout_ticks = 2;
  config.persistence_path = persistence;
  return config;
}

std::unique_ptr<TaskAssignmentEngine> MakeEngine(AppConfig config,
                                                 uint64_t seed = 1) {
  return std::make_unique<TaskAssignmentEngine>(
      std::move(config), std::make_unique<QascaStrategy>(), seed);
}

std::string FreshJournalPrefix(const std::string& name) {
  const std::string prefix = ::testing::TempDir() + "/qasca_" + name;
  std::remove((prefix + ".snapshot").c_str());
  std::remove((prefix + ".log").c_str());
  return prefix;
}

int64_t CounterValue(const TaskAssignmentEngine& engine,
                     const std::string& name) {
  for (const auto& counter : engine.TelemetrySnapshot().counters) {
    if (counter.name == name) return counter.value;
  }
  return -1;  // instrument not present
}

std::vector<LabelIndex> LabelsFor(const std::vector<QuestionIndex>& hit) {
  return std::vector<LabelIndex>(hit.size(), 0);
}

// --- leases ---------------------------------------------------------------

TEST(LeaseTest, LeaseExpiresRequeuesQuestionsAndRefundsBudget) {
  auto engine = MakeEngine(LeaseConfig());
  auto hit = engine->RequestHit(7);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(engine->open_hit_count(), 1);
  const int remaining_after_assign = engine->remaining_hits();

  EXPECT_EQ(engine->Tick(1), 0);  // deadline is assign-time + 2
  EXPECT_EQ(engine->Tick(1), 1);  // now it expires
  EXPECT_EQ(engine->open_hit_count(), 0);
  EXPECT_EQ(engine->leases_expired(), 1);
  EXPECT_EQ(engine->questions_requeued(), 2);
  EXPECT_EQ(engine->remaining_hits(), remaining_after_assign + 1);
  EXPECT_EQ(CounterValue(*engine, "hit.lease_expired"), 1);
  EXPECT_EQ(CounterValue(*engine, "hit.questions_requeued"), 2);

  // The questions re-entered the worker's candidate set: with n = 12 and
  // k = 2 the worker can fill 6 HITs again from scratch.
  for (int round = 0; round < 6; ++round) {
    auto next = engine->RequestHit(7);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(engine->CompleteHit(7, LabelsFor(*next)).ok());
  }
}

TEST(LeaseTest, ZeroTimeoutNeverExpires) {
  AppConfig config = LeaseConfig();
  config.lease_timeout_ticks = 0;
  auto engine = MakeEngine(std::move(config));
  ASSERT_TRUE(engine->RequestHit(1).ok());
  EXPECT_EQ(engine->Tick(1000), 0);
  EXPECT_EQ(engine->open_hit_count(), 1);
  EXPECT_EQ(engine->leases_expired(), 0);
}

TEST(LeaseTest, LateCompletionIsRejectedUntilANewHitSupersedes) {
  auto engine = MakeEngine(LeaseConfig());
  auto hit = engine->RequestHit(3);
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(engine->Tick(2), 1);

  // The stale answers arrive after the lease expired.
  util::Status late = engine->CompleteHit(3, LabelsFor(*hit));
  EXPECT_EQ(late.code(), util::StatusCode::kFailedPrecondition)
      << late.ToString();
  EXPECT_EQ(engine->late_completions_rejected(), 1);
  EXPECT_EQ(CounterValue(*engine, "hit.late_completion_rejected"), 1);
  EXPECT_EQ(engine->completed_hits(), 0);

  // A new assignment closes the rejection window; completing the new HIT
  // is business as usual.
  auto fresh = engine->RequestHit(3);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(engine->CompleteHit(3, LabelsFor(*fresh)).ok());
  EXPECT_EQ(engine->late_completions_rejected(), 1);
}

// --- idempotent completion ------------------------------------------------

TEST(DuplicateCompletionTest, RedeliveredCallbackIsDroppedWithoutCounting) {
  auto engine = MakeEngine(LeaseConfig());
  auto hit = engine->RequestHit(5);
  ASSERT_TRUE(hit.ok());
  const std::vector<LabelIndex> labels = LabelsFor(*hit);
  ASSERT_TRUE(engine->CompleteHit(5, labels).ok());
  const int answers_before = engine->database().AnswerCount((*hit)[0]);
  const int64_t recorded_before = CounterValue(*engine, "db.answers_recorded");

  util::Status duplicate = engine->CompleteHit(5, labels);
  EXPECT_EQ(duplicate.code(), util::StatusCode::kAlreadyExists)
      << duplicate.ToString();
  EXPECT_EQ(engine->duplicates_dropped(), 1);
  EXPECT_EQ(CounterValue(*engine, "hit.duplicate_dropped"), 1);
  // Never double-counted: D, the completion tally and the EM inputs are
  // untouched.
  EXPECT_EQ(engine->completed_hits(), 1);
  EXPECT_EQ(engine->database().AnswerCount((*hit)[0]), answers_before);
  EXPECT_EQ(CounterValue(*engine, "db.answers_recorded"), recorded_before);

  // A third delivery is still dropped.
  EXPECT_EQ(engine->CompleteHit(5, labels).code(),
            util::StatusCode::kAlreadyExists);
  EXPECT_EQ(engine->duplicates_dropped(), 2);
}

TEST(DuplicateCompletionTest, UnknownWorkerIsStillNotFound) {
  auto engine = MakeEngine(LeaseConfig());
  EXPECT_EQ(engine->CompleteHit(42, {0, 0}).code(),
            util::StatusCode::kNotFound);
}

TEST(DuplicateCompletionTest, DifferentAnswersFromIdleWorkerAreNotFound) {
  auto engine = MakeEngine(LeaseConfig());
  auto hit = engine->RequestHit(5);
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(engine->CompleteHit(5, {0, 0}).ok());
  // Same worker, no open HIT, answers that match no completed record: not a
  // redelivery, just an unknown completion.
  EXPECT_EQ(engine->CompleteHit(5, {1, 1}).code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(engine->duplicates_dropped(), 0);
}

// --- crash recovery -------------------------------------------------------

TEST(RecoveryTest, RecoverWithoutPersistenceIsFailedPrecondition) {
  auto engine = MakeEngine(LeaseConfig());
  EXPECT_EQ(engine->Recover().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(RecoveryTest, ReplayReproducesStateAndRngStream) {
  const std::string prefix = FreshJournalPrefix("recovery_basic");
  const AppConfig config = LeaseConfig(prefix);

  // Reference run: journal six lifecycle events, remember the state and
  // the next decision the engine would have made.
  auto original = MakeEngine(config);
  for (WorkerId worker = 0; worker < 2; ++worker) {
    auto hit = original->RequestHit(worker);
    ASSERT_TRUE(hit.ok());
    ASSERT_TRUE(original->CompleteHit(worker, LabelsFor(*hit)).ok());
  }
  original->Tick(1);
  auto abandoned = original->RequestHit(9);  // stays open across the crash
  ASSERT_TRUE(abandoned.ok());
  const uint64_t fingerprint = original->StateFingerprint();
  auto next_decision = original->RequestHit(4);
  ASSERT_TRUE(next_decision.ok());
  original.reset();

  // Crash: a fresh engine replays the journal. Note the journal now also
  // holds the worker-4 assignment; recovery replays it too, so compare the
  // pre-assignment fingerprint against a recovery of a journal truncated at
  // the crash... simplest faithful check: recover everything and verify the
  // full final state, then confirm determinism by recovering twice.
  auto recovered = MakeEngine(config);
  util::Status status = recovered->Recover();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(recovered->completed_hits(), 2);
  EXPECT_EQ(recovered->open_hit_count(), 2);  // workers 9 and 4
  EXPECT_EQ(recovered->now_ticks(), 1u);
  EXPECT_EQ(CounterValue(*recovered, "journal.events_replayed"), 7);
  const uint64_t recovered_fingerprint = recovered->StateFingerprint();
  recovered.reset();

  auto again = MakeEngine(config);
  ASSERT_TRUE(again->Recover().ok());
  EXPECT_EQ(again->StateFingerprint(), recovered_fingerprint);
  // And the fingerprint taken mid-run differs from the final one (the
  // fingerprint actually discriminates states).
  EXPECT_NE(fingerprint, recovered_fingerprint);
}

TEST(RecoveryTest, MismatchedSeedDivergesWithInternal) {
  const std::string prefix = FreshJournalPrefix("recovery_seed");
  const AppConfig config = LeaseConfig(prefix);
  {
    // Varied answers drive Qc away from uniform; once rows differ, the
    // seed-dependent sampled Qw steers which questions win Top-K Benefit,
    // so a wrong-seed replay must diverge from the journaled selections.
    auto original = MakeEngine(config, /*seed=*/1);
    for (int round = 0; round < 10; ++round) {
      const WorkerId worker = round % 4;
      auto hit = original->RequestHit(worker);
      ASSERT_TRUE(hit.ok()) << hit.status().ToString();
      std::vector<LabelIndex> labels;
      for (size_t i = 0; i < hit->size(); ++i) {
        labels.push_back(static_cast<LabelIndex>((round + i) % 2));
      }
      ASSERT_TRUE(original->CompleteHit(worker, labels).ok());
    }
  }
  auto wrong_seed = MakeEngine(config, /*seed=*/2);
  util::Status status = wrong_seed->Recover();
  EXPECT_EQ(status.code(), util::StatusCode::kInternal) << status.ToString();
}

// Lease expiry refunds assigned_hits, so after a request and the tick that
// expires it the count reads 0 again; Recover must still refuse to replay
// the journal on top of that live state.
TEST(RecoveryDeathTest, RecoverAfterAnExpiredLeaseAborts) {
  auto engine = MakeEngine(LeaseConfig(FreshJournalPrefix("recovery_live")));
  ASSERT_TRUE(engine->RequestHit(7).ok());
  ASSERT_EQ(engine->Tick(2), 1);
  ASSERT_EQ(engine->assigned_hits(), 0);
  EXPECT_DEATH((void)engine->Recover(), "Check failed");
}

// --- journal memory and the provenance seq join ----------------------------

// Seqs of the assignment lines on disk, snapshot first, then log.
std::vector<uint64_t> AssignSeqsOnDisk(const std::string& prefix) {
  std::vector<uint64_t> seqs;
  for (const char* suffix : {".snapshot", ".log"}) {
    std::ifstream in(prefix + suffix);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      uint64_t seq = 0;
      std::string kind;
      if (fields >> seq >> kind && kind == "A") seqs.push_back(seq);
    }
  }
  return seqs;
}

std::vector<uint64_t> ProvenanceSeqs(const TaskAssignmentEngine& engine) {
  std::vector<uint64_t> seqs;
  const ProvenanceLog* log = engine.provenance();
  for (int i = 0; log != nullptr && i < log->size(); ++i) {
    seqs.push_back(log->at(i).journal_seq);
  }
  return seqs;
}

TEST(JournalTest, AppendsLeaveOnlyTheLoadedEventsInMemory) {
  ScopedTestDir dir;
  const std::string prefix = dir.path() + "/journal";
  {
    LifecycleJournal journal(prefix);
    for (WorkerId worker = 0; worker < 3; ++worker) {
      ASSERT_TRUE(journal.AppendAssign(worker, {worker, worker + 1}).ok());
    }
    EXPECT_TRUE(journal.events().empty());
    EXPECT_EQ(journal.last_seq(), 2u);
  }
  LifecycleJournal loaded(prefix);
  ASSERT_EQ(loaded.events().size(), 3u);
  EXPECT_EQ(loaded.events().back().seq, 2u);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(loaded.AppendComplete(i % 3, {0, 1}).ok());
    ASSERT_TRUE(loaded.AppendTick(1).ok());
  }
  EXPECT_EQ(loaded.events().size(), 3u);
  EXPECT_EQ(loaded.last_seq(), 82u);
  loaded.ReleaseLoadedEvents();
  EXPECT_TRUE(loaded.events().empty());

  // Everything appended reached the files: a third load sees all 83.
  LifecycleJournal reloaded(prefix);
  EXPECT_EQ(reloaded.events().size(), 83u);
}

TEST(JournalTest, RecoveryReproducesStateAndProvenanceJoinsJournalSeqs) {
  ScopedTestDir dir;
  const std::string prefix = dir.path() + "/app";
  AppConfig config = LeaseConfig(prefix);
  config.budget = 0.02 * 60;
  config.provenance_enabled = true;

  // A short storm: assignments, varied answers, ticks that expire leases.
  auto original = MakeEngine(config);
  for (int round = 0; round < 24; ++round) {
    const WorkerId worker = round % 5;
    auto hit = original->RequestHit(worker);
    if (!hit.ok()) continue;
    if (round % 4 == 3) {
      original->Tick(2);  // this HIT's lease expires
      continue;
    }
    std::vector<LabelIndex> labels;
    for (size_t i = 0; i < hit->size(); ++i) {
      labels.push_back(static_cast<LabelIndex>((round + i) % 2));
    }
    ASSERT_TRUE(original->CompleteHit(worker, labels).ok());
  }
  ASSERT_GT(original->leases_expired(), 0);
  EXPECT_EQ(ProvenanceSeqs(*original), AssignSeqsOnDisk(prefix));
  const uint64_t fingerprint = original->StateFingerprint();
  original.reset();

  auto recovered = MakeEngine(config);
  ASSERT_TRUE(recovered->Recover().ok());
  EXPECT_EQ(recovered->StateFingerprint(), fingerprint);
  // Live appends after recovery continue the seq the replay ended on.
  for (WorkerId worker = 7; worker < 10; ++worker) {
    ASSERT_TRUE(recovered->RequestHit(worker).ok());
  }
  EXPECT_EQ(ProvenanceSeqs(*recovered), AssignSeqsOnDisk(prefix));
}

#if QASCA_ENABLE_FAILPOINTS

class CrashPointTest : public ::testing::Test {
 protected:
  void TearDown() override { util::FailPoints::Global().DisarmAll(); }
};

// Runs `events` lifecycle steps, arms `fail_point` before the final step so
// that step's journal append is lost/torn, and verifies recovery lands on
// the state just before the lost step.
void RunCrashPoint(const char* name, const std::string& fail_point) {
  const std::string prefix = FreshJournalPrefix(name);
  const AppConfig config = LeaseConfig(prefix);

  auto engine = MakeEngine(config);
  for (WorkerId worker = 0; worker < 2; ++worker) {
    auto hit = engine->RequestHit(worker);
    ASSERT_TRUE(hit.ok());
    ASSERT_TRUE(engine->CompleteHit(worker, LabelsFor(*hit)).ok());
  }
  const uint64_t durable_fingerprint = engine->StateFingerprint();

  util::FailPoints::Global().Arm(fail_point);
  ASSERT_TRUE(engine->RequestHit(5).ok());  // this append never survives
  EXPECT_EQ(util::FailPoints::Global().TriggeredCount(fail_point), 1u);
  EXPECT_GE(CounterValue(*engine, "failpoint.triggered"), 1);
  engine.reset();
  util::FailPoints::Global().DisarmAll();

  auto recovered = MakeEngine(config);
  ASSERT_TRUE(recovered->Recover().ok());
  EXPECT_EQ(recovered->StateFingerprint(), durable_fingerprint)
      << "recovery after " << fail_point
      << " must land on the last durable state";
}

TEST_F(CrashPointTest, DroppedAppendLosesOnlyTheTail) {
  RunCrashPoint("crash_drop", "journal.drop_append");
}

TEST_F(CrashPointTest, TornAppendLosesOnlyTheTail) {
  RunCrashPoint("crash_torn", "journal.torn_append");
}

TEST_F(CrashPointTest, CrashBetweenCompactionRenameAndTruncateDedupes) {
  const std::string prefix = FreshJournalPrefix("crash_compact");
  const AppConfig config = LeaseConfig(prefix);
  uint64_t fingerprint = 0;
  {
    auto engine = MakeEngine(config);
    for (WorkerId worker = 0; worker < 2; ++worker) {
      auto hit = engine->RequestHit(worker);
      ASSERT_TRUE(hit.ok());
      ASSERT_TRUE(engine->CompleteHit(worker, LabelsFor(*hit)).ok());
    }
    fingerprint = engine->StateFingerprint();
  }
  // The next engine's construction-time compaction renames the snapshot
  // but "crashes" before truncating the log: the log now repeats events
  // the snapshot already covers.
  util::FailPoints::Global().Arm("journal.compact_skip_truncate");
  {
    auto engine = MakeEngine(config);
    ASSERT_TRUE(engine->Recover().ok());
    EXPECT_EQ(engine->StateFingerprint(), fingerprint);
  }
  util::FailPoints::Global().DisarmAll();
  // And the stale log entries must be deduped by seq on the next load too.
  auto engine = MakeEngine(config);
  ASSERT_TRUE(engine->Recover().ok());
  EXPECT_EQ(engine->StateFingerprint(), fingerprint);
}

#endif  // QASCA_ENABLE_FAILPOINTS

}  // namespace
}  // namespace qasca
