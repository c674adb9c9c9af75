// Unit coverage for the HIT-lifecycle robustness layer (ISSUE 5): every
// new Status branch in Engine::CompleteHit / Engine::Recover, the lease
// expiry/requeue mechanics, the telemetry counters they increment, the
// journal file's load rules (torn tails cut, damage refused) and its crash
// points (fail-point driven, so those tests are compiled out with
// QASCA_ENABLE_FAILPOINTS=0). The end-to-end seeded storm lives in
// tests/integration/lifecycle_stress_test.cc; this file isolates each
// branch.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
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
  ScopedTestDir dir;
  const AppConfig config = LeaseConfig(dir.path() + "/app");

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
  ScopedTestDir dir;
  const AppConfig config = LeaseConfig(dir.path() + "/app");
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
  ScopedTestDir dir;
  auto engine = MakeEngine(LeaseConfig(dir.path() + "/app"));
  ASSERT_TRUE(engine->RequestHit(7).ok());
  ASSERT_EQ(engine->Tick(2), 1);
  ASSERT_EQ(engine->assigned_hits(), 0);
  EXPECT_DEATH((void)engine->Recover(), "Check failed");
}

// --- journal memory and the provenance seq join ----------------------------

// Seqs of the assignment lines in the journal file.
std::vector<uint64_t> AssignSeqsOnDisk(const std::string& prefix) {
  std::vector<uint64_t> seqs;
  std::ifstream in(prefix + ".log");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    uint64_t seq = 0;
    std::string kind;
    if (fields >> seq >> kind && kind == "A") seqs.push_back(seq);
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

  // Everything appended reached the file: a third load sees all 83, and
  // the file is the journal's only one.
  LifecycleJournal reloaded(prefix);
  EXPECT_EQ(reloaded.events().size(), 83u);
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"journal.log"});
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

// --- the journal file: torn tails, damage, an unopenable path ------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// Appends `count` events that cycle through assignment, completion and tick.
void WriteMixedJournal(const std::string& prefix, int count) {
  LifecycleJournal journal(prefix);
  for (int i = 0; i < count; ++i) {
    const WorkerId worker = i % 7;
    switch (i % 3) {
      case 0:
        ASSERT_TRUE(journal.AppendAssign(worker, {i % 12, (i + 5) % 12}).ok());
        break;
      case 1:
        ASSERT_TRUE(journal.AppendComplete(worker, {i % 2, 1}).ok());
        break;
      default:
        ASSERT_TRUE(journal.AppendTick(1 + i % 4).ok());
    }
  }
}

bool SameEvent(const LifecycleJournal::Event& a,
               const LifecycleJournal::Event& b) {
  return a.seq == b.seq && a.kind == b.kind && a.worker == b.worker &&
         a.ticks == b.ticks && a.questions == b.questions &&
         a.labels == b.labels;
}

// The log path is briefly unopenable for one append (a directory stands in
// its place), then restored. Every append that returned OK must load; none
// may be lost behind the failed one.
TEST(JournalTest, EveryAcknowledgedAppendSurvivesABrieflyUnopenablePath) {
  ScopedTestDir dir;
  const std::string prefix = dir.path() + "/journal";
  const std::string log = prefix + ".log";
  const std::string moved = dir.path() + "/moved";
  std::vector<WorkerId> acknowledged;
  {
    LifecycleJournal journal(prefix);
    const auto append = [&](WorkerId worker) {
      if (journal.AppendAssign(worker, {worker}).ok()) {
        acknowledged.push_back(worker);
      }
    };
    for (WorkerId worker = 0; worker < 3; ++worker) append(worker);
    ASSERT_EQ(std::rename(log.c_str(), moved.c_str()), 0);
    ASSERT_TRUE(std::filesystem::create_directory(log));
    append(3);
    ASSERT_TRUE(std::filesystem::remove(log));
    ASSERT_EQ(std::rename(moved.c_str(), log.c_str()), 0);
    for (WorkerId worker = 4; worker < 7; ++worker) append(worker);
  }
  LifecycleJournal loaded(prefix);
  ASSERT_EQ(loaded.events().size(), acknowledged.size());
  for (size_t i = 0; i < acknowledged.size(); ++i) {
    EXPECT_EQ(loaded.events()[i].seq, i);
    EXPECT_EQ(loaded.events()[i].worker, acknowledged[i]);
  }
}

// A crash can stop an append at any byte. Whatever prefix of the file
// survives, the load keeps exactly the lines whose newline made it, cuts
// the rest off the file, and the next append continues the seq.
TEST(JournalTest, ACrashAtEveryByteKeepsExactlyTheWholeLinesBeforeIt) {
  ScopedTestDir dir;
  const std::string source = dir.path() + "/source";
  WriteMixedJournal(source, 40);
  const std::string bytes = ReadFile(source + ".log");
  const LifecycleJournal full(source);
  ASSERT_EQ(full.events().size(), 40u);

  const std::string cut = dir.path() + "/cut";
  for (size_t b = 0; b <= bytes.size(); ++b) {
    const std::string survived = bytes.substr(0, b);
    WriteFile(cut + ".log", survived);
    const size_t whole = static_cast<size_t>(
        std::count(survived.begin(), survived.end(), '\n'));
    const size_t whole_bytes = survived.rfind('\n') + 1;  // npos + 1 == 0
    {
      LifecycleJournal journal(cut);
      ASSERT_EQ(journal.events().size(), whole) << "cut at byte " << b;
      for (size_t i = 0; i < whole; ++i) {
        ASSERT_TRUE(SameEvent(journal.events()[i], full.events()[i]))
            << "cut at byte " << b << ", event " << i;
      }
      ASSERT_EQ(std::filesystem::file_size(cut + ".log"), whole_bytes)
          << "cut at byte " << b;
      ASSERT_TRUE(journal.AppendTick(9).ok());
    }
    LifecycleJournal reloaded(cut);
    ASSERT_EQ(reloaded.events().size(), whole + 1) << "cut at byte " << b;
    for (size_t i = 0; i <= whole; ++i) {
      ASSERT_EQ(reloaded.events()[i].seq, i) << "cut at byte " << b;
    }
    EXPECT_EQ(reloaded.events().back().kind,
              LifecycleJournal::Event::Kind::kTick);
    EXPECT_EQ(reloaded.events().back().ticks, 9u);
  }
}

// Only a crash's torn tail is forgiven: a whole line that does not parse is
// corruption. The flipped bit turns the kind letter A, C or T into @, B or
// U.
TEST(JournalDeathTest, AFlippedByteInAMiddleLineIsRefused) {
  ScopedTestDir dir;
  const std::string prefix = dir.path() + "/journal";
  WriteMixedJournal(prefix, 9);
  std::string bytes = ReadFile(prefix + ".log");
  size_t line_start = 0;
  for (int line = 0; line < 4; ++line) {
    line_start = bytes.find('\n', line_start) + 1;
  }
  bytes[bytes.find(' ', line_start) + 1] ^= 0x01;
  WriteFile(prefix + ".log", bytes);
  EXPECT_DEATH({ LifecycleJournal journal(prefix); }, "corrupt journal line");
}

// A file whose first seq is not 0 holds a suffix of some history; replaying
// it would recover a state that never existed.
TEST(JournalDeathTest, AFirstSeqOtherThanZeroIsRefused) {
  ScopedTestDir dir;
  const std::string prefix = dir.path() + "/journal";
  WriteMixedJournal(prefix, 6);
  const std::string bytes = ReadFile(prefix + ".log");
  WriteFile(prefix + ".log", bytes.substr(bytes.find('\n') + 1));
  EXPECT_DEATH({ LifecycleJournal journal(prefix); }, "journal seq gap");
}

#if QASCA_ENABLE_FAILPOINTS

class CrashPointTest : public ::testing::Test {
 protected:
  void TearDown() override { util::FailPoints::Global().DisarmAll(); }
};

// Runs `events` lifecycle steps, arms `fail_point` before the final step so
// that step's journal append is lost/torn, and verifies recovery lands on
// the state just before the lost step.
void RunCrashPoint(const std::string& fail_point) {
  ScopedTestDir dir;
  const AppConfig config = LeaseConfig(dir.path() + "/app");

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
  // Nothing is written past the lost record.
  EXPECT_EQ(engine->RequestHit(6).status().code(),
            util::StatusCode::kInternal);
  engine.reset();
  util::FailPoints::Global().DisarmAll();

  auto recovered = MakeEngine(config);
  ASSERT_TRUE(recovered->Recover().ok());
  EXPECT_EQ(recovered->StateFingerprint(), durable_fingerprint)
      << "recovery after " << fail_point
      << " must land on the last durable state";
}

TEST_F(CrashPointTest, DroppedAppendLosesOnlyTheTail) {
  RunCrashPoint("journal.drop_append");
}

TEST_F(CrashPointTest, TornAppendLosesOnlyTheTail) {
  RunCrashPoint("journal.torn_append");
}

using CrashPointDeathTest = CrashPointTest;

// A write the stream reports as failed is fail-stop: that append and every
// later one return Internal (a Tick, which has no error channel, aborts),
// and recovery lands on the last acknowledged state.
TEST_F(CrashPointDeathTest, FailedAppendRefusesEveryLaterAppend) {
  ScopedTestDir dir;
  const AppConfig config = LeaseConfig(dir.path() + "/app");
  auto engine = MakeEngine(config);
  for (WorkerId worker = 0; worker < 2; ++worker) {
    auto hit = engine->RequestHit(worker);
    ASSERT_TRUE(hit.ok());
    ASSERT_TRUE(engine->CompleteHit(worker, LabelsFor(*hit)).ok());
  }
  auto open = engine->RequestHit(9);
  ASSERT_TRUE(open.ok());
  const uint64_t acknowledged = engine->StateFingerprint();

  util::FailPoints::Global().Arm("journal.fail_append");
  EXPECT_EQ(engine->RequestHit(5).status().code(),
            util::StatusCode::kInternal);
  EXPECT_EQ(util::FailPoints::Global().TriggeredCount("journal.fail_append"),
            1u);
  util::FailPoints::Global().DisarmAll();
  EXPECT_EQ(engine->RequestHit(6).status().code(),
            util::StatusCode::kInternal);
  EXPECT_EQ(engine->CompleteHit(9, LabelsFor(*open)).code(),
            util::StatusCode::kInternal);
  EXPECT_DEATH(engine->Tick(1), "journal append failed");
  engine.reset();

  auto recovered = MakeEngine(config);
  ASSERT_TRUE(recovered->Recover().ok());
  EXPECT_EQ(recovered->StateFingerprint(), acknowledged);
}

#endif  // QASCA_ENABLE_FAILPOINTS

}  // namespace
}  // namespace qasca
