#include "platform/provenance.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "platform/engine.h"
#include "platform/qasca_strategy.h"
#include "scoped_test_dir.h"
#include "util/flight_recorder.h"

namespace qasca {
namespace {

DecisionProvenance SampleRecord(uint64_t i) {
  DecisionProvenance record;
  record.journal_seq = i * 2;
  record.worker = static_cast<WorkerId>(i % 5);
  record.questions = {1, 4, 9};
  record.scores = {0.25, 0.125, 0.0625};
  record.objective = 0.75;
  record.outer_iterations = 2;
  record.inner_iterations = 6;
  record.candidates = 40;
  record.em_generation = 3;
  record.now_ticks = i * 7;
  record.lease_deadline = i * 7 + 100;
  return record;
}

TEST(ProvenanceLogTest, RecordRetainsInAppendOrder) {
  ProvenanceLog log(8);
  EXPECT_EQ(log.size(), 0);
  EXPECT_EQ(log.total_appended(), 0);
  for (uint64_t i = 0; i < 3; ++i) log.Record(SampleRecord(i));
  EXPECT_EQ(log.size(), 3);
  EXPECT_EQ(log.total_appended(), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(log.at(i).journal_seq, static_cast<uint64_t>(2 * i));
  }
}

TEST(ProvenanceLogTest, RingWrapKeepsNewestOldestFirst) {
  ProvenanceLog log(4);
  for (uint64_t i = 0; i < 10; ++i) log.Record(SampleRecord(i));
  EXPECT_EQ(log.capacity(), 4);
  EXPECT_EQ(log.size(), 4);
  EXPECT_EQ(log.total_appended(), 10);
  // Records 6..9 survive, oldest first.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(log.at(i).journal_seq, static_cast<uint64_t>(2 * (6 + i)));
  }
}

TEST(ProvenanceLogTest, JsonLinesRoundTripsEveryField) {
  ProvenanceLog log(8);
  log.Record(SampleRecord(0));
  log.Record(SampleRecord(1));
  const std::string dump = log.ToJsonLines();
  // Retired keys are read past, never written.
  EXPECT_EQ(dump.find("cache_hit"), std::string::npos);
  auto parsed = ProvenanceLog::ParseJsonLines(dump);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  for (size_t i = 0; i < parsed->size(); ++i) {
    const DecisionProvenance& got = (*parsed)[i];
    const DecisionProvenance& want = log.at(static_cast<int>(i));
    EXPECT_EQ(got.journal_seq, want.journal_seq);
    EXPECT_EQ(got.worker, want.worker);
    EXPECT_EQ(got.questions, want.questions);
    ASSERT_EQ(got.scores.size(), want.scores.size());
    for (size_t s = 0; s < got.scores.size(); ++s) {
      EXPECT_DOUBLE_EQ(got.scores[s], want.scores[s]);
    }
    EXPECT_DOUBLE_EQ(got.objective, want.objective);
    EXPECT_EQ(got.outer_iterations, want.outer_iterations);
    EXPECT_EQ(got.inner_iterations, want.inner_iterations);
    EXPECT_EQ(got.candidates, want.candidates);
    EXPECT_EQ(got.em_generation, want.em_generation);
    EXPECT_EQ(got.now_ticks, want.now_ticks);
    EXPECT_EQ(got.lease_deadline, want.lease_deadline);
  }
}

TEST(ProvenanceLogTest, ParsesLinesWithRetiredKernelIsaKeys) {
  // Dumps written before the kernel ISA fields, the separate record, trace
  // and HIT ids and the likelihood-cache bit were retired carry six extra
  // keys; they must stay readable, with every other field intact.
  const std::string line =
      "{\"seq\":4,\"trace\":41,\"hit\":4,\"worker\":4,"
      "\"questions\":[1,4,9],\"scores\":[0.25,0.125,0.0625],"
      "\"objective\":0.75,\"outer_iterations\":2,\"inner_iterations\":6,"
      "\"candidates\":40,\"cache_hit\":true,\"em_generation\":3,"
      "\"kernel_isa\":2,\"kernel_isa_name\":\"avx2\",\"journal_seq\":8,"
      "\"ticks\":28,\"deadline\":128}\n";
  auto parsed = ProvenanceLog::ParseJsonLines(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1u);
  const DecisionProvenance& got = (*parsed)[0];
  EXPECT_EQ(got.worker, 4);
  EXPECT_EQ(got.questions, (std::vector<QuestionIndex>{1, 4, 9}));
  EXPECT_EQ(got.em_generation, 3u);
  EXPECT_EQ(got.journal_seq, 8u);
  EXPECT_EQ(got.now_ticks, 28u);
  EXPECT_EQ(got.lease_deadline, 128u);
}

TEST(ProvenanceLogTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(ProvenanceLog::ParseJsonLines("not json").ok());
  EXPECT_FALSE(ProvenanceLog::ParseJsonLines(
                   "{\"seq\": 0, \"questions\": [1, 2], \"scores\": [0.5]}")
                   .ok());
  // Blank lines and trailing newlines are fine.
  auto empty = ProvenanceLog::ParseJsonLines("\n\n");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

AppConfig ObservedConfig() {
  AppConfig config;
  config.name = "provenance-test";
  config.num_questions = 30;
  config.num_labels = 2;
  config.questions_per_hit = 3;
  config.pay_per_hit = 0.02;
  config.budget = 0.02 * 6;  // 6 HITs
  config.metric = MetricSpec::Accuracy();
  config.em.max_iterations = 10;
  config.provenance_enabled = true;
  config.provenance_capacity = 16;
  config.flight_recorder_enabled = true;
  config.flight_recorder_capacity = 4096;
  return config;
}

TEST(ProvenanceEngineTest, EveryAssignmentGetsOneRecord) {
  TaskAssignmentEngine engine(ObservedConfig(),
                              std::make_unique<QascaStrategy>(), /*seed=*/3);
  int assigned = 0;
  while (!engine.BudgetExhausted()) {
    const WorkerId worker = assigned % 3;
    auto hit = engine.RequestHit(worker);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    ++assigned;
    std::vector<LabelIndex> labels(hit->size(), 0);
    ASSERT_TRUE(engine.CompleteHit(worker, labels).ok());
  }
  ASSERT_GT(assigned, 0);

  const ProvenanceLog* log = engine.provenance();
  ASSERT_NE(log, nullptr);
  EXPECT_EQ(log->total_appended(), assigned);
  EXPECT_EQ(log->size(), assigned);
  for (int i = 0; i < log->size(); ++i) {
    const DecisionProvenance& record = log->at(i);
    EXPECT_EQ(record.questions.size(), 3u);
    EXPECT_EQ(record.scores.size(), 3u);
    EXPECT_TRUE(std::is_sorted(record.questions.begin(),
                               record.questions.end()));
    EXPECT_GT(record.candidates, 0);
    // Requests and completions alternate, each taking one seq.
    EXPECT_EQ(record.journal_seq, static_cast<uint64_t>(2 * i));
  }

  // The failed request after budget exhaustion must not have appended.
  auto rejected = engine.RequestHit(0);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(log->total_appended(), assigned);

  // The flight recorder captured the same workflow: its export names every
  // nested assignment stage and references the recorded trace ids.
  const util::FlightRecorder* recorder = engine.flight_recorder();
  ASSERT_NE(recorder, nullptr);
  const std::string trace = recorder->ToChromeJson();
  for (const char* stage :
       {"assign_hit", "estimate_qw", "qw_sampled_batch", "topk_scan",
        "complete_hit"}) {
    EXPECT_NE(trace.find(stage), std::string::npos) << stage;
  }
}

// Seqs of the assignment lines in the journal file at `prefix`.
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

std::vector<uint64_t> RecordSeqs(const TaskAssignmentEngine& engine) {
  std::vector<uint64_t> seqs;
  for (int i = 0; i < engine.provenance()->size(); ++i) {
    seqs.push_back(engine.provenance()->at(i).journal_seq);
  }
  return seqs;
}

// The "trace" args of the assign_hit begin events in a Chrome JSON export.
std::set<uint64_t> AssignHitTraceIds(const std::string& trace) {
  static const std::regex kAssignBegin(
      "\\{\"name\":\"assign_hit\",\"cat\":\"qasca\",\"ph\":\"B\"[^}]*"
      "\"args\":\\{\"trace\":([0-9]+)\\}");
  std::set<uint64_t> ids;
  for (auto it = std::sregex_iterator(trace.begin(), trace.end(), kAssignBegin);
       it != std::sregex_iterator(); ++it) {
    ids.insert(std::stoull((*it)[1].str()));
  }
  return ids;
}

// One id per event: with a journal, leases and ticks (which take seqs no
// assignment gets), every provenance record carries the seq of its
// assignment's journal line, recovery rebuilds the same seqs, and the
// request's spans carry it as their trace id.
TEST(ProvenanceEngineTest, JournalSeqJoinsRecordsSpansAndJournalLines) {
  ScopedTestDir dir;
  AppConfig config = ObservedConfig();
  config.num_questions = 12;
  config.budget = 0.02 * 20;
  config.lease_timeout_ticks = 2;
  config.persistence_path = dir.path() + "/app";
  const std::string prefix = config.persistence_path;
  auto engine = std::make_unique<TaskAssignmentEngine>(
      config, std::make_unique<QascaStrategy>(), /*seed=*/3);
  // Workers 0 and 1 answer; worker 2's lease expires under a tick.
  for (int round = 0; round < 6; ++round) {
    const WorkerId worker = round % 3;
    auto hit = engine->RequestHit(worker);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    if (worker == 2) {
      ASSERT_EQ(engine->Tick(2), 1);
    } else {
      ASSERT_TRUE(
          engine->CompleteHit(worker, std::vector<LabelIndex>(3, 0)).ok());
    }
  }
  // Worker 0 answers until fewer than k unseen questions remain. The
  // rejected request journals nothing: the journal's assignment lines are
  // exactly the 8 recorded assignments.
  util::StatusOr<std::vector<QuestionIndex>> hit = engine->RequestHit(0);
  while (hit.ok()) {
    ASSERT_TRUE(
        engine->CompleteHit(0, std::vector<LabelIndex>(3, 1)).ok());
    hit = engine->RequestHit(0);
  }
  EXPECT_EQ(hit.status().code(), util::StatusCode::kNotFound);

  const std::vector<uint64_t> seqs = RecordSeqs(*engine);
  EXPECT_EQ(engine->provenance()->total_appended(), 8);
  EXPECT_EQ(seqs, AssignSeqsOnDisk(prefix));
  const std::set<uint64_t> traced =
      AssignHitTraceIds(engine->flight_recorder()->ToChromeJson());
  for (uint64_t seq : seqs) {
    EXPECT_TRUE(traced.contains(seq)) << "no assign_hit span for seq " << seq;
  }

  engine.reset();
  auto recovered = std::make_unique<TaskAssignmentEngine>(
      config, std::make_unique<QascaStrategy>(), /*seed=*/3);
  ASSERT_TRUE(recovered->Recover().ok());
  EXPECT_EQ(RecordSeqs(*recovered), seqs);
}

TEST(ProvenanceEngineTest, DisabledByDefault) {
  AppConfig config = ObservedConfig();
  config.provenance_enabled = false;
  config.flight_recorder_enabled = false;
  TaskAssignmentEngine engine(std::move(config),
                              std::make_unique<QascaStrategy>(), /*seed=*/3);
  ASSERT_TRUE(engine.RequestHit(0).ok());
  EXPECT_EQ(engine.provenance(), nullptr);
  EXPECT_EQ(engine.flight_recorder(), nullptr);
}

}  // namespace
}  // namespace qasca
