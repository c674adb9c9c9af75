#include "platform/engine.h"

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/random_strategy.h"
#include "platform/qasca_strategy.h"
#include "util/telemetry_names.h"

namespace qasca {
namespace {

AppConfig SmallConfig() {
  AppConfig config;
  config.name = "test";
  config.num_questions = 12;
  config.num_labels = 2;
  config.questions_per_hit = 3;
  config.pay_per_hit = 0.02;
  config.budget = 0.02 * 8;  // 8 HITs
  config.metric = MetricSpec::Accuracy();
  config.em.max_iterations = 10;
  return config;
}

std::unique_ptr<TaskAssignmentEngine> MakeEngine(
    AppConfig config = SmallConfig()) {
  return std::make_unique<TaskAssignmentEngine>(
      std::move(config), std::make_unique<QascaStrategy>(), /*seed=*/1);
}

TEST(EngineTest, RequestReturnsKDistinctQuestions) {
  auto engine = MakeEngine();
  auto hit = engine->RequestHit(1);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->size(), 3u);
  std::set<QuestionIndex> unique(hit->begin(), hit->end());
  EXPECT_EQ(unique.size(), 3u);
}

TEST(EngineTest, SameWorkerNeverSeesSameQuestionTwice) {
  auto engine = MakeEngine();
  std::set<QuestionIndex> seen;
  for (int round = 0; round < 4; ++round) {
    auto hit = engine->RequestHit(1);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    for (QuestionIndex q : *hit) {
      EXPECT_TRUE(seen.insert(q).second) << "duplicate question " << q;
    }
    ASSERT_TRUE(engine->CompleteHit(1, {0, 0, 0}).ok());
  }
  EXPECT_EQ(seen.size(), 12u);
}

TEST(EngineTest, WorkerPoolExhaustionReturnsNotFound) {
  auto engine = MakeEngine();
  for (int round = 0; round < 4; ++round) {
    auto hit = engine->RequestHit(1);
    ASSERT_TRUE(hit.ok());
    ASSERT_TRUE(engine->CompleteHit(1, {0, 0, 0}).ok());
  }
  // All 12 questions assigned to worker 1; a 5th request must fail.
  auto hit = engine->RequestHit(1);
  EXPECT_EQ(hit.status().code(), util::StatusCode::kNotFound);
}

TEST(EngineTest, OpenHitBlocksSecondRequest) {
  auto engine = MakeEngine();
  ASSERT_TRUE(engine->RequestHit(1).ok());
  auto second = engine->RequestHit(1);
  EXPECT_EQ(second.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(EngineTest, CompleteWithoutOpenHitFails) {
  auto engine = MakeEngine();
  util::Status status = engine->CompleteHit(1, {0, 0, 0});
  EXPECT_EQ(status.code(), util::StatusCode::kNotFound);
}

TEST(EngineTest, CompleteWithWrongAnswerCountFails) {
  auto engine = MakeEngine();
  ASSERT_TRUE(engine->RequestHit(1).ok());
  util::Status status = engine->CompleteHit(1, {0, 0});
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
}

TEST(EngineTest, CompleteWithBadLabelFails) {
  auto engine = MakeEngine();
  ASSERT_TRUE(engine->RequestHit(1).ok());
  util::Status status = engine->CompleteHit(1, {0, 0, 5});
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
}

TEST(EngineTest, BudgetExhaustionStopsAssignment) {
  auto engine = MakeEngine();
  for (int round = 0; round < 8; ++round) {
    WorkerId worker = round % 4;
    auto hit = engine->RequestHit(worker);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    ASSERT_TRUE(engine->CompleteHit(worker, {0, 1, 0}).ok());
  }
  EXPECT_TRUE(engine->BudgetExhausted());
  auto hit = engine->RequestHit(9);
  EXPECT_EQ(hit.status().code(), util::StatusCode::kResourceExhausted);
}

TEST(EngineTest, CompletionUpdatesAnswersAndParameters) {
  auto engine = MakeEngine();
  auto hit = engine->RequestHit(1);
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(engine->CompleteHit(1, {1, 1, 1}).ok());
  EXPECT_EQ(engine->completed_hits(), 1);
  int total_answers = 0;
  for (const auto& list : engine->database().answers()) {
    total_answers += static_cast<int>(list.size());
  }
  EXPECT_EQ(total_answers, 3);
  // The worker has a fitted model now.
  EXPECT_TRUE(engine->database().parameters().workers.contains(1));
}

TEST(EngineTest, UnanimousAnswersMoveResults) {
  auto engine = MakeEngine();
  // Three workers all answer label 1 on their HITs.
  for (WorkerId w : {1, 2, 3}) {
    auto hit = engine->RequestHit(w);
    ASSERT_TRUE(hit.ok());
    ASSERT_TRUE(engine->CompleteHit(w, {1, 1, 1}).ok());
  }
  ResultVector results = engine->CurrentResults();
  int label_one = 0;
  for (LabelIndex r : results) label_one += r == 1 ? 1 : 0;
  EXPECT_GE(label_one, 3);  // at least the answered questions
}

TEST(EngineTest, TracksAssignmentTimes) {
  auto engine = MakeEngine();
  EXPECT_EQ(engine->max_assignment_seconds(), 0.0);
  ASSERT_TRUE(engine->RequestHit(1).ok());
  const double first = engine->max_assignment_seconds();
  EXPECT_GT(first, 0.0);
  ASSERT_TRUE(engine->RequestHit(2).ok());
  EXPECT_GE(engine->max_assignment_seconds(), first);
}

TEST(EngineTest, QualityAgainstTruthUsesMetric) {
  auto engine = MakeEngine();
  GroundTruthVector truth(12, 0);
  double quality = engine->QualityAgainstTruth(truth);
  EXPECT_GE(quality, 0.0);
  EXPECT_LE(quality, 1.0);
}

TEST(EngineTest, FScoreMetricEngineRuns) {
  AppConfig config = SmallConfig();
  config.metric = MetricSpec::FScore(0.75, 0);
  auto engine = MakeEngine(config);
  for (int round = 0; round < 4; ++round) {
    WorkerId worker = round;
    auto hit = engine->RequestHit(worker);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    ASSERT_TRUE(engine->CompleteHit(worker, {0, 1, 0}).ok());
  }
  EXPECT_EQ(engine->completed_hits(), 4);
}

TEST(EngineTest, CostAccuracyMetricEngineRuns) {
  AppConfig config = SmallConfig();
  config.metric = MetricSpec::CostAccuracy({0.0, 4.0, 1.0, 0.0});
  ASSERT_TRUE(config.Validate().ok());
  auto engine = MakeEngine(config);
  for (int round = 0; round < 4; ++round) {
    auto hit = engine->RequestHit(round);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    ASSERT_TRUE(engine->CompleteHit(round, {0, 1, 0}).ok());
  }
  EXPECT_EQ(engine->completed_hits(), 4);
  // The engine's result inference uses the cost-optimal rule.
  ResultVector results = engine->CurrentResults();
  EXPECT_EQ(results.size(), 12u);
}

TEST(EngineTest, CostAccuracyConfigValidation) {
  AppConfig config = SmallConfig();
  config.metric = MetricSpec::CostAccuracy({0.0, 1.0});  // wrong shape
  EXPECT_FALSE(config.Validate().ok());
  config.metric = MetricSpec::CostAccuracy({0.5, 1.0, 1.0, 0.0});  // diagonal
  EXPECT_FALSE(config.Validate().ok());
  config.metric = MetricSpec::CostAccuracy({0.0, -1.0, 1.0, 0.0});  // negative
  EXPECT_FALSE(config.Validate().ok());
  config.metric = MetricSpec::CostAccuracy({0.0, 0.0, 0.0, 0.0});  // all zero
  EXPECT_FALSE(config.Validate().ok());
}

TEST(EngineTest, WarmStartEmOptionRuns) {
  AppConfig config = SmallConfig();
  config.warm_start_em = true;
  auto engine = MakeEngine(config);
  for (int round = 0; round < 4; ++round) {
    auto hit = engine->RequestHit(round);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    ASSERT_TRUE(engine->CompleteHit(round, {0, 1, 0}).ok());
  }
  EXPECT_EQ(engine->completed_hits(), 4);
  EXPECT_TRUE(engine->database().current().IsNormalized(1e-9));
}

TEST(EngineTest, RandomStrategyEngineRuns) {
  TaskAssignmentEngine engine(SmallConfig(),
                              std::make_unique<RandomStrategy>(), 3);
  auto hit = engine.RequestHit(0);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(engine.CompleteHit(0, {0, 1, 1}).ok());
}

// Picks the first k candidates and records whether the core handed it a
// typical-worker model.
class TypicalWorkerProbe final : public AssignmentStrategy {
 public:
  TypicalWorkerProbe(bool reads, std::vector<bool>* seen)
      : reads_(reads), seen_(seen) {}
  std::string name() const override { return "TypicalWorkerProbe"; }
  bool ReadsTypicalWorker() const override { return reads_; }
  std::vector<QuestionIndex> SelectQuestions(
      const StrategyContext& context,
      const std::vector<QuestionIndex>& candidates, int k) override {
    seen_->push_back(context.typical_worker != nullptr);
    return {candidates.begin(), candidates.begin() + k};
  }

 private:
  bool reads_;
  std::vector<bool>* seen_;
};

TEST(EngineTest, TypicalWorkerIsBuiltOnlyForStrategiesThatReadIt) {
  for (bool reads : {false, true}) {
    std::vector<bool> seen;
    TaskAssignmentEngine engine(
        SmallConfig(), std::make_unique<TypicalWorkerProbe>(reads, &seen),
        /*seed=*/1);
    for (WorkerId worker : {1, 2}) {
      ASSERT_TRUE(engine.RequestHit(worker).ok());
      ASSERT_TRUE(engine.CompleteHit(worker, {0, 1, 0}).ok());
    }
    ASSERT_EQ(engine.ServeRequestBatch({3, 4}).size(), 2u);
    EXPECT_EQ(seen, std::vector<bool>(4, reads)) << "reads=" << reads;
  }
}

int64_t CounterValue(const TaskAssignmentEngine& engine,
                     std::string_view name) {
  for (const util::CounterSnapshot& c : engine.TelemetrySnapshot().counters) {
    if (c.name == name) return c.value;
  }
  return -1;  // instrument not present
}

TEST(EngineTest, CacheTelemetryShowsHitsAndInvalidation) {
  AppConfig config;
  config.name = "cache-telemetry";
  config.num_questions = 36;
  config.num_labels = 2;
  config.questions_per_hit = 3;
  config.pay_per_hit = 0.02;
  config.budget = 0.02 * 20;  // 20 HITs
  config.metric = MetricSpec::Accuracy();
  config.worker_kind = WorkerModel::Kind::kConfusionMatrix;
  config.em.max_iterations = 15;
  config.em_refresh_interval = 3;
  config.telemetry_enabled = true;
  TaskAssignmentEngine engine(config, std::make_unique<QascaStrategy>(),
                              /*seed=*/7);
  int round = 0;
  while (!engine.BudgetExhausted()) {
    const WorkerId worker = round++ % 6;
    auto hit = engine.RequestHit(worker);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    // A deterministic answer per (worker, question), wrong for about 25%
    // of the pairs, so the workers' fitted models differ.
    std::vector<LabelIndex> labels;
    for (QuestionIndex q : *hit) {
      uint64_t h = (static_cast<uint64_t>(worker) * 1000003u +
                    static_cast<uint64_t>(q) + 1) *
                   0x9e3779b97f4a7c15ull;
      h ^= h >> 31;
      h *= 0xbf58476d1ce4e5b9ull;
      h ^= h >> 27;
      labels.push_back((q + (h % 100 < 25 ? 1 : 0)) % 2);
    }
    ASSERT_TRUE(engine.CompleteHit(worker, labels).ok());
  }
  const int64_t hits =
      CounterValue(engine, util::tnames::kQwLikelihoodCacheHits);
  const int64_t misses =
      CounterValue(engine, util::tnames::kQwLikelihoodCacheMisses);
  // 20 HITs from 6 workers with a refit every 3rd completion: every Qw
  // request and incremental posterior refresh resolves through the cache,
  // and invalidation forces fresh misses after each refit — so both
  // counters must be active.
  EXPECT_GE(hits + misses, 20);
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);
  // Every request samples one answer per candidate row.
  EXPECT_GT(CounterValue(engine, util::tnames::kQwSamplesDrawn), 0);
}

TEST(EngineDeathTest, InvalidConfigAborts) {
  AppConfig config = SmallConfig();
  config.num_questions = 0;
  // The Database member aborts on the zero question count before the
  // config-validation check runs; either way construction must die.
  EXPECT_DEATH(TaskAssignmentEngine(config, std::make_unique<QascaStrategy>(),
                                    1),
               "Check failed");
}

}  // namespace
}  // namespace qasca
