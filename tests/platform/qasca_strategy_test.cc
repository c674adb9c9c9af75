// QascaStrategy's prepared F-score inputs: the engine rebuilds them after
// every Qc change, so each request reads inputs equal to a fresh
// PrepareFScoreCurrent of the current Qc; and a request rebuilds inputs
// that a Qc change made without the strategy's knowledge left stale.

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/assignment/fscore_online.h"
#include "platform/database.h"
#include "platform/engine.h"
#include "platform/qasca_strategy.h"
#include "scoped_test_dir.h"

namespace qasca {
namespace {

constexpr double kAlpha = 0.6;

AppConfig FScoreConfig(int em_refresh_interval,
                       const std::string& persistence) {
  AppConfig config;
  config.name = "prepared_inputs";
  config.num_questions = 40;
  config.num_labels = 2;
  config.questions_per_hit = 3;
  config.pay_per_hit = 0.02;
  config.budget = 0.02 * 60;
  config.metric = MetricSpec::FScore(kAlpha, /*target_label=*/1);
  config.em.max_iterations = 8;
  config.em_refresh_interval = em_refresh_interval;
  config.lease_timeout_ticks = 2;
  config.persistence_path = persistence;
  return config;
}

FScoreAssignmentOptions Options() {
  FScoreAssignmentOptions options;
  options.alpha = kAlpha;
  options.target_label = 1;
  options.warm_start = true;
  return options;
}

std::unique_ptr<TaskAssignmentEngine> MakeEngine(const AppConfig& config) {
  return std::make_unique<TaskAssignmentEngine>(
      config, std::make_unique<QascaStrategy>(), /*seed=*/5);
}

// A deterministic answer per (worker, question), wrong for about a quarter
// of the pairs, so the fitted worker models differ.
std::vector<LabelIndex> Answers(WorkerId worker,
                                const std::vector<QuestionIndex>& hit) {
  std::vector<LabelIndex> labels;
  for (QuestionIndex q : hit) {
    uint64_t h = (static_cast<uint64_t>(worker) * 1000003u +
                  static_cast<uint64_t>(q) + 1) *
                 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
    labels.push_back((q + (h % 100 < 25 ? 1 : 0)) % 2);
  }
  return labels;
}

::testing::AssertionResult PreparedForCurrentQc(
    const TaskAssignmentEngine& engine) {
  const auto* strategy =
      dynamic_cast<const QascaStrategy*>(&engine.strategy());
  if (strategy == nullptr || strategy->prepared_fscore() == nullptr) {
    return ::testing::AssertionFailure() << "no prepared F-score inputs";
  }
  if (!IdenticalBits(*strategy->prepared_fscore(),
                     PrepareFScoreCurrent(engine.database().current(),
                                          Options()))) {
    return ::testing::AssertionFailure()
           << "prepared inputs differ from a fresh preparation";
  }
  return ::testing::AssertionSuccess();
}

class PreparedInputsTest : public ::testing::TestWithParam<int> {};

TEST_P(PreparedInputsTest, MatchAFreshPreparationAfterEveryCompletion) {
  ScopedTestDir dir;
  const AppConfig config = FScoreConfig(GetParam(), dir.path() + "/app");
  auto engine = MakeEngine(config);
  EXPECT_TRUE(PreparedForCurrentQc(*engine));

  int completions = 0;
  int expired = 0;
  for (int round = 0; round < 30 && !engine->BudgetExhausted(); ++round) {
    // Workers 0-3 ask as one batch, workers 4 and 5 one by one. A worker
    // still holding an abandoned HIT is refused until its lease expires.
    std::unordered_map<WorkerId, std::vector<QuestionIndex>> hits;
    const std::vector<WorkerId> batch = {0, 1, 2, 3};
    const auto served = engine->ServeRequestBatch(batch);
    for (size_t b = 0; b < batch.size(); ++b) {
      if (served[b].ok()) hits[batch[b]] = *served[b];
    }
    for (WorkerId worker : {4, 5}) {
      auto hit = engine->RequestHit(worker);
      if (hit.ok()) hits[worker] = *hit;
    }
    for (WorkerId worker = 0; worker < 6; ++worker) {
      auto it = hits.find(worker);
      if (it == hits.end()) continue;
      // One HIT in five is abandoned and left to expire.
      if ((worker + round) % 5 == 0) continue;
      ASSERT_TRUE(engine->CompleteHit(worker, Answers(worker, it->second))
                      .ok());
      ++completions;
      EXPECT_TRUE(PreparedForCurrentQc(*engine))
          << "round " << round << ", worker " << worker;
    }
    expired += engine->Tick(1);
    if (round == 12) {
      // Crash: a fresh engine replays the journal.
      engine = MakeEngine(config);
      ASSERT_TRUE(engine->Recover().ok());
      EXPECT_TRUE(PreparedForCurrentQc(*engine)) << "after recovery";
    }
  }
  EXPECT_GT(completions, 40);
  EXPECT_GT(expired, 0);
  if (GetParam() > 1) {
    EXPECT_GT(engine->incremental_refreshes(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(EmRefreshInterval, PreparedInputsTest,
                         ::testing::Values(1, 8));

TEST(QascaStrategyTest, RequestRebuildsInputsLeftStaleByAnUnannouncedQcChange) {
  const int n = 12;
  const int k = 3;
  Database database(n, 2);
  const MetricSpec metric = MetricSpec::FScore(kAlpha, /*target_label=*/1);
  QascaStrategy strategy;
  strategy.PrepareForQc(database, metric);
  ASSERT_NE(strategy.prepared_fscore(), nullptr);
  const FScoreCurrent stale = *strategy.prepared_fscore();

  // Qc changes without the strategy's knowledge: half of the questions
  // become near-certain targets.
  for (QuestionIndex i = 0; i < n; i += 2) {
    database.UpdatePosteriorRow(i, std::vector<double>{0.05, 0.95});
  }
  const FScoreCurrent fresh =
      PrepareFScoreCurrent(database.current(), Options());
  ASSERT_FALSE(IdenticalBits(stale, fresh));

  // Read stale, the inputs would assign against the old Qc.
  std::vector<QuestionIndex> candidates;
  for (QuestionIndex i = 0; i < n; ++i) candidates.push_back(i);
  AssignmentRequest request;
  request.current = &database.current();
  request.estimated = &database.current();
  request.candidates = candidates;
  request.k = k;
  EXPECT_NE(AssignFScoreOnline(request, stale).objective,
            AssignFScoreOnline(request, fresh).objective);

  util::Rng rng(3);
  StrategyContext context;
  context.database = &database;
  context.metric = &metric;
  context.worker_model = &database.parameters().WorkerFor(1);
  context.rng = &rng;
  const std::vector<QuestionIndex> selected =
      strategy.SelectQuestions(context, candidates, k);
  EXPECT_TRUE(IdenticalBits(*strategy.prepared_fscore(), fresh));

  // The request decided as a strategy told about the change does.
  QascaStrategy told;
  told.PrepareForQc(database, metric);
  util::Rng same_stream(3);
  context.rng = &same_stream;
  EXPECT_EQ(told.SelectQuestions(context, candidates, k), selected);
}

TEST(QascaStrategyTest, AccuracyAppsPrepareNothing) {
  Database database(6, 2);
  QascaStrategy strategy;
  strategy.PrepareForQc(database, MetricSpec::Accuracy());
  EXPECT_EQ(strategy.prepared_fscore(), nullptr);
}

}  // namespace
}  // namespace qasca
