#include <memory>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/askit.h"
#include "baselines/cdas.h"
#include "baselines/exp_loss.h"
#include "baselines/max_margin.h"
#include "baselines/random_strategy.h"
#include "platform/database.h"
#include "platform/qasca_strategy.h"
#include "util/rng.h"

namespace qasca {
namespace {

// Test fixture wiring a Database with configurable rows into a
// StrategyContext.
class StrategyTest : public ::testing::Test {
 protected:
  StrategyTest()
      : db_(6, 2),
        worker_model_(WorkerModel::Wp(0.8, 2)),
        typical_(WorkerModel::Wp(0.75, 2)),
        rng_(42) {
    metric_ = MetricSpec::Accuracy();
    context_.database = &db_;
    context_.metric = &metric_;
    context_.worker_model = &worker_model_;
    context_.typical_worker = &typical_;
    context_.rng = &rng_;
  }

  void SetTargetProbs(const std::vector<double>& probs) {
    DistributionMatrix qc(db_.num_questions(), 2);
    for (size_t i = 0; i < probs.size(); ++i) {
      qc.SetRow(static_cast<int>(i),
                std::vector<double>{probs[i], 1.0 - probs[i]});
    }
    EmResult parameters = db_.parameters();
    parameters.posterior = std::move(qc);
    db_.SetParameters(std::move(parameters));
  }

  std::vector<QuestionIndex> AllCandidates() const {
    return {0, 1, 2, 3, 4, 5};
  }

  Database db_;
  MetricSpec metric_;
  WorkerModel worker_model_;
  WorkerModel typical_;
  util::Rng rng_;
  StrategyContext context_;
};

TEST_F(StrategyTest, RandomReturnsDistinctSubset) {
  RandomStrategy strategy;
  for (int trial = 0; trial < 20; ++trial) {
    auto selected = strategy.SelectQuestions(context_, AllCandidates(), 3);
    EXPECT_EQ(selected.size(), 3u);
    std::set<QuestionIndex> unique(selected.begin(), selected.end());
    EXPECT_EQ(unique.size(), 3u);
  }
}

TEST_F(StrategyTest, RandomCoversWholePoolOverTime) {
  RandomStrategy strategy;
  std::set<QuestionIndex> seen;
  for (int trial = 0; trial < 100; ++trial) {
    for (QuestionIndex q :
         strategy.SelectQuestions(context_, AllCandidates(), 2)) {
      seen.insert(q);
    }
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST_F(StrategyTest, AskItPicksHighestEntropy) {
  SetTargetProbs({0.5, 0.95, 0.55, 0.99, 0.9, 0.85});
  AskItStrategy strategy;
  auto selected = strategy.SelectQuestions(context_, AllCandidates(), 2);
  EXPECT_EQ(selected, (std::vector<QuestionIndex>{0, 2}));
}

TEST_F(StrategyTest, AskItRespectsCandidates) {
  SetTargetProbs({0.5, 0.95, 0.55, 0.99, 0.9, 0.85});
  AskItStrategy strategy;
  auto selected = strategy.SelectQuestions(context_, {1, 3, 4, 5}, 2);
  // Most uncertain among the candidate set: q5 (0.85) and q4 (0.9).
  EXPECT_EQ(selected, (std::vector<QuestionIndex>{4, 5}));
}

TEST_F(StrategyTest, ExpLossPicksLeastConfident) {
  SetTargetProbs({0.6, 0.99, 0.45, 0.8, 0.97, 0.7});
  ExpLossStrategy strategy;
  auto selected = strategy.SelectQuestions(context_, AllCandidates(), 2);
  // Losses 1 - max_j Q_{i,j}: 0.4, 0.01, 0.45, 0.2, 0.03, 0.3 — q2 and q0
  // are the largest.
  EXPECT_EQ(selected, (std::vector<QuestionIndex>{0, 2}));
}

TEST_F(StrategyTest, CdasSkipsConfidentQuestions) {
  SetTargetProbs({0.95, 0.5, 0.97, 0.6, 0.98, 0.55});
  CdasStrategy strategy(0.9);
  auto selected = strategy.SelectQuestions(context_, AllCandidates(), 3);
  // Questions 0, 2, 4 are terminated (confidence >= 0.9).
  EXPECT_EQ(selected, (std::vector<QuestionIndex>{1, 3, 5}));
}

TEST_F(StrategyTest, CdasPrefersFewestAnswersAmongLive) {
  SetTargetProbs({0.6, 0.6, 0.6, 0.6, 0.6, 0.6});
  db_.RecordAnswer(0, 7, 0);
  db_.RecordAnswer(0, 8, 0);
  db_.RecordAnswer(1, 7, 0);
  CdasStrategy strategy(0.9);
  auto selected = strategy.SelectQuestions(context_, {0, 1, 2}, 2);
  // q2 has 0 answers, q1 has 1, q0 has 2 -> pick q1 and q2.
  EXPECT_EQ(selected, (std::vector<QuestionIndex>{1, 2}));
}

TEST_F(StrategyTest, CdasFallsBackToTerminatedWhenLiveScarce) {
  SetTargetProbs({0.95, 0.96, 0.97, 0.5, 0.98, 0.99});
  CdasStrategy strategy(0.9);
  auto selected = strategy.SelectQuestions(context_, AllCandidates(), 2);
  // Only q3 is live; one terminated question fills the second slot.
  EXPECT_EQ(selected.size(), 2u);
  EXPECT_TRUE(std::find(selected.begin(), selected.end(), 3) !=
              selected.end());
}

TEST_F(StrategyTest, MaxMarginPrefersImprovableQuestions) {
  // A 50/50 question gains the most from one more answer; a 0.99 question
  // gains almost nothing.
  SetTargetProbs({0.99, 0.5, 0.98, 0.97, 0.96, 0.95});
  MaxMarginStrategy strategy;
  auto selected = strategy.SelectQuestions(context_, AllCandidates(), 1);
  EXPECT_EQ(selected, (std::vector<QuestionIndex>{1}));
}

TEST_F(StrategyTest, MaxMarginIgnoresRequestingWorker) {
  SetTargetProbs({0.7, 0.6, 0.8, 0.9, 0.75, 0.65});
  MaxMarginStrategy strategy;
  auto first = strategy.SelectQuestions(context_, AllCandidates(), 2);
  // Swap the requesting worker's model; selection must not change (the
  // strategy uses only the typical worker). Note rng state advances, but
  // scores here are distinct so ties don't matter.
  WorkerModel other = WorkerModel::Wp(0.51, 2);
  context_.worker_model = &other;
  auto second = strategy.SelectQuestions(context_, AllCandidates(), 2);
  EXPECT_EQ(first, second);
}

TEST_F(StrategyTest, QascaAccuracySelectsHighestBenefit) {
  SetTargetProbs({0.5, 0.9, 0.55, 0.95, 0.6, 0.99});
  QascaStrategy strategy;
  auto selected = strategy.SelectQuestions(context_, AllCandidates(), 2);
  EXPECT_EQ(selected.size(), 2u);
  // The near-certain questions cannot be selected: their benefit is ~0.
  for (QuestionIndex q : selected) {
    EXPECT_NE(q, 5);
    EXPECT_NE(q, 3);
  }
}

TEST_F(StrategyTest, QascaFScoreUsesOnlineAssignment) {
  metric_ = MetricSpec::FScore(0.75, 0);
  SetTargetProbs({0.8, 0.6, 0.25, 0.5, 0.9, 0.3});
  QascaStrategy strategy;
  auto selected = strategy.SelectQuestions(context_, AllCandidates(), 2);
  EXPECT_EQ(selected.size(), 2u);
  EXPECT_GE(strategy.last_outer_iterations(), 1);
}

TEST_F(StrategyTest, AllStrategiesHaveDistinctNames) {
  std::set<std::string> names;
  names.insert(RandomStrategy().name());
  names.insert(CdasStrategy().name());
  names.insert(AskItStrategy().name());
  names.insert(MaxMarginStrategy().name());
  names.insert(ExpLossStrategy().name());
  names.insert(QascaStrategy().name());
  EXPECT_EQ(names.size(), 6u);
}

}  // namespace
}  // namespace qasca
