#include "platform/database.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace qasca {
namespace {

TEST(DatabaseTest, FreshDatabaseHasAllCandidates) {
  Database db(5, 2);
  std::vector<QuestionIndex> candidates = db.CandidatesFor(7);
  EXPECT_EQ(candidates, (std::vector<QuestionIndex>{0, 1, 2, 3, 4}));
}

TEST(DatabaseTest, AssignedQuestionsLeaveCandidateSet) {
  Database db(5, 2);
  db.MarkAssigned(1, {0, 3});
  EXPECT_EQ(db.CandidatesFor(1), (std::vector<QuestionIndex>{1, 2, 4}));
  // Other workers unaffected.
  EXPECT_EQ(db.CandidatesFor(2).size(), 5u);
}

TEST(DatabaseTest, InitialDistributionIsUniform) {
  Database db(3, 4);
  EXPECT_DOUBLE_EQ(db.current().At(0, 0), 0.25);
  EXPECT_TRUE(db.current().IsNormalized());
}

TEST(DatabaseTest, RecordAnswerAppendsToAnswerSet) {
  Database db(3, 2);
  db.RecordAnswer(1, 9, 0);
  db.RecordAnswer(1, 8, 1);
  EXPECT_EQ(db.AnswerCount(1), 2);
  EXPECT_EQ(db.AnswerCount(0), 0);
  EXPECT_EQ(db.answers()[1][0], (Answer{9, 0}));
  EXPECT_EQ(db.answers()[1][1], (Answer{8, 1}));
}

TEST(DatabaseTest, SetParametersRefreshesCurrent) {
  Database db(2, 2);
  EmResult parameters;
  parameters.prior = {0.5, 0.5};
  parameters.posterior = DistributionMatrix(2, 2);
  parameters.posterior.SetRow(0, std::vector<double>{0.9, 0.1});
  db.SetParameters(parameters);
  EXPECT_DOUBLE_EQ(db.current().At(0, 0), 0.9);
}

TEST(DatabaseTest, QcVersionCountsExactlyTheWritesToQc) {
  Database db(4, 2);
  EXPECT_EQ(db.qc_version(), 0u);
  db.MarkAssigned(1, {0, 1});
  db.Unassign(1, {1});
  db.RecordAnswer(0, 1, 1);
  EXPECT_EQ(db.qc_version(), 0u);
  db.UpdatePosteriorRow(2, std::vector<double>{0.25, 0.75});
  EXPECT_EQ(db.qc_version(), 1u);
  EmResult parameters;
  parameters.posterior = DistributionMatrix(4, 2);
  db.SetParameters(parameters);
  EXPECT_EQ(db.qc_version(), 2u);
}

TEST(DatabaseTest, CandidatesMatchBruteForceUnderRandomAssignAndUnassign) {
  constexpr int kQuestions = 40;
  constexpr int kWorkers = 4;
  Database db(kQuestions, 2);
  std::vector<std::set<QuestionIndex>> assigned(kWorkers);
  util::SplitMix64 rng(17);
  for (int step = 0; step < 2000; ++step) {
    const auto worker = static_cast<WorkerId>(rng.Next() % kWorkers);
    std::set<QuestionIndex>& mine = assigned[static_cast<size_t>(worker)];
    std::vector<QuestionIndex> batch;
    if (rng.Next() % 3 != 0) {
      // Assign up to three unassigned questions, in arbitrary order.
      for (int tries = 0; tries < 3; ++tries) {
        const auto q = static_cast<QuestionIndex>(rng.Next() % kQuestions);
        if (!mine.contains(q) &&
            std::find(batch.begin(), batch.end(), q) == batch.end()) {
          batch.push_back(q);
        }
      }
      db.MarkAssigned(worker, batch);
      mine.insert(batch.begin(), batch.end());
    } else if (!mine.empty()) {
      // Release a random subset of this worker's questions.
      for (QuestionIndex q : mine) {
        if (rng.Next() % 2 == 0) batch.push_back(q);
      }
      db.Unassign(worker, batch);
      for (QuestionIndex q : batch) mine.erase(q);
    }
    for (WorkerId w = 0; w < kWorkers; ++w) {
      std::vector<QuestionIndex> expected;
      for (QuestionIndex q = 0; q < kQuestions; ++q) {
        if (!assigned[static_cast<size_t>(w)].contains(q)) {
          expected.push_back(q);
        }
      }
      ASSERT_EQ(db.CandidatesFor(w), expected)
          << "worker " << w << " after step " << step;
    }
  }
}

TEST(DatabaseDeathTest, UnassigningAnUnassignedQuestionAborts) {
  Database db(5, 2);
  db.MarkAssigned(1, {0, 2});
  EXPECT_DEATH(db.Unassign(1, {1}), "not assigned to this worker");
}

TEST(DatabaseDeathTest, DoubleAssignmentAborts) {
  Database db(5, 2);
  db.MarkAssigned(1, {0});
  EXPECT_DEATH(db.MarkAssigned(1, {0}), "assigned twice");
}

TEST(DatabaseDeathTest, OutOfRangeAnswerAborts) {
  Database db(2, 2);
  EXPECT_DEATH(db.RecordAnswer(5, 0, 0), "Check failed");
  EXPECT_DEATH(db.RecordAnswer(0, 0, 2), "Check failed");
}

}  // namespace
}  // namespace qasca
