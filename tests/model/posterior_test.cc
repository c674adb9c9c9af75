#include "model/posterior.h"

#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "model/prior.h"

namespace qasca {
namespace {

WorkerModelLookup MakeLookup(
    const std::unordered_map<WorkerId, WorkerModel>& models) {
  return [&models](WorkerId worker) -> const WorkerModel& {
    return models.at(worker);
  };
}

TEST(PosteriorTest, NoAnswersReturnsPrior) {
  std::unordered_map<WorkerId, WorkerModel> models;
  std::vector<double> prior = {0.7, 0.3};
  std::vector<double> row =
      ComputePosteriorRow({}, prior, MakeLookup(models));
  EXPECT_DOUBLE_EQ(row[0], 0.7);
  EXPECT_DOUBLE_EQ(row[1], 0.3);
}

TEST(PosteriorTest, PaperExample6) {
  // Example 6: three labels, D2 = {(w1, L3), (w2, L1)}, m_w1 = 0.7,
  // m_w2 = 0.6, uniform prior -> Qc2 = [0.346, 0.115, 0.539].
  std::unordered_map<WorkerId, WorkerModel> models;
  models.emplace(1, WorkerModel::Wp(0.7, 3));
  models.emplace(2, WorkerModel::Wp(0.6, 3));
  AnswerList answers = {{1, 2}, {2, 0}};  // 0-based labels
  std::vector<double> row =
      ComputePosteriorRow(answers, UniformPrior(3), MakeLookup(models));
  EXPECT_NEAR(row[0], 0.346, 1e-3);
  EXPECT_NEAR(row[1], 0.115, 1e-3);
  EXPECT_NEAR(row[2], 0.539, 1e-3);
}

TEST(PosteriorTest, AgreeingAnswersSharpenBelief) {
  std::unordered_map<WorkerId, WorkerModel> models;
  models.emplace(1, WorkerModel::Wp(0.8, 2));
  std::vector<double> prior = UniformPrior(2);
  std::vector<double> one =
      ComputePosteriorRow({{1, 0}}, prior, MakeLookup(models));
  models.emplace(2, WorkerModel::Wp(0.8, 2));
  std::vector<double> two =
      ComputePosteriorRow({{1, 0}, {2, 0}}, prior, MakeLookup(models));
  EXPECT_GT(one[0], 0.5);
  EXPECT_GT(two[0], one[0]);
}

TEST(PosteriorTest, ContradictoryEqualWorkersCancelOut) {
  std::unordered_map<WorkerId, WorkerModel> models;
  models.emplace(1, WorkerModel::Wp(0.8, 2));
  models.emplace(2, WorkerModel::Wp(0.8, 2));
  std::vector<double> row = ComputePosteriorRow(
      {{1, 0}, {2, 1}}, UniformPrior(2), MakeLookup(models));
  EXPECT_NEAR(row[0], 0.5, 1e-12);
}

TEST(PosteriorTest, PriorTiltsResult) {
  std::unordered_map<WorkerId, WorkerModel> models;
  models.emplace(1, WorkerModel::Wp(0.8, 2));
  std::vector<double> skewed = {0.9, 0.1};
  std::vector<double> row =
      ComputePosteriorRow({{1, 1}}, skewed, MakeLookup(models));
  // One answer for label 1 against a strong prior for label 0:
  // 0.9*0.2 : 0.1*0.8 = 0.18 : 0.08.
  EXPECT_NEAR(row[0], 0.18 / 0.26, 1e-12);
}

TEST(PosteriorTest, DegenerateContradictionFallsBackToUniform) {
  // Two perfect workers disagree: all weights vanish; the row must stay a
  // valid distribution rather than abort.
  std::unordered_map<WorkerId, WorkerModel> models;
  models.emplace(1, WorkerModel::PerfectWp(2));
  models.emplace(2, WorkerModel::PerfectWp(2));
  std::vector<double> row = ComputePosteriorRow(
      {{1, 0}, {2, 1}}, UniformPrior(2), MakeLookup(models));
  EXPECT_NEAR(row[0], 0.5, 1e-12);
  EXPECT_NEAR(row[1], 0.5, 1e-12);
}

TEST(PosteriorTest, CurrentDistributionCoversAllQuestions) {
  std::unordered_map<WorkerId, WorkerModel> models;
  models.emplace(1, WorkerModel::Wp(0.9, 2));
  AnswerSet answers(3);
  answers[0] = {{1, 0}};
  answers[2] = {{1, 1}};
  DistributionMatrix qc =
      ComputeCurrentDistribution(answers, UniformPrior(2), MakeLookup(models));
  EXPECT_GT(qc.At(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(qc.At(1, 0), 0.5);  // unanswered -> prior
  EXPECT_GT(qc.At(2, 1), 0.5);
  EXPECT_TRUE(qc.IsNormalized());
}

TEST(PosteriorTest, PaperExample7SampledRow) {
  // Example 7: Qc1 = [0.8, 0.2], WP m = 0.75. If the sampled answer is L1
  // the row becomes [0.923, 0.077]; if L2, [0.571, 0.429] — and L1 is
  // sampled with probability 0.65 (Eq. 17).
  util::Rng rng(7);
  WorkerModel model = WorkerModel::Wp(0.75, 2);
  std::vector<double> current = {0.8, 0.2};
  int high = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> row =
        EstimateWorkerRow(current, model, rng);
    if (row[0] > 0.9) {
      EXPECT_NEAR(row[0], 12.0 / 13.0, 1e-9);  // 0.923
      ++high;
    } else {
      EXPECT_NEAR(row[0], 4.0 / 7.0, 1e-9);  // 0.571
    }
  }
  EXPECT_NEAR(high / static_cast<double>(trials), 0.65, 0.01);
}

// A distribution over `num_labels` labels with every weight bounded away
// from zero.
std::vector<double> RandomRow(int num_labels, util::Rng& rng) {
  std::vector<double> weights(num_labels);
  for (double& w : weights) w = rng.Uniform(0.01, 1.0);
  double total = 0.0;
  for (double w : weights) total += w;
  for (double& w : weights) w /= total;
  return weights;
}

TEST(PosteriorTest, ConditionedRowsAverageBackToCurrentRow) {
  // Law of total probability over Eqs. 17-18: the conditioned rows, weighted
  // by the predicted answer distribution P(a | D_i), average back to Qc_i.
  // (This is why an "expected" Qw would equal Qc and zero every Accuracy*
  // benefit.) Each label's conditioned row is reached through the sampled
  // estimator with a variate inside that label's cumulative interval.
  util::Rng rng(8);
  for (int num_labels : {2, 3, 7}) {
    for (int trial = 0; trial < 20; ++trial) {
      const std::vector<double> current = RandomRow(num_labels, rng);
      const WorkerModel wp =
          WorkerModel::Wp(rng.Uniform(0.3, 0.95), num_labels);
      std::vector<double> matrix;
      for (int truth = 0; truth < num_labels; ++truth) {
        const std::vector<double> row = RandomRow(num_labels, rng);
        matrix.insert(matrix.end(), row.begin(), row.end());
      }
      const WorkerModel cm = WorkerModel::Cm(matrix, num_labels);
      for (const WorkerModel* model : {&wp, &cm}) {
        std::vector<double> answer(num_labels, 0.0);
        double total = 0.0;
        for (int a = 0; a < num_labels; ++a) {
          for (int t = 0; t < num_labels; ++t) {
            answer[a] += model->AnswerProbability(a, t) * current[t];
          }
          total += answer[a];
        }
        std::vector<double> mixture(num_labels, 0.0);
        double below = 0.0;
        for (int a = 0; a < num_labels; ++a) {
          const double u01 = (below + 0.5 * answer[a]) / total;
          below += answer[a];
          const std::vector<double> row =
              EstimateWorkerRowAt(current, *model, u01);
          for (int j = 0; j < num_labels; ++j) {
            mixture[j] += answer[a] * row[j];
          }
        }
        for (int j = 0; j < num_labels; ++j) {
          EXPECT_NEAR(mixture[j], current[j], 1e-12)
              << (model == &wp ? "wp" : "cm") << " l=" << num_labels
              << " j=" << j;
        }
      }
    }
  }
}

TEST(PosteriorTest, PerfectWorkerYieldsOneHotRow) {
  util::Rng rng(9);
  WorkerModel model = WorkerModel::PerfectWp(2);
  std::vector<double> current = {0.8, 0.2};
  std::vector<double> row =
      EstimateWorkerRow(current, model, rng);
  EXPECT_TRUE((row[0] == 1.0 && row[1] == 0.0) ||
              (row[0] == 0.0 && row[1] == 1.0));
}

TEST(PosteriorTest, WpFastPathMatchesExpandedCm) {
  // EstimateWorkerRowAt special-cases WP models with a closed-form answer
  // distribution; it must agree with the generic CM path on the expanded
  // matrix for every variate of a fixed grid.
  util::Rng rng(20);
  constexpr int kGrid = 16;
  for (int num_labels : {2, 3, 7}) {
    for (int trial = 0; trial < 20; ++trial) {
      const std::vector<double> weights = RandomRow(num_labels, rng);
      double m = rng.Uniform(0.3, 0.95);
      WorkerModel wp = WorkerModel::Wp(m, num_labels);
      WorkerModel cm = WorkerModel::Cm(wp.AsConfusionMatrix(), num_labels);
      for (int g = 0; g < kGrid; ++g) {
        const double u01 = (g + 0.5) / kGrid;
        std::vector<double> via_wp = EstimateWorkerRowAt(weights, wp, u01);
        std::vector<double> via_cm = EstimateWorkerRowAt(weights, cm, u01);
        for (int j = 0; j < num_labels; ++j) {
          EXPECT_NEAR(via_wp[j], via_cm[j], 1e-12)
              << "l=" << num_labels << " u=" << u01 << " j=" << j;
        }
      }
    }
  }
}

TEST(PosteriorTest, EstimateWorkerDistributionOnlyTouchesCandidates) {
  util::Rng rng(10);
  DistributionMatrix qc(4, 2);
  qc.SetRow(0, std::vector<double>{0.9, 0.1});
  qc.SetRow(1, std::vector<double>{0.3, 0.7});
  WorkerModel model = WorkerModel::Wp(0.75, 2);
  DistributionMatrix qw =
      EstimateWorkerDistribution(qc, model, {1, 3}, rng);
  EXPECT_DOUBLE_EQ(qw.At(0, 0), 0.9);  // untouched
  EXPECT_NE(qw.At(1, 0), 0.3);         // conditioned
  EXPECT_TRUE(qw.IsNormalized());
}

TEST(PosteriorTest, ModelAndTableRowRoutinesAreBitIdentical) {
  // The core's incremental refresh derives Eq. 5 rows through
  // ComputePosteriorRowInto and perfbench's leaf rung through
  // ComputePosteriorRowWithLikelihoods; both must multiply the same
  // AnswerProbability doubles in the same order, so their rows and
  // marginals agree bit for bit.
  util::Rng rng(25);
  for (int num_labels : {2, 3, 8}) {
    for (int trial = 0; trial < 10; ++trial) {
      // Even ids are WP workers, odd ids CM workers.
      std::unordered_map<WorkerId, WorkerModel> models;
      std::unordered_map<WorkerId, WorkerLikelihoods> tables;
      for (WorkerId worker = 0; worker < 6; ++worker) {
        std::vector<double> matrix;
        for (int truth = 0; truth < num_labels; ++truth) {
          const std::vector<double> row = RandomRow(num_labels, rng);
          matrix.insert(matrix.end(), row.begin(), row.end());
        }
        const WorkerModel model =
            worker % 2 == 0
                ? WorkerModel::Wp(rng.Uniform(0.3, 0.95), num_labels)
                : WorkerModel::Cm(matrix, num_labels);
        tables.emplace(worker, WorkerLikelihoods::FromModel(model));
        models.emplace(worker, model);
      }
      const LikelihoodLookup table_lookup =
          [&tables](WorkerId worker) -> const WorkerLikelihoods& {
        return tables.at(worker);
      };
      const std::vector<double> prior = RandomRow(num_labels, rng);
      AnswerList answers;
      for (int count = 0; count <= 12; ++count) {
        std::vector<double> via_models;
        std::vector<double> via_tables;
        double models_marginal = 0.0;
        double tables_marginal = 1.0;
        ComputePosteriorRowInto(answers, prior, MakeLookup(models),
                                &via_models, &models_marginal);
        ComputePosteriorRowWithLikelihoods(answers, prior, table_lookup,
                                           &via_tables, &tables_marginal);
        ASSERT_EQ(via_models.size(), static_cast<size_t>(num_labels));
        ASSERT_EQ(via_tables.size(), via_models.size());
        for (int j = 0; j < num_labels; ++j) {
          EXPECT_EQ(std::bit_cast<uint64_t>(via_models[j]),
                    std::bit_cast<uint64_t>(via_tables[j]))
              << "l=" << num_labels << " answers=" << count << " j=" << j;
        }
        EXPECT_EQ(std::bit_cast<uint64_t>(models_marginal),
                  std::bit_cast<uint64_t>(tables_marginal))
            << "l=" << num_labels << " answers=" << count;
        answers.push_back(Answer{rng.UniformInt(6),
                                 rng.UniformInt(num_labels)});
      }
    }
  }
}

}  // namespace
}  // namespace qasca
