#include "model/likelihood_cache.h"

#include <vector>

#include <gtest/gtest.h>

#include "core/assignment/qw_overlay.h"
#include "core/distribution_matrix.h"
#include "model/posterior.h"
#include "model/worker_model.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace qasca {
namespace {

TEST(WorkerLikelihoodsTest, TableHoldsTransposedAnswerProbabilities) {
  // Row `answered` is L[answered][truth] = AnswerProbability(answered,
  // truth) — the exact doubles, so kernel products bitwise-match the
  // model-call loop.
  for (const WorkerModel& model :
       {WorkerModel::Wp(0.7, 3),
        WorkerModel::Cm({0.8, 0.15, 0.05, 0.1, 0.7, 0.2, 0.05, 0.25, 0.7},
                        3)}) {
    const WorkerLikelihoods table = WorkerLikelihoods::FromModel(model);
    ASSERT_EQ(table.num_labels(), 3);
    for (LabelIndex answered = 0; answered < 3; ++answered) {
      const double* row = table.Row(answered);
      for (LabelIndex truth = 0; truth < 3; ++truth) {
        EXPECT_EQ(row[truth], model.AnswerProbability(answered, truth))
            << "answered=" << answered << " truth=" << truth;
      }
    }
  }
}

TEST(WorkerLikelihoodsTest, RebuildReplacesContentsInPlace) {
  WorkerLikelihoods table =
      WorkerLikelihoods::FromModel(WorkerModel::Wp(0.6, 2));
  const WorkerModel sharp = WorkerModel::Wp(0.9, 2);
  table.Rebuild(sharp);
  EXPECT_EQ(table.Row(0)[0], sharp.AnswerProbability(0, 0));
  EXPECT_EQ(table.Row(0)[1], sharp.AnswerProbability(0, 1));
  // Shape changes are fine too (a strategy's scratch table outlives apps).
  table.Rebuild(WorkerModel::Wp(0.5, 4));
  EXPECT_EQ(table.num_labels(), 4);
  EXPECT_EQ(table.Row(0)[0], 0.5);
}

// ---------------------------------------------------------------------------
// EstimateWorkerRowsInto (overlay path) vs EstimateWorkerDistribution
// (legacy deep copy): the overlay rows must hold the exact doubles the
// legacy matrix holds, under the same randomness contract.

DistributionMatrix MakeCurrent(int n, int l, uint64_t salt) {
  util::Rng rng(salt);
  DistributionMatrix qc(n, l);
  std::vector<double> weights(static_cast<size_t>(l));
  for (int i = 0; i < n; ++i) {
    for (double& w : weights) w = rng.Uniform(0.05, 1.0);
    qc.SetRowNormalized(i, weights);
  }
  return qc;
}

struct QwScenario {
  const char* name;
  WorkerModel model;
};

std::vector<QwScenario> QwScenarios() {
  return {
      {"wp/l2", WorkerModel::Wp(0.8, 2)},
      {"wp/l3", WorkerModel::Wp(0.65, 3)},
      {"cm/l2", WorkerModel::Cm({0.85, 0.15, 0.2, 0.8}, 2)},
      {"cm/l3",
       WorkerModel::Cm({0.7, 0.2, 0.1, 0.15, 0.75, 0.1, 0.1, 0.15, 0.75},
                       3)},
  };
}

void ExpectOverlayMatchesLegacy(const QwScenario& s, util::ThreadPool* pool) {
  const int n = 12;
  const int l = s.model.num_labels();
  const DistributionMatrix qc = MakeCurrent(n, l, /*salt=*/41);
  const std::vector<QuestionIndex> candidates = {1, 3, 4, 8, 11};

  util::Rng legacy_rng(1234);
  const DistributionMatrix legacy =
      EstimateWorkerDistribution(qc, s.model, candidates, legacy_rng);

  const WorkerLikelihoods table = WorkerLikelihoods::FromModel(s.model);
  QwOverlay overlay;
  util::Rng overlay_rng(1234);
  EstimateWorkerRowsInto(qc, s.model, table, candidates, QwMode::kSampled,
                         overlay_rng, &overlay, pool);

  // Identical rng consumption (exactly one base draw) — the next draw from
  // either generator must agree.
  EXPECT_EQ(legacy_rng.engine()(), overlay_rng.engine()());

  for (QuestionIndex i : candidates) {
    ASSERT_TRUE(overlay.Contains(i)) << s.name << " i=" << i;
    const std::span<const double> row = overlay.Row(i);
    for (int j = 0; j < l; ++j) {
      EXPECT_EQ(row[j], legacy.At(i, j)) << s.name << " i=" << i
                                         << " j=" << j;
    }
  }
  // Non-candidates are never materialised — reads fall through to Qc.
  for (QuestionIndex i : {0, 2, 5, 6, 7, 9, 10}) {
    EXPECT_FALSE(overlay.Contains(i)) << s.name << " i=" << i;
  }
}

TEST(EstimateWorkerRowsIntoTest, SampledModeBitwiseMatchesLegacy) {
  for (const QwScenario& s : QwScenarios()) {
    ExpectOverlayMatchesLegacy(s, /*pool=*/nullptr);
  }
}

TEST(EstimateWorkerRowsIntoTest, SampledModeBitwiseMatchesLegacyThreaded) {
  util::ThreadPool pool(4);
  for (const QwScenario& s : QwScenarios()) {
    ExpectOverlayMatchesLegacy(s, &pool);
  }
}

}  // namespace
}  // namespace qasca
