#include "model/em.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "simulation/simulated_worker.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace qasca {
namespace {

// Builds a synthetic answer set: `num_workers` workers with planted WP
// qualities answer every question in `truth` `answers_each` times.
AnswerSet PlantAnswers(const GroundTruthVector& truth, int num_labels,
                       const std::vector<double>& worker_quality,
                       util::Rng& rng) {
  AnswerSet answers(truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    for (size_t w = 0; w < worker_quality.size(); ++w) {
      WorkerModel model =
          WorkerModel::Wp(worker_quality[w], num_labels);
      SimulatedWorker worker{static_cast<WorkerId>(w), model};
      answers[i].push_back(
          Answer{static_cast<WorkerId>(w),
                 worker.AnswerQuestion(truth[i], rng)});
    }
  }
  return answers;
}

GroundTruthVector RandomTruth(int n, int num_labels, util::Rng& rng) {
  GroundTruthVector truth(n);
  for (int i = 0; i < n; ++i) truth[i] = rng.UniformInt(num_labels);
  return truth;
}

TEST(EmTest, EmptyAnswerSetStaysUniform) {
  EmOptions options;
  EmResult result = RunEm(AnswerSet(4), 2, options);
  EXPECT_TRUE(result.workers.empty());
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(result.posterior.At(i, 0), 0.5, 1e-9);
  }
}

TEST(EmTest, FallbackModelIsPerfect) {
  EmOptions options;
  options.worker_kind = WorkerModel::Kind::kWorkerProbability;
  EmResult result = RunEm(AnswerSet(2), 2, options);
  EXPECT_DOUBLE_EQ(result.WorkerFor(123).AnswerProbability(0, 0), 1.0);
}

TEST(EmTest, RecoversLabelsFromReliableCrowd) {
  util::Rng rng(21);
  GroundTruthVector truth = RandomTruth(100, 2, rng);
  AnswerSet answers =
      PlantAnswers(truth, 2, std::vector<double>(7, 0.85), rng);
  EmOptions options;
  EmResult result = RunEm(answers, 2, options);
  int correct = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (result.posterior.ArgMaxLabel(static_cast<int>(i)) == truth[i]) {
      ++correct;
    }
  }
  EXPECT_GE(correct, 97);
}

TEST(EmTest, RecoversPlantedWorkerQualities) {
  util::Rng rng(22);
  GroundTruthVector truth = RandomTruth(400, 2, rng);
  std::vector<double> quality = {0.9, 0.9, 0.6, 0.9, 0.55};
  AnswerSet answers = PlantAnswers(truth, 2, quality, rng);
  EmOptions options;
  options.worker_kind = WorkerModel::Kind::kWorkerProbability;
  EmResult result = RunEm(answers, 2, options);
  for (size_t w = 0; w < quality.size(); ++w) {
    double fitted =
        result.WorkerFor(static_cast<WorkerId>(w)).worker_probability();
    EXPECT_NEAR(fitted, quality[w], 0.07) << "worker " << w;
  }
}

TEST(EmTest, ConfusionMatrixModeRecoversAsymmetry) {
  // Workers answer label 1 perfectly but err half the time on label 0:
  // a planted asymmetric CM the fitted CM must reflect.
  util::Rng rng(23);
  GroundTruthVector truth = RandomTruth(600, 2, rng);
  WorkerModel planted = WorkerModel::Cm({0.6, 0.4, 0.05, 0.95}, 2);
  AnswerSet answers(truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    for (int w = 0; w < 5; ++w) {
      SimulatedWorker worker{w, planted};
      answers[i].push_back(Answer{w, worker.AnswerQuestion(truth[i], rng)});
    }
  }
  EmOptions options;
  EmResult result = RunEm(answers, 2, options);
  for (int w = 0; w < 5; ++w) {
    std::vector<double> cm = result.WorkerFor(w).AsConfusionMatrix();
    EXPECT_NEAR(cm[0], 0.6, 0.1) << "worker " << w;   // M[0][0]
    EXPECT_NEAR(cm[3], 0.95, 0.1) << "worker " << w;  // M[1][1]
    EXPECT_GT(cm[3], cm[0]);
  }
}

TEST(EmTest, EstimatesPriorFromSkewedTruth) {
  util::Rng rng(24);
  GroundTruthVector truth(300);
  for (size_t i = 0; i < truth.size(); ++i) {
    truth[i] = rng.Uniform() < 0.8 ? 0 : 1;
  }
  AnswerSet answers =
      PlantAnswers(truth, 2, std::vector<double>(5, 0.85), rng);
  EmOptions options;
  EmResult result = RunEm(answers, 2, options);
  EXPECT_NEAR(result.prior[0], 0.8, 0.06);
}

TEST(EmTest, FixedPriorStaysUniform) {
  util::Rng rng(25);
  GroundTruthVector truth(100);
  for (auto& t : truth) t = 0;  // extremely skewed truth
  AnswerSet answers =
      PlantAnswers(truth, 2, std::vector<double>(4, 0.9), rng);
  EmOptions options;
  options.estimate_prior = false;
  EmResult result = RunEm(answers, 2, options);
  EXPECT_DOUBLE_EQ(result.prior[0], 0.5);
}

TEST(EmTest, ConvergesWithinIterationBudget) {
  util::Rng rng(26);
  GroundTruthVector truth = RandomTruth(200, 3, rng);
  AnswerSet answers =
      PlantAnswers(truth, 3, std::vector<double>(6, 0.8), rng);
  EmOptions options;
  options.max_iterations = 50;
  EmResult result = RunEm(answers, 3, options);
  EXPECT_LT(result.iterations, 50);
}

TEST(EmTest, PosteriorStaysNormalized) {
  util::Rng rng(27);
  GroundTruthVector truth = RandomTruth(50, 3, rng);
  AnswerSet answers =
      PlantAnswers(truth, 3, std::vector<double>(3, 0.7), rng);
  EmOptions options;
  EmResult result = RunEm(answers, 3, options);
  EXPECT_TRUE(result.posterior.IsNormalized(1e-9));
}

TEST(EmTest, WarmStartMatchesColdFitQuality) {
  util::Rng rng(29);
  GroundTruthVector truth = RandomTruth(300, 2, rng);
  AnswerSet answers =
      PlantAnswers(truth, 2, std::vector<double>(6, 0.85), rng);
  EmOptions options;
  EmResult cold = RunEm(answers, 2, options);
  EmResult warm = RunEmWarmStart(answers, 2, options, cold);
  // Restarting from the fixed point must stay at the fixed point,
  // converging immediately.
  EXPECT_LE(warm.iterations, 2);
  for (int i = 0; i < 300; ++i) {
    EXPECT_NEAR(warm.posterior.At(i, 0), cold.posterior.At(i, 0), 1e-4);
  }
}

TEST(EmTest, WarmStartConvergesFasterOnIncrementalAnswers) {
  util::Rng rng(30);
  GroundTruthVector truth = RandomTruth(300, 2, rng);
  AnswerSet answers =
      PlantAnswers(truth, 2, std::vector<double>(6, 0.8), rng);
  EmOptions options;
  EmResult previous = RunEm(answers, 2, options);
  // A handful of new answers arrive.
  for (int i = 0; i < 8; ++i) {
    answers[i].push_back(Answer{0, truth[i]});
  }
  EmResult warm = RunEmWarmStart(answers, 2, options, previous);
  EmResult cold = RunEm(answers, 2, options);
  EXPECT_LE(warm.iterations, cold.iterations);
  // Same fixed point either way.
  int agree = 0;
  for (int i = 0; i < 300; ++i) {
    if (warm.posterior.ArgMaxLabel(i) == cold.posterior.ArgMaxLabel(i)) {
      ++agree;
    }
  }
  EXPECT_GE(agree, 298);
}

TEST(EmTest, WarmStartWithMismatchedShapeFallsBackToCold) {
  util::Rng rng(31);
  GroundTruthVector truth = RandomTruth(50, 2, rng);
  AnswerSet answers =
      PlantAnswers(truth, 2, std::vector<double>(4, 0.8), rng);
  EmOptions options;
  EmResult tiny = RunEm(AnswerSet(3), 2, options);  // wrong n
  EmResult result = RunEmWarmStart(answers, 2, options, tiny);
  EXPECT_EQ(result.posterior.num_questions(), 50);
  EXPECT_TRUE(result.posterior.IsNormalized(1e-9));
}

TEST(EmTest, BeatsMajorityVoteWithHeterogeneousWorkers) {
  // A reliable minority should outvote an unreliable majority once EM has
  // learned who is who — the core value of Dawid–Skene over majority vote.
  util::Rng rng(28);
  GroundTruthVector truth = RandomTruth(500, 2, rng);
  std::vector<double> quality = {0.95, 0.95, 0.55, 0.55, 0.55};
  AnswerSet answers = PlantAnswers(truth, 2, quality, rng);

  int majority_correct = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    int votes[2] = {0, 0};
    for (const Answer& a : answers[i]) ++votes[a.label];
    if ((votes[truth[i]] > votes[1 - truth[i]])) ++majority_correct;
  }

  EmOptions options;
  EmResult result = RunEm(answers, 2, options);
  int em_correct = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (result.posterior.ArgMaxLabel(static_cast<int>(i)) == truth[i]) {
      ++em_correct;
    }
  }
  EXPECT_GT(em_correct, majority_correct);
}

// --- Golden hashes: RunEm / RunEmWarmStart pinned bit for bit -------------
//
// Every case hashes the posterior cell bits, the prior bits, the iteration
// count and every fitted worker model (ascending id). The expected values
// were recorded on the per-worker grouping implementation that preceded
// the flat answer layout, so any change to a fold order, a kernel choice or
// the slot order of the E/M steps fails here before it can move a decision.

uint64_t GoldenMix(uint64_t hash, uint64_t value) {
  hash ^= value;
  hash *= 1099511628211ull;
  return hash;
}

uint64_t GoldenBits(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

uint64_t HashEmResult(const EmResult& result) {
  uint64_t hash = 1469598103934665603ull;
  hash = GoldenMix(hash, static_cast<uint64_t>(result.iterations));
  for (double p : result.prior) hash = GoldenMix(hash, GoldenBits(p));
  const DistributionMatrix& qc = result.posterior;
  for (int i = 0; i < qc.num_questions(); ++i) {
    for (int j = 0; j < qc.num_labels(); ++j) {
      hash = GoldenMix(hash, GoldenBits(qc.At(i, j)));
    }
  }
  std::vector<WorkerId> ids;
  ids.reserve(result.workers.size());
  for (const auto& [id, model] : result.workers) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (WorkerId id : ids) {
    const WorkerModel& model = result.workers.at(id);
    hash = GoldenMix(hash, static_cast<uint64_t>(id));
    hash = GoldenMix(hash, static_cast<uint64_t>(model.kind()));
    if (model.kind() == WorkerModel::Kind::kWorkerProbability) {
      hash = GoldenMix(hash, GoldenBits(model.worker_probability()));
    }
    for (double entry : model.AsConfusionMatrix()) {
      hash = GoldenMix(hash, GoldenBits(entry));
    }
  }
  return hash;
}

// Seeded answer set: sparse, non-contiguous worker ids met in a rotating
// order (first appearance is not ascending id), planted per-worker
// accuracies, about 4 answers per question, and every seventh question
// left unanswered. Drawn from SplitMix64 alone, so the set is identical on
// every standard library.
AnswerSet GoldenAnswers(int n, int num_labels, uint64_t seed) {
  constexpr int kWorkers = 12;
  util::SplitMix64 rng(seed);
  std::vector<WorkerId> ids(kWorkers);
  std::vector<double> accuracy(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    ids[static_cast<size_t>(w)] = 5 + (w * 7919) % 10007 * 3;
    accuracy[static_cast<size_t>(w)] = 0.5 + 0.45 * rng.NextDouble();
  }
  AnswerSet answers(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (i % 7 == 3) continue;
    const auto truth = static_cast<LabelIndex>(rng.Next() % num_labels);
    for (int k = 0; k < kWorkers; ++k) {
      const auto w = static_cast<size_t>((i * 5 + k) % kWorkers);
      if (rng.NextDouble() >= 0.35) continue;
      LabelIndex label = truth;
      if (rng.NextDouble() >= accuracy[w]) {
        label = static_cast<LabelIndex>(
            (static_cast<uint64_t>(truth) + 1 + rng.Next() % (num_labels - 1)) %
            num_labels);
      }
      answers[static_cast<size_t>(i)].push_back(Answer{ids[w], label});
    }
  }
  return answers;
}

struct GoldenEmCase {
  const char* name;
  WorkerModel::Kind kind;
  int num_labels;
  // 4 stops every case at the cap; 500 lets every case converge.
  int max_iterations;
  bool warm_start;
  // 0 runs with pool == nullptr.
  int threads;
  double smoothing;
  bool estimate_prior;
  uint64_t expected_hash;
};

constexpr WorkerModel::Kind kWp = WorkerModel::Kind::kWorkerProbability;
constexpr WorkerModel::Kind kCm = WorkerModel::Kind::kConfusionMatrix;

// Pairs that differ only in `threads` share one expected hash: the pool
// must not move a bit.
const GoldenEmCase kGoldenEmCases[] = {
    {"wp_l2_cold_cap", kWp, 2, 4, false, 0, 1.0, true, 0xbf87cd0b672a04dbull},
    {"wp_l2_cold_cap_pool", kWp, 2, 4, false, 4, 1.0, true,
     0xbf87cd0b672a04dbull},
    {"cm_l2_cold_converge", kCm, 2, 500, false, 0, 1.0, true,
     0x419e7b2ba3410b39ull},
    {"cm_l2_warm_cap_pool", kCm, 2, 4, true, 4, 1.0, true,
     0x3615f910234885c0ull},
    {"wp_l3_warm_converge", kWp, 3, 500, true, 0, 1.0, true,
     0x1eea6acfc5778f6eull},
    {"cm_l3_cold_cap_pool", kCm, 3, 4, false, 4, 1.0, true,
     0x2c45599bfb9ae788ull},
    {"cm_l3_cold_cap", kCm, 3, 4, false, 0, 1.0, true, 0x2c45599bfb9ae788ull},
    {"cm_l5_cold_converge_pool", kCm, 5, 500, false, 4, 1.0, true,
     0x654dea02c2def8fdull},
    {"cm_l5_warm_cap", kCm, 5, 4, true, 0, 1.0, true, 0xe8e3b7e77002cabbull},
    {"wp_l5_cold_cap_fixed_prior", kWp, 5, 4, false, 0, 0.5, false,
     0xab1b785317768c29ull},
    {"wp_l5_warm_converge_pool", kWp, 5, 500, true, 4, 1.0, true,
     0xfe16893bfb0533fdull},
};

void PrintTo(const GoldenEmCase& c, std::ostream* os) { *os << c.name; }

class EmGoldenTest : public ::testing::TestWithParam<GoldenEmCase> {};

TEST_P(EmGoldenTest, HashMatchesPinnedValue) {
  const GoldenEmCase& c = GetParam();
  constexpr int kQuestions = 300;
  const AnswerSet answers = GoldenAnswers(kQuestions, c.num_labels, 41);
  EmOptions options;
  options.worker_kind = c.kind;
  options.max_iterations = c.max_iterations;
  options.smoothing = c.smoothing;
  options.estimate_prior = c.estimate_prior;
  std::unique_ptr<util::ThreadPool> pool;
  if (c.threads > 0) pool = std::make_unique<util::ThreadPool>(c.threads);

  EmResult result;
  if (c.warm_start) {
    // The previous fit saw every answer except each fourth question's
    // last one, like a refit after a HIT completion.
    AnswerSet earlier = answers;
    for (size_t i = 0; i < earlier.size(); i += 4) {
      if (!earlier[i].empty()) earlier[i].pop_back();
    }
    const EmResult previous =
        RunEm(earlier, c.num_labels, options, pool.get());
    result = RunEmWarmStart(answers, c.num_labels, options, previous,
                            pool.get());
  } else {
    result = RunEm(answers, c.num_labels, options, pool.get());
  }
  if (c.max_iterations == 4) {
    EXPECT_EQ(result.iterations, 4) << "expected to stop at the cap";
  } else {
    EXPECT_LT(result.iterations, c.max_iterations) << "expected to converge";
  }
  EXPECT_EQ(HashEmResult(result), c.expected_hash)
      << c.name << ": 0x" << std::hex << HashEmResult(result);
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, EmGoldenTest, ::testing::ValuesIn(kGoldenEmCases),
    [](const ::testing::TestParamInfo<GoldenEmCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace qasca
