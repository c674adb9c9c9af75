// Seeded property suite for the prepared F-score entry point: on random
// instances, AssignFScoreOnline on PrepareFScoreCurrent(Qc) returns the same
// bits as the two-argument entry point, and the prepared inputs equal their
// definitions — Qc's target column, Algorithm 1's F(Qc) and a fold of
// 512-question blocks, each in order, added in block order. Instances come
// from SplitMix64 alone, so the sweep is identical on every platform.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/assignment/fscore_online.h"
#include "core/metrics/fscore.h"
#include "util/rng.h"

namespace qasca {
namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectSameResult(const AssignmentResult& a, const AssignmentResult& b,
                      uint64_t seed) {
  EXPECT_EQ(a.selected, b.selected) << "seed " << seed;
  EXPECT_TRUE(SameBits(a.objective, b.objective)) << "seed " << seed;
  EXPECT_EQ(a.outer_iterations, b.outer_iterations) << "seed " << seed;
  EXPECT_EQ(a.inner_iterations, b.inner_iterations) << "seed " << seed;
  EXPECT_TRUE(std::equal(a.selected_scores.begin(), a.selected_scores.end(),
                         b.selected_scores.begin(), b.selected_scores.end(),
                         SameBits))
      << "seed " << seed;
}

// The definition of the first Update step's beta/gamma: blocks of 512
// questions, each folded in order from (0, 0), block sums added in order.
std::pair<double, double> BlockFold(const std::vector<double>& column,
                                    double alpha, double threshold) {
  const size_t block = 512;
  double beta = 0.0;
  double gamma = 0.0;
  for (size_t begin = 0; begin < column.size(); begin += block) {
    double block_beta = 0.0;
    double block_gamma = 0.0;
    for (size_t i = begin; i < std::min(column.size(), begin + block); ++i) {
      const bool rc = column[i] >= threshold;
      block_beta += rc ? column[i] : 0.0;
      block_gamma += rc ? alpha : 0.0;
      block_gamma += (1.0 - alpha) * column[i];
    }
    beta += block_beta;
    gamma += block_gamma;
  }
  return {beta, gamma};
}

struct Instance {
  DistributionMatrix qc;
  DistributionMatrix qw;
  std::vector<QuestionIndex> candidates;
  int k = 0;
  FScoreAssignmentOptions options;
};

// Sizes on both sides of the fold's block and four-block boundaries.
constexpr int kSizes[] = {1,   2,    3,    7,    64,   511,  512, 513,
                          600, 1024, 1500, 1536, 1537, 2047, 2048, 2000};

Instance Draw(uint64_t seed) {
  util::SplitMix64 rng(seed);
  const int n = kSizes[rng.Next() % std::size(kSizes)];
  const int l = 2 + static_cast<int>(rng.Next() % 2);
  Instance instance{DistributionMatrix(n, l), DistributionMatrix(n, l), {},
                    0, {}};
  instance.options.target_label = static_cast<LabelIndex>(rng.Next() % 2);
  instance.options.alpha = 0.01 + 0.98 * rng.NextDouble();
  instance.options.warm_start = rng.Next() % 2 == 0;
  // Every fifth seed has no target mass in Qc; every tenth none in Qw
  // either, which is the degenerate all-zero case.
  const bool zero_qc = seed % 5 == 0;
  const bool zero_qw = seed % 10 == 0;
  // Sharp rows put target probabilities on both sides of any threshold.
  const double sharpness = 1.0 + 8.0 * rng.NextDouble();
  std::vector<double> weights(static_cast<size_t>(l));
  for (DistributionMatrix* q : {&instance.qc, &instance.qw}) {
    const bool zero = q == &instance.qc ? zero_qc : zero_qw;
    for (int i = 0; i < n; ++i) {
      for (double& w : weights) {
        double u = 0.02 + rng.NextDouble();
        for (int p = 1; p < static_cast<int>(sharpness); ++p) u *= u + 0.02;
        w = u;
      }
      if (zero) {
        weights[static_cast<size_t>(instance.options.target_label)] = 0.0;
      }
      q->SetRowNormalized(i, weights);
    }
  }
  // A random candidate subset, ascending or shuffled, of at least one.
  const double keep = 0.05 + 0.95 * rng.NextDouble();
  for (int i = 0; i < n; ++i) {
    if (rng.NextDouble() < keep) instance.candidates.push_back(i);
  }
  if (instance.candidates.empty()) {
    instance.candidates.push_back(
        static_cast<int>(rng.Next() % static_cast<uint64_t>(n)));
  }
  if (rng.Next() % 2 == 0) {
    for (size_t i = instance.candidates.size(); i > 1; --i) {
      std::swap(instance.candidates[i - 1],
                instance.candidates[rng.Next() % i]);
    }
  }
  const int most =
      std::min(20, static_cast<int>(instance.candidates.size()));
  instance.k = 1 + static_cast<int>(rng.Next() % most);
  return instance;
}

TEST(FScorePreparedPropertyTest, PreparedAndInlineEntryPointsAgreeBitwise) {
  int zero_mass_shortcuts = 0;
  for (uint64_t seed = 1; seed <= 240; ++seed) {
    const Instance instance = Draw(seed);
    AssignmentRequest request;
    request.current = &instance.qc;
    request.estimated = &instance.qw;
    request.candidates = instance.candidates;
    request.k = instance.k;

    const FScoreCurrent prepared =
        PrepareFScoreCurrent(instance.qc, instance.options);
    const AssignmentResult inline_result =
        AssignFScoreOnline(request, instance.options);
    const AssignmentResult prepared_result =
        AssignFScoreOnline(request, prepared);
    ExpectSameResult(inline_result, prepared_result, seed);
    if (inline_result.outer_iterations == 0) ++zero_mass_shortcuts;

    // The prepared inputs are their definitions, bit for bit.
    const int n = instance.qc.num_questions();
    ASSERT_EQ(prepared.column.size(), static_cast<size_t>(n));
    bool any_mass = false;
    for (int i = 0; i < n; ++i) {
      const double cell = instance.qc.At(i, instance.options.target_label);
      EXPECT_TRUE(SameBits(prepared.column[static_cast<size_t>(i)], cell));
      any_mass = any_mass || cell > 0.0;
    }
    EXPECT_EQ(prepared.has_target_mass, any_mass) << "seed " << seed;
    const double delta_init =
        instance.options.warm_start
            ? SolveFScoreColumn(prepared.column, instance.options.alpha).value
            : 0.0;
    EXPECT_TRUE(SameBits(prepared.delta_init, delta_init)) << "seed " << seed;
    const auto [beta, gamma] =
        BlockFold(prepared.column, instance.options.alpha,
                  delta_init * instance.options.alpha);
    EXPECT_TRUE(SameBits(prepared.beta, beta)) << "seed " << seed;
    EXPECT_TRUE(SameBits(prepared.gamma, gamma)) << "seed " << seed;
    EXPECT_TRUE(IdenticalBits(
        prepared, PrepareFScoreCurrent(instance.qc, instance.options)));
  }
  // The sweep reaches the degenerate shortcut, not only the Dinkelbach loop.
  EXPECT_GT(zero_mass_shortcuts, 0);
}

TEST(FScorePreparedPropertyTest, IdenticalBitsSeesEveryField) {
  const Instance instance = Draw(7);
  const FScoreCurrent base = PrepareFScoreCurrent(instance.qc,
                                                  instance.options);
  ASSERT_TRUE(IdenticalBits(base, base));
  std::vector<FScoreCurrent> changed(7, base);
  changed[0].options.warm_start = !base.options.warm_start;
  changed[1].options.alpha = std::nextafter(base.options.alpha, 1.0);
  changed[2].column.back() = std::nextafter(base.column.back(), 2.0);
  changed[3].column.push_back(0.0);
  changed[4].delta_init = std::nextafter(base.delta_init, 2.0);
  changed[5].beta = std::nextafter(base.beta, -1.0);
  changed[6].gamma = std::nextafter(base.gamma, -1.0);
  for (size_t c = 0; c < changed.size(); ++c) {
    EXPECT_FALSE(IdenticalBits(base, changed[c])) << "field " << c;
  }
}

}  // namespace
}  // namespace qasca
