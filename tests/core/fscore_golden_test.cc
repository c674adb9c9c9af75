// Bit-level pins of the F-score assignment path: AssignFScoreOnline,
// SolveFScoreQuality (Algorithm 1), SolveExactlyK and SolveUnconstrained.
//
// The expected hashes were recorded on the implementation that scored every
// candidate into a vector and selected with nth_element, swept the
// objective over all n questions and read Qc/Qw through the matrices on
// every Update call. Any change to a selection, a fold order, a tie-break
// or an iteration count fails here before it can move a decision.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/assignment/fscore_online.h"
#include "core/assignment/qw_overlay.h"
#include "core/fractional.h"
#include "core/metrics/fscore.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace qasca {
namespace {

uint64_t Mix(uint64_t hash, uint64_t value) {
  hash ^= value;
  hash *= 1099511628211ull;
  return hash;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

constexpr uint64_t kHashSeed = 1469598103934665603ull;

uint64_t HashAssignment(const AssignmentResult& result) {
  uint64_t hash = kHashSeed;
  for (QuestionIndex i : result.selected) {
    hash = Mix(hash, static_cast<uint64_t>(i));
  }
  hash = Mix(hash, Bits(result.objective));
  hash = Mix(hash, static_cast<uint64_t>(result.outer_iterations));
  hash = Mix(hash, static_cast<uint64_t>(result.inner_iterations));
  for (double score : result.selected_scores) hash = Mix(hash, Bits(score));
  return hash;
}

uint64_t HashQuality(const FScoreQualityResult& result) {
  uint64_t hash = kHashSeed;
  hash = Mix(hash, Bits(result.lambda));
  hash = Mix(hash, static_cast<uint64_t>(result.iterations));
  for (LabelIndex label : result.optimal_result) {
    hash = Mix(hash, static_cast<uint64_t>(label));
  }
  return hash;
}

uint64_t HashSolution(const FractionalSolution& solution) {
  uint64_t hash = kHashSeed;
  hash = Mix(hash, Bits(solution.value));
  hash = Mix(hash, static_cast<uint64_t>(solution.iterations));
  for (unsigned char zi : solution.z) hash = Mix(hash, zi);
  return hash;
}

// --- Seeded instances, drawn from SplitMix64 alone so they are identical on
// every standard library. ---------------------------------------------------

// With ties on, questions come in groups of eight with bit-equal rows (Qc
// and Qw) or coefficients, so a top-k boundary that cuts through a group is
// decided by the question-index tie-break alone.
bool TiedWithPredecessor(int i) { return i % 8 != 0; }

// Random Qc/Qw rows over `l` labels. With `zero_mass` the target label has
// probability exactly 0 in every row of both matrices.
void FillMatrices(int n, int l, LabelIndex target, uint64_t seed, bool ties,
                  bool zero_mass, DistributionMatrix* qc,
                  DistributionMatrix* qw) {
  util::SplitMix64 rng(seed);
  std::vector<double> weights(static_cast<size_t>(l));
  for (DistributionMatrix* q : {qc, qw}) {
    for (int i = 0; i < n; ++i) {
      if (ties && i > 0 && TiedWithPredecessor(i)) {
        const std::span<const double> previous = q->Row(i - 1);
        weights.assign(previous.begin(), previous.end());
        q->SetRow(i, weights);
        continue;
      }
      for (double& w : weights) w = 0.02 + rng.NextDouble();
      if (zero_mass) weights[static_cast<size_t>(target)] = 0.0;
      q->SetRowNormalized(i, weights);
    }
  }
}

void Shuffle(std::vector<int>* values, uint64_t seed) {
  util::SplitMix64 rng(seed);
  for (size_t i = values->size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(rng.Next() % i);
    std::swap((*values)[i - 1], (*values)[j]);
  }
}

// The questions a worker could still be given: every question except each
// thirteenth (already assigned to them), ascending or shuffled.
std::vector<int> Candidates(int n, bool shuffled, uint64_t seed) {
  std::vector<int> candidates;
  for (int i = 0; i < n; ++i) {
    if (i % 13 != 5) candidates.push_back(i);
  }
  if (shuffled) Shuffle(&candidates, seed);
  return candidates;
}

// A general 0-1 fractional program with negative as well as positive b and
// d. beta and gamma exceed the total negative mass, so every numerator is
// positive (0 is a valid lambda_init) and every denominator is positive.
ZeroOneFractionalProgram RandomProgram(int n, uint64_t seed, bool ties) {
  util::SplitMix64 rng(seed);
  ZeroOneFractionalProgram p;
  p.b.resize(static_cast<size_t>(n));
  p.d.resize(static_cast<size_t>(n));
  double negative_b = 0.0;
  double negative_d = 0.0;
  for (size_t i = 0; i < p.b.size(); ++i) {
    if (ties && i > 0 && TiedWithPredecessor(static_cast<int>(i))) {
      p.b[i] = p.b[i - 1];
      p.d[i] = p.d[i - 1];
    } else {
      p.b[i] = rng.NextDouble() * 1.5 - 0.5;
      p.d[i] = rng.NextDouble() * 1.2 - 0.2;
    }
    negative_b += std::max(0.0, -p.b[i]);
    negative_d += std::max(0.0, -p.d[i]);
  }
  p.beta = 0.1 + negative_b + rng.NextDouble();
  p.gamma = 0.5 + negative_d + rng.NextDouble();
  return p;
}

// --- AssignFScoreOnline ----------------------------------------------------

struct OnlineCase {
  const char* name;
  int n;
  int l;
  LabelIndex target;
  double alpha;
  // 0 selects every candidate.
  int k;
  bool shuffled;
  bool warm_start;
  bool ties;
  bool zero_mass;
  // 0 runs with pool == nullptr.
  int threads;
  // Qw supplied as a QwOverlay over Qc instead of a full matrix.
  bool overlay;
  uint64_t expected_hash;
};

// Cases that differ only in `threads` or `overlay` share one expected hash:
// neither the pool nor the Qw representation may move a bit.
const OnlineCase kOnlineCases[] = {
    {"n6_l2_t0_a50_k1_asc_warm", 6, 2, 0, 0.5, 1, false, true, false, false,
     0, false, 0x179d5bbaf92f7710ull},
    {"n6_l2_t0_a75_k4_shuf_cold", 6, 2, 0, 0.75, 4, true, false, false, false,
     0, false, 0x4e4560aacbdc1292ull},
    {"n6_l3_t1_a25_kall_asc_warm", 6, 3, 1, 0.25, 0, false, true, false,
     false, 0, false, 0xca7ddf53f359dbaaull},
    {"n6_l2_t1_a50_k4_asc_warm_ties", 6, 2, 1, 0.5, 4, false, true, true,
     false, 0, false, 0x87c631a5b9d00565ull},
    {"n600_l2_t0_a50_k4_asc_warm", 600, 2, 0, 0.5, 4, false, true, false,
     false, 0, false, 0x7213c7091227b360ull},
    {"n600_l2_t0_a50_k4_asc_warm_pool", 600, 2, 0, 0.5, 4, false, true, false,
     false, 4, false, 0x7213c7091227b360ull},
    {"n600_l2_t0_a50_k4_asc_warm_overlay", 600, 2, 0, 0.5, 4, false, true,
     false, false, 0, true, 0x7213c7091227b360ull},
    {"n600_l3_t1_a75_k20_shuf_cold", 600, 3, 1, 0.75, 20, true, false, false,
     false, 0, false, 0xcda3bde31c679ad2ull},
    {"n600_l2_t1_a25_k20_asc_warm_ties", 600, 2, 1, 0.25, 20, false, true,
     true, false, 0, false, 0x32160b21a1f09b17ull},
    {"n600_l2_t0_a75_kall_shuf_warm", 600, 2, 0, 0.75, 0, true, true, false,
     false, 0, false, 0x6791f0b71363cf15ull},
    {"n600_l2_t0_a50_k4_zero_mass", 600, 2, 0, 0.5, 4, true, true, false,
     true, 0, false, 0xc78d2c30841b6c5dull},
    {"n2000_l2_t0_a50_k4_asc_warm", 2000, 2, 0, 0.5, 4, false, true, false,
     false, 0, false, 0xd5b7b2d87f92826full},
    {"n2000_l2_t0_a50_k4_asc_warm_pool", 2000, 2, 0, 0.5, 4, false, true,
     false, false, 4, false, 0xd5b7b2d87f92826full},
    {"n2000_l2_t0_a50_k4_asc_warm_overlay_pool", 2000, 2, 0, 0.5, 4, false,
     true, false, false, 4, true, 0xd5b7b2d87f92826full},
    {"n2000_l2_t0_a25_k20_shuf_cold_ties", 2000, 2, 0, 0.25, 20, true, false,
     true, false, 0, false, 0xdc7c022adaabc8b1ull},
    {"n2000_l3_t1_a75_k1_asc_warm", 2000, 3, 1, 0.75, 1, false, true, false,
     false, 0, false, 0x8be6965abace8dafull},
    {"n2000_l3_t0_a50_k20_shuf_warm_ties", 2000, 3, 0, 0.5, 20, true, true,
     true, false, 0, false, 0xdf00f82c7fa579b4ull},
    {"n2000_l3_t0_a50_k20_shuf_warm_ties_pool", 2000, 3, 0, 0.5, 20, true,
     true, true, false, 4, false, 0xdf00f82c7fa579b4ull},
    {"n2000_l2_t1_a75_k20_asc_cold", 2000, 2, 1, 0.75, 20, false, false,
     false, false, 0, false, 0xd8e5fcd672a2fa44ull},
    {"n2000_l3_t1_a25_k4_shuf_warm", 2000, 3, 1, 0.25, 4, true, true, false,
     false, 0, false, 0xa5acfc56fe199af5ull},
    // alpha off the dyadic grid, so adding alpha is rarely exact and the
    // order of gamma's two terms shows in the bits.
    {"n2000_l2_t0_a60_k4_asc_warm", 2000, 2, 0, 0.6, 4, false, true, false,
     false, 0, false, 0x64b5a737c3a53251ull},
    {"n600_l3_t1_a30_k20_shuf_cold_ties", 600, 3, 1, 0.3, 20, true, false,
     true, false, 0, false, 0x6b73086e2e0f70feull},
    {"n2000_l2_t0_a50_kall_asc_warm", 2000, 2, 0, 0.5, 0, false, true, false,
     false, 0, false, 0x11458da542e1839dull},
};

void PrintTo(const OnlineCase& c, std::ostream* os) { *os << c.name; }

class FScoreOnlineGoldenTest : public ::testing::TestWithParam<OnlineCase> {};

TEST_P(FScoreOnlineGoldenTest, HashMatchesPinnedValue) {
  const OnlineCase& c = GetParam();
  DistributionMatrix qc(c.n, c.l);
  DistributionMatrix qw(c.n, c.l);
  FillMatrices(c.n, c.l, c.target, 0x5eed0000u + static_cast<uint64_t>(c.n),
               c.ties, c.zero_mass, &qc, &qw);
  AssignmentRequest request;
  request.current = &qc;
  request.estimated = &qw;
  request.candidates = Candidates(c.n, c.shuffled, 17);
  request.k = c.k == 0 ? static_cast<int>(request.candidates.size()) : c.k;
  QwOverlay overlay;
  if (c.overlay) {
    const int rows = static_cast<int>(request.candidates.size());
    overlay.Begin(c.l, rows);
    for (int slot = 0; slot < rows; ++slot) {
      const QuestionIndex i = request.candidates[static_cast<size_t>(slot)];
      const std::span<const double> row = qw.Row(i);
      std::copy(row.begin(), row.end(), overlay.MutableRow(slot));
    }
    request.estimated = &qc;
    request.overlay = &overlay;
  }
  std::unique_ptr<util::ThreadPool> pool;
  if (c.threads > 0) pool = std::make_unique<util::ThreadPool>(c.threads);
  request.pool = pool.get();

  FScoreAssignmentOptions options;
  options.target_label = c.target;
  options.alpha = c.alpha;
  options.warm_start = c.warm_start;
  const AssignmentResult result = AssignFScoreOnline(request, options);
  ASSERT_EQ(static_cast<int>(result.selected.size()), request.k);
  EXPECT_TRUE(std::is_sorted(result.selected.begin(), result.selected.end()));
  if (c.zero_mass) {
    // Every score ties at zero, so the selection order (score descending,
    // then question ascending) picks the k smallest candidates.
    std::vector<QuestionIndex> smallest = request.candidates;
    std::sort(smallest.begin(), smallest.end());
    smallest.resize(static_cast<size_t>(request.k));
    EXPECT_EQ(result.selected, smallest);
  }
  EXPECT_EQ(HashAssignment(result), c.expected_hash)
      << c.name << ": 0x" << std::hex << HashAssignment(result);
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, FScoreOnlineGoldenTest, ::testing::ValuesIn(kOnlineCases),
    [](const ::testing::TestParamInfo<OnlineCase>& info) {
      return std::string(info.param.name);
    });

// --- SolveFScoreQuality (Algorithm 1) --------------------------------------

struct QualityCase {
  const char* name;
  int n;
  int l;
  LabelIndex target;
  double alpha;
  bool ties;
  bool zero_mass;
  uint64_t expected_hash;
};

const QualityCase kQualityCases[] = {
    {"n6_l2_t0_a25", 6, 2, 0, 0.25, false, false, 0xee34cdb2c0f1c82aull},
    {"n6_l3_t1_a75", 6, 3, 1, 0.75, false, false, 0xf7b00110aa6b1defull},
    {"n600_l2_t1_a50_ties", 600, 2, 1, 0.5, true, false, 0x406a6a61ec28c264ull},
    {"n600_l3_t0_a25", 600, 3, 0, 0.25, false, false, 0xf2885052bbda587cull},
    {"n600_l2_t0_a100", 600, 2, 0, 1.0, false, false, 0xc211a618f6913c9aull},
    {"n2000_l2_t0_a50", 2000, 2, 0, 0.5, false, false, 0xf4c2c696b521e682ull},
    {"n2000_l3_t1_a75_ties", 2000, 3, 1, 0.75, true, false, 0xddab7ed635054379ull},
    {"n2000_l2_t1_a25", 2000, 2, 1, 0.25, false, false, 0x70363b91b92a4310ull},
    {"n2000_l2_t0_a50_zero_mass", 2000, 2, 0, 0.5, false, true, 0x953f9dddd5adb08bull},
    {"n2000_l2_t1_a60", 2000, 2, 1, 0.6, false, false, 0x86627b2aa8bc3a77ull},
};

void PrintTo(const QualityCase& c, std::ostream* os) { *os << c.name; }

class FScoreQualityGoldenTest : public ::testing::TestWithParam<QualityCase> {
};

TEST_P(FScoreQualityGoldenTest, HashMatchesPinnedValue) {
  const QualityCase& c = GetParam();
  DistributionMatrix qc(c.n, c.l);
  DistributionMatrix unused(c.n, c.l);
  FillMatrices(c.n, c.l, c.target, 0x9a17u + static_cast<uint64_t>(c.n),
               c.ties, c.zero_mass, &qc, &unused);
  const FScoreQualityResult result = SolveFScoreQuality(qc, c.alpha, c.target);
  EXPECT_EQ(HashQuality(result), c.expected_hash)
      << c.name << ": 0x" << std::hex << HashQuality(result);
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, FScoreQualityGoldenTest, ::testing::ValuesIn(kQualityCases),
    [](const ::testing::TestParamInfo<QualityCase>& info) {
      return std::string(info.param.name);
    });

// --- SolveExactlyK / SolveUnconstrained ------------------------------------

struct SolverCase {
  const char* name;
  int n;
  // 0 solves SolveUnconstrained; -1 selects every candidate.
  int k;
  bool shuffled;
  bool ties;
  // Start from the value of the first k candidates instead of 0.
  bool warm_lambda;
  uint64_t expected_hash;
};

const SolverCase kSolverCases[] = {
    {"unconstrained_n6", 6, 0, false, false, false, 0xd3077a429612f116ull},
    {"unconstrained_n600_ties", 600, 0, false, true, false, 0x69b02bb9b79ee88dull},
    {"unconstrained_n2000", 2000, 0, false, false, false, 0x48778e585732e2e2ull},
    {"exactly_n6_k1_asc", 6, 1, false, false, false, 0x980b2d1e89d4bc88ull},
    {"exactly_n6_k4_shuf_ties", 6, 4, true, true, false, 0x4461ad7c68c84cb3ull},
    {"exactly_n6_kall_asc", 6, -1, false, false, false, 0x60fdedb1ac0749bfull},
    {"exactly_n600_k4_asc_ties", 600, 4, false, true, false, 0xc3b75796e5364202ull},
    {"exactly_n600_k20_shuf", 600, 20, true, false, true, 0x28713476d8096b57ull},
    {"exactly_n600_kall_shuf", 600, -1, true, false, false, 0xd2c36f90888ea896ull},
    {"exactly_n2000_k1_shuf", 2000, 1, true, false, false, 0xfe11b9737f9e676cull},
    {"exactly_n2000_k20_asc_ties", 2000, 20, false, true, false, 0xabbdee94692c1057ull},
    {"exactly_n2000_k4_shuf_warm", 2000, 4, true, false, true, 0xf1dfa6f2c9dcafcull},
};

void PrintTo(const SolverCase& c, std::ostream* os) { *os << c.name; }

class FractionalGoldenTest : public ::testing::TestWithParam<SolverCase> {};

TEST_P(FractionalGoldenTest, HashMatchesPinnedValue) {
  const SolverCase& c = GetParam();
  const ZeroOneFractionalProgram p =
      RandomProgram(c.n, 0xf4ac0000u + static_cast<uint64_t>(c.n), c.ties);
  FractionalSolution solution;
  if (c.k == 0) {
    solution = SolveUnconstrained(p);
  } else {
    const std::vector<int> candidates = Candidates(c.n, c.shuffled, 29);
    const int k = c.k < 0 ? static_cast<int>(candidates.size()) : c.k;
    double lambda_init = 0.0;
    if (c.warm_lambda) {
      double numerator = p.beta;
      double denominator = p.gamma;
      for (int s = 0; s < k; ++s) {
        numerator += p.b[static_cast<size_t>(candidates[s])];
        denominator += p.d[static_cast<size_t>(candidates[s])];
      }
      lambda_init = numerator / denominator;
    }
    solution = SolveExactlyK(p, candidates, k, lambda_init);
  }
  EXPECT_EQ(HashSolution(solution), c.expected_hash)
      << c.name << ": 0x" << std::hex << HashSolution(solution);
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, FractionalGoldenTest, ::testing::ValuesIn(kSolverCases),
    [](const ::testing::TestParamInfo<SolverCase>& info) {
      return std::string(info.param.name);
    });

// --- Reference solvers -----------------------------------------------------
//
// The exactly-k solver as it stood before streaming selection: every
// Dinkelbach step scores all candidates into a vector, picks the top k with
// nth_element under (score descending, question ascending), and sweeps the
// objective over all n coordinates. The unconstrained reference is the same
// n-wide sweep. Both stop on the solvers' tolerance of 1e-12.

double ReferenceObjective(const ZeroOneFractionalProgram& p,
                          const std::vector<unsigned char>& z) {
  double numerator = p.beta;
  double denominator = p.gamma;
  for (size_t i = 0; i < z.size(); ++i) {
    if (z[i]) {
      numerator += p.b[i];
      denominator += p.d[i];
    }
  }
  return numerator / denominator;
}

FractionalSolution ReferenceExactlyK(const ZeroOneFractionalProgram& p,
                                     const std::vector<int>& candidates, int k,
                                     double lambda_init) {
  std::vector<std::pair<double, int>> scored(candidates.size());
  FractionalSolution solution;
  solution.z.assign(p.b.size(), 0);
  double lambda = lambda_init;
  for (int iteration = 1; iteration <= 1000; ++iteration) {
    for (size_t c = 0; c < candidates.size(); ++c) {
      const int i = candidates[c];
      scored[c] = {p.b[static_cast<size_t>(i)] -
                       lambda * p.d[static_cast<size_t>(i)],
                   i};
    }
    std::nth_element(scored.begin(), scored.begin() + (k - 1), scored.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first ||
                              (a.first == b.first && a.second < b.second);
                     });
    std::fill(solution.z.begin(), solution.z.end(), 0);
    for (int c = 0; c < k; ++c) {
      solution.z[static_cast<size_t>(scored[static_cast<size_t>(c)].second)] =
          1;
    }
    const double updated = ReferenceObjective(p, solution.z);
    solution.iterations = iteration;
    if (std::fabs(updated - lambda) <= 1e-12) {
      solution.value = updated;
      return solution;
    }
    lambda = updated;
  }
  ADD_FAILURE() << "reference Dinkelbach did not converge";
  return solution;
}

FractionalSolution ReferenceUnconstrained(const ZeroOneFractionalProgram& p) {
  FractionalSolution solution;
  solution.z.assign(p.b.size(), 0);
  double lambda = 0.0;
  for (int iteration = 1; iteration <= 1000; ++iteration) {
    for (size_t i = 0; i < p.b.size(); ++i) {
      solution.z[i] = p.b[i] - lambda * p.d[i] >= 0.0 ? 1 : 0;
    }
    const double updated = ReferenceObjective(p, solution.z);
    solution.iterations = iteration;
    if (std::fabs(updated - lambda) <= 1e-12) {
      solution.value = updated;
      return solution;
    }
    lambda = updated;
  }
  ADD_FAILURE() << "reference Dinkelbach did not converge";
  return solution;
}

TEST(FractionalReferenceTest, SolversMatchTheReferenceBitForBit) {
  util::SplitMix64 rng(0x2efe2e7ceull);
  int tied_programs = 0;
  for (int trial = 0; trial < 1200; ++trial) {
    const int n = 1 + static_cast<int>(rng.Next() % 64);
    const bool ties = rng.Next() % 3 == 0;
    tied_programs += ties ? 1 : 0;
    const ZeroOneFractionalProgram p = RandomProgram(n, rng.Next(), ties);

    std::vector<int> candidates(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) candidates[static_cast<size_t>(i)] = i;
    Shuffle(&candidates, rng.Next());
    candidates.resize(1 + static_cast<size_t>(rng.Next() % n));
    if (rng.Next() % 2 == 0) std::sort(candidates.begin(), candidates.end());
    const int k = 1 + static_cast<int>(rng.Next() % candidates.size());
    // Half the programs start from a feasible value instead of 0.
    double lambda_init = 0.0;
    if (rng.Next() % 2 == 0) {
      std::vector<unsigned char> z(static_cast<size_t>(n), 0);
      for (int s = 0; s < k; ++s) z[static_cast<size_t>(candidates[s])] = 1;
      lambda_init = ReferenceObjective(p, z);
    }

    const FractionalSolution expected =
        ReferenceExactlyK(p, candidates, k, lambda_init);
    const FractionalSolution actual =
        SolveExactlyK(p, candidates, k, lambda_init);
    ASSERT_EQ(Bits(actual.value), Bits(expected.value)) << "trial " << trial;
    ASSERT_EQ(actual.iterations, expected.iterations) << "trial " << trial;
    ASSERT_EQ(actual.z, expected.z) << "trial " << trial;

    const FractionalSolution unconstrained_expected = ReferenceUnconstrained(p);
    const FractionalSolution unconstrained = SolveUnconstrained(p);
    ASSERT_EQ(Bits(unconstrained.value), Bits(unconstrained_expected.value))
        << "trial " << trial;
    ASSERT_EQ(unconstrained.iterations, unconstrained_expected.iterations)
        << "trial " << trial;
    ASSERT_EQ(unconstrained.z, unconstrained_expected.z) << "trial " << trial;
  }
  EXPECT_GT(tied_programs, 300);
}

}  // namespace
}  // namespace qasca
