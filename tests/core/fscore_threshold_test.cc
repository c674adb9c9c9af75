// The F-score online assignment against a reference formulation kept here:
// every Update step thresholds with `r ? value : 0.0`, zero-fills n-wide b
// and d, scores every candidate, picks the top k with nth_element and folds
// the objective over an n-wide indicator. The instances put Qc and Qw
// target entries exactly on the threshold delta*alpha (where the >= rule
// decides), at 0 and at 1, so a select that treats the boundary
// differently from the `>=` rule changes a selected question, an iteration
// count or a bit of the objective. Both entry points run, with
// and without a Qw overlay and with one set of reused buffers across every
// instance.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/assignment/fscore_online.h"
#include "core/assignment/qw_overlay.h"
#include "core/metrics/fscore.h"
#include "util/rng.h"

namespace qasca {
namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

struct Instance {
  std::string name;
  DistributionMatrix qc;
  DistributionMatrix qw;
  std::vector<QuestionIndex> candidates;
  int k = 0;
  FScoreAssignmentOptions options;
};

struct Reference {
  AssignmentResult result;
  // Threshold tests that found their entry exactly on delta*alpha.
  int on_threshold = 0;
};

// Theorem 4's fold: 512-question blocks, each folded in order from (0, 0),
// block sums added in order.
std::pair<double, double> BlockFold(const std::vector<double>& column,
                                    double alpha, double threshold,
                                    int* on_threshold) {
  const size_t block = 512;
  double beta = 0.0;
  double gamma = 0.0;
  for (size_t begin = 0; begin < column.size(); begin += block) {
    double block_beta = 0.0;
    double block_gamma = 0.0;
    for (size_t i = begin; i < std::min(column.size(), begin + block); ++i) {
      const bool rc = column[i] >= threshold;
      *on_threshold += column[i] == threshold ? 1 : 0;
      block_beta += rc ? column[i] : 0.0;
      block_gamma += rc ? alpha : 0.0;
      block_gamma += (1.0 - alpha) * column[i];
    }
    beta += block_beta;
    gamma += block_gamma;
  }
  return {beta, gamma};
}

Reference ReferenceAssign(const Instance& instance) {
  const int n = instance.qc.num_questions();
  const LabelIndex t = instance.options.target_label;
  const double alpha = instance.options.alpha;
  std::vector<double> column(static_cast<size_t>(n));
  std::vector<double> estimated(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    column[static_cast<size_t>(i)] = instance.qc.At(i, t);
    estimated[static_cast<size_t>(i)] = instance.qw.At(i, t);
  }
  Reference reference;
  AssignmentResult& result = reference.result;
  const bool any_mass =
      std::any_of(column.begin(), column.end(),
                  [](double p) { return p > 0.0; }) ||
      std::any_of(instance.candidates.begin(), instance.candidates.end(),
                  [&](int i) { return estimated[static_cast<size_t>(i)] > 0; });
  if (!any_mass) {
    std::vector<QuestionIndex> sorted = instance.candidates;
    std::sort(sorted.begin(), sorted.end());
    result.selected.assign(sorted.begin(), sorted.begin() + instance.k);
    result.selected_scores.assign(static_cast<size_t>(instance.k), 0.0);
    return reference;
  }
  double delta = instance.options.warm_start
                     ? SolveFScoreColumn(column, alpha).value
                     : 0.0;
  for (int outer = 1; outer <= 1000; ++outer) {
    const double threshold = delta * alpha;
    ZeroOneFractionalProgram p;
    std::tie(p.beta, p.gamma) =
        BlockFold(column, alpha, threshold, &reference.on_threshold);
    p.b.assign(static_cast<size_t>(n), 0.0);
    p.d.assign(static_cast<size_t>(n), 0.0);
    for (int i : instance.candidates) {
      const double pc = column[static_cast<size_t>(i)];
      const double pw = estimated[static_cast<size_t>(i)];
      const bool rc = pc >= threshold;
      const bool rw = pw >= threshold;
      reference.on_threshold += (pc == threshold) + (pw == threshold);
      p.b[static_cast<size_t>(i)] = (rw ? pw : 0.0) - (rc ? pc : 0.0);
      p.d[static_cast<size_t>(i)] = alpha * ((rw ? 1.0 : 0.0) -
                                             (rc ? 1.0 : 0.0)) +
                                    (1.0 - alpha) * (pw - pc);
    }
    // Dinkelbach over exactly k candidates.
    std::vector<unsigned char> z(static_cast<size_t>(n), 0);
    std::vector<std::pair<double, int>> scored(instance.candidates.size());
    double lambda = 0.0;
    double value = 0.0;
    int iterations = 0;
    for (iterations = 1; iterations <= 1000; ++iterations) {
      for (size_t c = 0; c < instance.candidates.size(); ++c) {
        const int i = instance.candidates[c];
        scored[c] = {p.b[static_cast<size_t>(i)] -
                         lambda * p.d[static_cast<size_t>(i)],
                     i};
      }
      std::nth_element(scored.begin(), scored.begin() + (instance.k - 1),
                       scored.end(), [](const auto& a, const auto& b) {
                         return a.first > b.first ||
                                (a.first == b.first && a.second < b.second);
                       });
      std::fill(z.begin(), z.end(), 0);
      for (int s = 0; s < instance.k; ++s) {
        z[static_cast<size_t>(scored[static_cast<size_t>(s)].second)] = 1;
      }
      double numerator = p.beta;
      double denominator = p.gamma;
      for (int i = 0; i < n; ++i) {
        if (!z[static_cast<size_t>(i)]) continue;
        numerator += p.b[static_cast<size_t>(i)];
        denominator += p.d[static_cast<size_t>(i)];
      }
      value = numerator / denominator;
      if (std::fabs(value - lambda) <= 1e-12) break;
      lambda = value;
    }
    result.outer_iterations = outer;
    result.inner_iterations += iterations;
    if (std::fabs(value - delta) <= 1e-12) {
      result.objective = value;
      for (int i = 0; i < n; ++i) {
        if (!z[static_cast<size_t>(i)]) continue;
        result.selected.push_back(i);
        result.selected_scores.push_back(estimated[static_cast<size_t>(i)] -
                                         column[static_cast<size_t>(i)]);
      }
      return reference;
    }
    delta = value;
  }
  ADD_FAILURE() << "reference did not converge";
  return reference;
}

void SetTarget(DistributionMatrix* q, int i, LabelIndex t, double p) {
  const int l = q->num_labels();
  std::vector<double> row(static_cast<size_t>(l), (1.0 - p) / (l - 1));
  row[static_cast<size_t>(t)] = p;
  q->SetRow(i, row);
}

// A random row whose target entry is 0, 1 or anything between, in about
// equal shares.
void SetRandomRow(DistributionMatrix* q, int i, LabelIndex t,
                  util::SplitMix64* rng) {
  switch (rng->Next() % 3) {
    case 0:
      SetTarget(q, i, t, 0.0);
      return;
    case 1:
      SetTarget(q, i, t, 1.0);
      return;
    default:
      SetTarget(q, i, t, rng->NextDouble());
  }
}

Instance RandomInstance(const std::string& name, int n, int l, uint64_t seed,
                        bool warm_start) {
  util::SplitMix64 rng(seed);
  Instance instance{name, DistributionMatrix(n, l), DistributionMatrix(n, l),
                    {}, 0, {}};
  instance.options.target_label = static_cast<LabelIndex>(rng.Next() % 2);
  instance.options.alpha = 0.05 + 0.9 * rng.NextDouble();
  instance.options.warm_start = warm_start;
  for (int i = 0; i < n; ++i) {
    SetRandomRow(&instance.qc, i, instance.options.target_label, &rng);
    SetRandomRow(&instance.qw, i, instance.options.target_label, &rng);
  }
  for (int i = 0; i < n; ++i) {
    if (rng.Next() % 4 != 0) instance.candidates.push_back(i);
  }
  instance.k = 1 + static_cast<int>(
                       rng.Next() % std::min<uint64_t>(
                                         20, instance.candidates.size()));
  return instance;
}

// Qw target entries exactly on the first Update's threshold
// delta'_init * alpha, which depends on Qc alone.
Instance QwOnThreshold(int n, int l, uint64_t seed) {
  Instance instance = RandomInstance("qw_on_threshold n=" + std::to_string(n),
                                     n, l, seed, /*warm_start=*/true);
  const FScoreCurrent prepared =
      PrepareFScoreCurrent(instance.qc, instance.options);
  const double threshold = prepared.delta_init * instance.options.alpha;
  for (size_t c = 0; c < instance.candidates.size(); c += 2) {
    SetTarget(&instance.qw, instance.candidates[c],
              instance.options.target_label, threshold);
  }
  return instance;
}

// Qc target entries exactly on delta'_init * alpha, where delta'_init =
// F(Qc) depends on those very entries: the column holds `ones` ones and
// `at` entries v, the rest zeros, and v is iterated to a fixed point
// v = F(column(v)) * alpha. Returns nothing when the iteration does not
// land on one exactly.
std::optional<Instance> QcOnThreshold(int ones, int at, double alpha) {
  const int n = 48;
  const int l = 2;
  Instance instance{"qc_on_threshold ones=" + std::to_string(ones) +
                        " at=" + std::to_string(at),
                    DistributionMatrix(n, l), DistributionMatrix(n, l),
                    {}, 0, {}};
  instance.options.alpha = alpha;
  const auto fill = [&](double v) {
    for (int i = 0; i < n; ++i) {
      SetTarget(&instance.qc, i, 0, i < ones ? 1.0 : (i < ones + at ? v : 0.0));
    }
  };
  double v = 0.5;
  for (int step = 0; step < 200; ++step) {
    fill(v);
    const double next =
        PrepareFScoreCurrent(instance.qc, instance.options).delta_init * alpha;
    if (SameBits(next, v)) {
      util::SplitMix64 rng(static_cast<uint64_t>(ones * 100 + at));
      for (int i = 0; i < n; ++i) SetRandomRow(&instance.qw, i, 0, &rng);
      // Candidates straddle the ones, the entries at v and the zeros.
      for (int i = ones / 2; i < n; i += 2) instance.candidates.push_back(i);
      instance.k = 3;
      return instance;
    }
    v = next;
  }
  return std::nullopt;
}

void ExpectSame(const AssignmentResult& got, const AssignmentResult& want,
                const std::string& what) {
  EXPECT_EQ(got.selected, want.selected) << what;
  EXPECT_TRUE(SameBits(got.objective, want.objective))
      << what << ": " << got.objective << " vs " << want.objective;
  EXPECT_EQ(got.outer_iterations, want.outer_iterations) << what;
  EXPECT_EQ(got.inner_iterations, want.inner_iterations) << what;
  EXPECT_TRUE(std::equal(got.selected_scores.begin(),
                         got.selected_scores.end(),
                         want.selected_scores.begin(),
                         want.selected_scores.end(), SameBits))
      << what;
}

// Runs every entry point on `instance` and compares each with the
// reference; returns how many threshold tests sat on the threshold.
int CheckInstance(const Instance& instance, AssignmentScratch* scratch) {
  const Reference reference = ReferenceAssign(instance);
  AssignmentRequest request;
  request.current = &instance.qc;
  request.estimated = &instance.qw;
  request.candidates = instance.candidates;
  request.k = instance.k;
  ExpectSame(AssignFScoreOnline(request, instance.options), reference.result,
             instance.name + " (dense Qw)");

  QwOverlay overlay;
  const int rows = static_cast<int>(instance.candidates.size());
  overlay.Begin(instance.qc.num_labels(), rows);
  for (int slot = 0; slot < rows; ++slot) {
    const QuestionIndex i = instance.candidates[static_cast<size_t>(slot)];
    const std::span<const double> row = instance.qw.Row(i);
    std::copy(row.begin(), row.end(), overlay.MutableRow(slot));
  }
  request.estimated = &instance.qc;
  request.overlay = &overlay;
  request.scratch = scratch;
  ExpectSame(AssignFScoreOnline(
                 request, PrepareFScoreCurrent(instance.qc, instance.options)),
             reference.result, instance.name + " (overlay, reused buffers)");
  return reference.on_threshold;
}

TEST(FScoreThresholdTest, BoundaryEntriesMatchTheReference) {
  AssignmentScratch scratch;
  int qw_on = 0;
  for (int n : {40, 600, 2100}) {
    for (int l : {2, 3}) {
      qw_on += CheckInstance(
          QwOnThreshold(n, l, 0x7e5u + static_cast<uint64_t>(n * 10 + l)),
          &scratch);
    }
  }
  EXPECT_GT(qw_on, 0);

  int qc_on = 0;
  int fixed_points = 0;
  for (double alpha : {0.25, 0.5, 0.6, 0.75}) {
    for (int ones = 1; ones <= 6; ++ones) {
      for (int at = 1; at <= 4; ++at) {
        const std::optional<Instance> instance =
            QcOnThreshold(ones, at, alpha);
        if (!instance.has_value()) continue;
        ++fixed_points;
        qc_on += CheckInstance(*instance, &scratch);
      }
    }
  }
  EXPECT_GT(fixed_points, 0);
  EXPECT_GT(qc_on, 0);

  // Cold starts run the first Update at delta = 0, where every zero entry
  // sits on the threshold; ones sit at the top of the range.
  int zero_on = 0;
  for (int n : {40, 600, 2100}) {
    for (int l : {2, 3}) {
      const uint64_t seed = 0xc01du + static_cast<uint64_t>(n * 10 + l);
      zero_on += CheckInstance(
          RandomInstance("cold n=" + std::to_string(n), n, l, seed,
                         /*warm_start=*/false),
          &scratch);
      CheckInstance(RandomInstance("warm n=" + std::to_string(n), n, l,
                                   seed + 1, /*warm_start=*/true),
                    &scratch);
    }
  }
  EXPECT_GT(zero_on, 0);
}

}  // namespace
}  // namespace qasca
