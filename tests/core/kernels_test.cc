#include "core/kernels/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/assignment/assignment.h"
#include "core/assignment/qw_overlay.h"
#include "core/distribution_matrix.h"
#include "util/fold.h"
#include "util/rng.h"

namespace qasca {
namespace {

// Deterministic positive test data: reproducible on any host, strictly
// positive (the kernels serve probability rows) and irregular enough that a
// wrong fold order or a fused multiply-add changes at least one bit.
std::vector<double> TestRow(int n, uint64_t salt) {
  std::vector<double> row(static_cast<size_t>(n));
  uint64_t state = salt * 0x9e3779b97f4a7c15ull + 1;
  for (int i = 0; i < n; ++i) {
    state ^= state >> 30;
    state *= 0xbf58476d1ce4e5b9ull;
    state ^= state >> 27;
    // In (0, 1]: irregular mantissas, no zeros.
    row[static_cast<size_t>(i)] =
        static_cast<double>((state >> 11) + 1) / 9007199254740993.0;
  }
  return row;
}

// The transposed likelihood table of a row-major [truth][answered]
// confusion matrix: row `answered` holds cm[truth][answered] over truth, as
// WorkerLikelihoods lays it out.
std::vector<double> TransposedTable(const std::vector<double>& cm, int l) {
  std::vector<double> table(cm.size());
  for (int t = 0; t < l; ++t) {
    for (int a = 0; a < l; ++a) {
      table[static_cast<size_t>(a * l + t)] =
          cm[static_cast<size_t>(t * l + a)];
    }
  }
  return table;
}

// The sizes swept by the schedule tests: all the remainder classes of the
// 4-lane schedule plus a few cache-line-straddling lengths.
std::vector<int> TestSizes() {
  std::vector<int> sizes;
  for (int n = 1; n <= 19; ++n) sizes.push_back(n);
  for (int n : {24, 31, 32, 33, 48, 63, 64, 65, 67}) sizes.push_back(n);
  return sizes;
}

// The kernels' bit-level contract (kernels.h). All comparisons below are
// EXPECT_EQ on doubles — exact equality, never NEAR.
TEST(KernelEquivalenceTest, RowSumMatchesFourLaneSchedule) {
  // The schedule is part of the contract, not an implementation detail:
  // acc[i % 4] += x[i] over full 4-blocks, merged ((acc0+acc1)+acc2)+acc3,
  // then a left-to-right tail.
  for (int n : TestSizes()) {
    const std::vector<double> x = TestRow(n, /*salt=*/91u + n);
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    const int main = n - (n % 4);
    for (int i = 0; i < main; ++i) acc[i % 4] += x[static_cast<size_t>(i)];
    double expected = ((acc[0] + acc[1]) + acc[2]) + acc[3];
    for (int i = main; i < n; ++i) expected += x[static_cast<size_t>(i)];
    EXPECT_EQ(kernels::RowSum(x.data(), n), expected) << "n=" << n;
  }
}

TEST(KernelEquivalenceTest, RowSumEqualsDeterministicSumForShortRows) {
  // For n <= 4 the schedule degenerates to a strict left-to-right sum, so
  // label rows of golden-trace width (l = 2) keep their historical value.
  for (int n = 1; n <= 4; ++n) {
    const std::vector<double> x = TestRow(n, /*salt=*/300u + n);
    const double serial = util::DeterministicSum(
        0, n, [&](int i) { return x[static_cast<size_t>(i)]; });
    EXPECT_EQ(kernels::RowSum(x.data(), n), serial) << "n=" << n;
  }
}

TEST(KernelEquivalenceTest, RowMaxMatchesStdMaxElement) {
  for (int n : TestSizes()) {
    const std::vector<double> x = TestRow(n, /*salt=*/700u + n);
    const double reference = *std::max_element(x.begin(), x.end());
    EXPECT_EQ(kernels::RowMax(x.data(), n), reference) << "n=" << n;
  }
}

TEST(KernelEquivalenceTest, ElementwiseKernelsMatchScalarExpressions) {
  // Each element is one correctly-rounded expression: out = a*b, in *= b,
  // in /= d (true division, not a reciprocal multiply), and the WP answer
  // distribution m*r + off*(1-r) with its products and sum rounded
  // separately (no fused multiply-add).
  for (int n : TestSizes()) {
    const std::vector<double> a = TestRow(n, /*salt=*/4000u + n);
    const std::vector<double> b = TestRow(n, /*salt=*/5000u + n);
    const double divisor = 0.37 + 0.01 * n;
    const double m = 0.81;
    const double off = (1.0 - m) / 3.0;
    std::vector<double> mul(a.size()), wp(a.size());
    std::vector<double> div(a), mulin(a);
    kernels::MulRow(mul.data(), a.data(), b.data(), n);
    kernels::MulRowInPlace(mulin.data(), b.data(), n);
    kernels::DivRow(div.data(), n, divisor);
    kernels::WpAnswerDistribution(a.data(), n, m, off, wp.data());
    for (int i = 0; i < n; ++i) {
      const size_t s = static_cast<size_t>(i);
      EXPECT_EQ(mul[s], a[s] * b[s]) << "MulRow n=" << n << " i=" << i;
      EXPECT_EQ(mulin[s], a[s] * b[s]) << "MulRowInPlace n=" << n;
      EXPECT_EQ(div[s], a[s] / divisor) << "DivRow n=" << n << " i=" << i;
      // volatile rounds each product to a double before the add, whatever
      // this test TU's own contraction setting.
      const volatile double kept = m * a[s];
      const volatile double dropped = off * (1.0 - a[s]);
      EXPECT_EQ(wp[s], kept + dropped) << "WpAnswerDistribution n=" << n;
    }
  }
}

TEST(KernelEquivalenceTest, CmAnswerDistributionAscendingTruthOrder) {
  // Each output lane accumulates cm[truth][answered] * row[truth] in
  // ascending-truth order — the exact order the legacy answered-major loop
  // produced.
  for (int l : {2, 3, 4, 5, 8}) {
    const std::vector<double> cm =
        TestRow(l * l, /*salt=*/6000u + static_cast<uint64_t>(l));
    const std::vector<double> row = TestRow(l, /*salt=*/7000u + l);
    std::vector<double> expected(static_cast<size_t>(l), 0.0);
    for (int truth = 0; truth < l; ++truth) {
      for (int answered = 0; answered < l; ++answered) {
        expected[static_cast<size_t>(answered)] +=
            cm[static_cast<size_t>(truth * l + answered)] *
            row[static_cast<size_t>(truth)];
      }
    }
    std::vector<double> out(static_cast<size_t>(l));
    kernels::CmAnswerDistribution(cm.data(), row.data(), l, out.data());
    EXPECT_EQ(out, expected) << "l=" << l;
  }
}

// QwOverlay is a block of rows addressed by candidate position: slot c
// holds candidates[c]'s row, and nothing is indexed by question.
TEST(QwOverlayTest, StampedRowsReadBackWrittenValues) {
  QwOverlay overlay;
  overlay.Begin(/*num_labels=*/3, /*rows=*/2);
  double* r0 = overlay.MutableRow(0);
  double* r1 = overlay.MutableRow(1);
  r0[0] = 0.5;
  r0[1] = 0.25;
  r0[2] = 0.25;
  r1[0] = 0.1;
  r1[1] = 0.2;
  r1[2] = 0.7;
  EXPECT_EQ(overlay.SlotRow(0)[0], 0.5);
  EXPECT_EQ(overlay.SlotRow(0)[2], 0.25);
  EXPECT_EQ(overlay.SlotRow(1)[2], 0.7);
  EXPECT_EQ(overlay.SlotRow(0).size(), 3u);
  EXPECT_EQ(overlay.SlotRow(1).data(), r1);
}

TEST(QwOverlayTest, UnstampedRowsFallThrough) {
  // A request reads Qw only by candidate position: from overlay slot c when
  // an overlay is attached, never from `estimated`, and from
  // estimated->Row(candidates[c]) when none is.
  DistributionMatrix qw(6, 2);
  qw.SetRow(3, std::vector<double>{0.9, 0.1});
  qw.SetRow(5, std::vector<double>{0.2, 0.8});
  AssignmentRequest request;
  request.current = &qw;
  request.estimated = &qw;
  request.candidates = {5, 3};
  request.k = 1;
  EXPECT_EQ(request.EstimatedSlotRow(0).data(), qw.Row(5).data());
  EXPECT_EQ(request.EstimatedSlotRow(1).data(), qw.Row(3).data());

  QwOverlay overlay;
  overlay.Begin(/*num_labels=*/2, /*rows=*/2);
  overlay.MutableRow(0)[0] = 0.4;
  overlay.MutableRow(0)[1] = 0.6;
  overlay.MutableRow(1)[0] = 0.7;
  overlay.MutableRow(1)[1] = 0.3;
  request.overlay = &overlay;
  EXPECT_EQ(request.EstimatedSlotRow(0).data(), overlay.SlotRow(0).data());
  EXPECT_EQ(request.EstimatedSlotRow(1).data(), overlay.SlotRow(1).data());
  EXPECT_EQ(request.EstimatedSlotRow(1)[0], 0.7);
}

TEST(QwOverlayTest, BeginInvalidatesPreviousEpoch) {
  // Each Begin starts a new request: the slot count and the quality channel
  // are the new request's, whatever the previous one left.
  QwOverlay overlay;
  overlay.Begin(/*num_labels=*/2, /*rows=*/2);
  overlay.MutableRow(1)[0] = 0.25;
  overlay.ArmQualities()[1] = 0.75;
  overlay.Begin(2, /*rows=*/1);
  EXPECT_EQ(overlay.rows_materialized(), 1);
  EXPECT_FALSE(overlay.has_qualities());
  overlay.MutableRow(0)[0] = 0.5;
  overlay.MutableRow(0)[1] = 0.5;
  EXPECT_EQ(overlay.SlotRow(0)[1], 0.5);
}

TEST(QwOverlayTest, ShapeChangeResetsStamps) {
  // A new label count re-lays the block out: rows are num_labels wide and
  // distinct slots never overlap.
  QwOverlay overlay;
  overlay.Begin(/*num_labels=*/2, /*rows=*/1);
  overlay.Begin(/*num_labels=*/3, /*rows=*/4);
  EXPECT_EQ(overlay.num_labels(), 3);
  for (int slot = 0; slot < 4; ++slot) {
    for (int j = 0; j < 3; ++j) {
      overlay.MutableRow(slot)[j] = static_cast<double>(slot * 3 + j);
    }
  }
  for (int slot = 0; slot < 4; ++slot) {
    ASSERT_EQ(overlay.SlotRow(slot).size(), 3u);
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(overlay.SlotRow(slot)[j], static_cast<double>(slot * 3 + j))
          << "slot=" << slot;
    }
  }
}

TEST(QwOverlayTest, CountsMaterializedRows) {
  QwOverlay overlay;
  EXPECT_EQ(overlay.rows_materialized(), 0);
  overlay.Begin(2, /*rows=*/3);
  EXPECT_EQ(overlay.rows_materialized(), 3);
  overlay.Begin(2, /*rows=*/5);
  EXPECT_EQ(overlay.rows_materialized(), 5);
  overlay.Begin(2, /*rows=*/0);
  EXPECT_EQ(overlay.rows_materialized(), 0);
}

TEST(QwOverlayTest, QualityChannelArmsPerEpoch) {
  QwOverlay overlay;
  EXPECT_FALSE(overlay.has_qualities());  // never Begun
  overlay.Begin(/*num_labels=*/2, /*rows=*/2);
  EXPECT_FALSE(overlay.has_qualities());  // not armed this request
  double* q = overlay.ArmQualities();
  q[0] = 0.75;
  q[1] = 0.6;
  ASSERT_TRUE(overlay.has_qualities());
  EXPECT_EQ(overlay.Quality(0), 0.75);
  EXPECT_EQ(overlay.Quality(1), 0.6);
  // Begin disarms: a stale quality buffer can never leak into the next
  // request, even though the storage is reused.
  overlay.Begin(2, /*rows=*/2);
  EXPECT_FALSE(overlay.has_qualities());
}

// The fused sampled-Qw batch (kernels::SampledQwRows) against the unfused
// per-row composition it replaced: answer-distribution kernel,
// util::SampleWeightedAt on a SplitMix64 variate derived from
// (base, question), MulRow conditioning, RowSum/DivRow normalisation with
// the 1/n fallback. Bit-equal rows, samples and fused maxima, at every
// width the kernel distinguishes (the fixed-width path at l = 2 and 3 and
// the composed path above it), WP and CM shapes. A CM worker's
// distribution comes from its transposed likelihood table in the kernel
// and from the row-major matrix in the reference.
TEST(KernelEquivalenceTest, SampledQwRowsMatchesComposedPipeline) {
  const uint64_t base = 0x5eedf00dcafe1234ull;
  for (int l : {2, 3, 4, 5, 8}) {
    // A small "matrix" of n questions by l labels, rows normalised.
    const int n = 12;
    std::vector<double> qc = TestRow(n * l, /*salt=*/91u + l);
    for (int i = 0; i < n; ++i) {
      double sum = 0.0;
      for (int j = 0; j < l; ++j) sum += qc[i * l + j];
      for (int j = 0; j < l; ++j) qc[i * l + j] /= sum;
    }
    // The WP worker's likelihood table: l x l positive doubles; rows need
    // no normalisation (conditioning renormalises).
    const std::vector<double> wp_lik = TestRow(l * l, /*salt=*/17u + l);
    // Confusion matrix for the CM shape, row-major [truth][answered], and
    // its table.
    const std::vector<double> cm = TestRow(l * l, /*salt=*/33u + l);
    const std::vector<double> cm_lik = TransposedTable(cm, l);
    const double wp_m = 0.8;
    const double wp_off = (1.0 - wp_m) / (l - 1);
    const std::vector<int> candidates = {0, 2, 3, 5, 7, 8, 11};
    const int rows = static_cast<int>(candidates.size());

    for (bool wp : {true, false}) {
      const std::vector<double>& lik = wp ? wp_lik : cm_lik;
      const kernels::AnswerModel model =
          wp ? kernels::AnswerModel::kWp : kernels::AnswerModel::kCm;
      // Reference: the unfused composition.
      std::vector<double> want(static_cast<size_t>(rows) * l);
      std::vector<double> want_max(static_cast<size_t>(rows));
      std::vector<double> dist(static_cast<size_t>(l));
      for (int c = 0; c < rows; ++c) {
        const double* cur = qc.data() + static_cast<size_t>(candidates[c]) * l;
        if (wp) {
          kernels::WpAnswerDistribution(cur, l, wp_m, wp_off, dist.data());
        } else {
          kernels::CmAnswerDistribution(cm.data(), cur, l, dist.data());
        }
        util::SplitMix64 stream(util::SplitMix64::MixSeed(
            base, static_cast<uint64_t>(candidates[c])));
        const int sampled = util::SampleWeightedAt(
            std::span<const double>(dist), stream.NextDouble());
        double* out = want.data() + static_cast<size_t>(c) * l;
        kernels::MulRow(out, cur, lik.data() + static_cast<size_t>(sampled) * l,
                        l);
        const double total = kernels::RowSum(out, l);
        if (total <= 0.0) {
          std::fill(out, out + l, 1.0 / static_cast<double>(l));
        } else {
          kernels::DivRow(out, l, total);
        }
        want_max[static_cast<size_t>(c)] = kernels::RowMax(out, l);
      }

      std::vector<double> got(static_cast<size_t>(rows) * l, -1.0);
      std::vector<double> got_max(static_cast<size_t>(rows), -1.0);
      std::vector<double> scratch(static_cast<size_t>(l));
      kernels::SampledQwRows(qc.data(), l, candidates.data(), rows, base, model,
                             wp_m, wp_off, lik.data(), got.data(),
                             got_max.data(), scratch.data());
      for (size_t x = 0; x < got.size(); ++x) {
        EXPECT_EQ(got[x], want[x])
            << "l=" << l << " wp=" << wp << " cell " << x;
      }
      for (size_t c = 0; c < got_max.size(); ++c) {
        EXPECT_EQ(got_max[c], want_max[c])
            << "l=" << l << " wp=" << wp << " row " << c;
      }
      // row_max == nullptr must be accepted (non-Accuracy* callers), and the
      // fixed-width path must not need the scratch row.
      std::fill(got.begin(), got.end(), -1.0);
      kernels::SampledQwRows(qc.data(), l, candidates.data(), rows, base, model,
                             wp_m, wp_off, lik.data(), got.data(), nullptr,
                             l <= kernels::kMaxFixedWidthLabels
                                 ? nullptr
                                 : scratch.data());
      for (size_t x = 0; x < got.size(); ++x) {
        ASSERT_EQ(got[x], want[x]);
      }
    }
  }
}

// The per-row kernel at variates that put the sampling target on a
// prefix-sum boundary, against the composed reference, at every width the
// kernel distinguishes. For every row, one variate per inner prefix sum
// puts the target exactly on it, so the sampled label depends on that
// sum's last bit, which only the reference's adds in the reference's
// order reproduce. u01 = 0 puts the target on every leading zero
// lane's prefix sum: a perfect WP worker (m = 1, off = 0) carries the row's
// zero lanes into its answer distribution, and a worker who always answers
// the last label has every other lane zero whatever the row. The largest
// double below 1 puts the target one ulp under the total, or, when the
// total is subnormal (a confusion matrix of tiny entries), onto it: the
// last-positive fallback's case, which a worker who answers only the first
// label, with tiny probability, meets with trailing zero lanes. Rows
// include a zero lane in every position and a one-hot row; under a WP
// worker whose likelihoods vanish on the one-hot row's support, its
// product row has zero mass and the conditioned row falls back to 1/l. (A
// CM worker conditions on the table its distribution comes from, so it
// never samples a label of zero likelihood on the row's support.)
TEST(KernelEquivalenceTest, SampledQwRowAtMatchesComposedPipelineOnBoundaries) {
  const double variates[] = {0.0, std::nextafter(1.0, 0.0), 0.5, 0.25,
                             0.999, 1e-300};
  int on_first_prefix = 0;
  int on_inner_prefix = 0;
  int past_total = 0;
  int uniform_fallbacks = 0;
  for (int l : {2, 3, 4, 5, 8}) {
    // Row shapes: generic, a zero lane at every position, and a one-hot
    // row.
    std::vector<std::vector<double>> rows;
    rows.push_back(TestRow(l, /*salt=*/500u + l));
    for (int zero = 0; zero < l; ++zero) {
      std::vector<double> row = TestRow(l, /*salt=*/510u + l * 7 + zero);
      row[static_cast<size_t>(zero)] = 0.0;
      rows.push_back(row);
    }
    std::vector<double> one_hot(static_cast<size_t>(l), 0.0);
    one_hot[static_cast<size_t>(l - 1)] = 1.0;
    rows.push_back(one_hot);
    for (std::vector<double>& row : rows) {
      double sum = 0.0;
      for (double x : row) sum += x;
      for (double& x : row) x /= sum;
    }
    const std::vector<double> lik = TestRow(l * l, /*salt=*/17u + l);
    // Zero wherever the one-hot row has mass: its product row is all zero.
    std::vector<double> lik_zero = lik;
    for (int a = 0; a < l; ++a) {
      lik_zero[static_cast<size_t>(a * l + (l - 1))] = 0.0;
    }
    const std::vector<double> cm = TestRow(l * l, /*salt=*/33u + l);
    std::vector<double> tiny_cm = cm;
    for (double& x : tiny_cm) x *= 1e-308;
    std::vector<double> last_label(static_cast<size_t>(l * l), 0.0);
    std::vector<double> tiny_first_label(static_cast<size_t>(l * l), 0.0);
    for (int t = 0; t < l; ++t) {
      last_label[static_cast<size_t>(t * l + l - 1)] = 1.0;
      tiny_first_label[static_cast<size_t>(t * l)] = 1e-308;
    }

    // WP at m = 0.7 and the perfect m = 1, each under both tables, then
    // the confusion matrices, each under its own transposed table.
    struct Model {
      double wp_m;
      const std::vector<double>* cm;
      std::vector<double> table;
    };
    const Model models[] = {{0.7, nullptr, lik},
                            {0.7, nullptr, lik_zero},
                            {1.0, nullptr, lik},
                            {1.0, nullptr, lik_zero},
                            {0.0, &cm, TransposedTable(cm, l)},
                            {0.0, &tiny_cm, TransposedTable(tiny_cm, l)},
                            {0.0, &last_label, TransposedTable(last_label, l)},
                            {0.0, &tiny_first_label,
                             TransposedTable(tiny_first_label, l)}};
    for (const Model& model : models) {
      const bool wp = model.cm == nullptr;
      const double wp_off = wp ? (1.0 - model.wp_m) / (l - 1) : 0.0;
      for (size_t r = 0; r < rows.size(); ++r) {
        const std::vector<double>& cur = rows[r];
        std::vector<double> dist(static_cast<size_t>(l));
        if (wp) {
          kernels::WpAnswerDistribution(cur.data(), l, model.wp_m, wp_off,
                                        dist.data());
        } else {
          kernels::CmAnswerDistribution(model.cm->data(), cur.data(), l,
                                        dist.data());
        }
        double total = 0.0;
        for (double x : dist) total += x;
        // Besides the fixed variates, one that puts the target exactly on
        // each inner prefix sum, where the label turns on the last bit of
        // that sum: a kernel that forms the distribution with other adds,
        // or in another order, samples another label there.
        std::vector<double> row_variates(std::begin(variates),
                                         std::end(variates));
        double cumulative = 0.0;
        for (int k = 0; k + 1 < l; ++k) {
          cumulative += dist[static_cast<size_t>(k)];
          double u = cumulative / total;
          for (int step = 0; step < 4 && u * total != cumulative; ++step) {
            u = std::nextafter(u, u * total < cumulative ? 1.0 : 0.0);
          }
          if (u * total == cumulative && u < 1.0 && cumulative > 0.0) {
            row_variates.push_back(u);
            ++on_inner_prefix;
          }
        }
        for (double u01 : row_variates) {
          const int sampled =
              util::SampleWeightedAt(std::span<const double>(dist), u01);
          on_first_prefix += u01 * total == dist[0] ? 1 : 0;
          past_total += u01 * total >= total ? 1 : 0;
          std::vector<double> want(static_cast<size_t>(l));
          kernels::MulRow(want.data(), cur.data(),
                          model.table.data() + static_cast<size_t>(sampled) * l,
                          l);
          const double norm = kernels::RowSum(want.data(), l);
          if (norm <= 0.0) {
            std::fill(want.begin(), want.end(), 1.0 / static_cast<double>(l));
            ++uniform_fallbacks;
          } else {
            kernels::DivRow(want.data(), l, norm);
          }

          std::vector<double> got(static_cast<size_t>(l), -1.0);
          std::vector<double> scratch(static_cast<size_t>(l));
          const double max = kernels::SampledQwRowAt(
              cur.data(), l, u01,
              wp ? kernels::AnswerModel::kWp : kernels::AnswerModel::kCm,
              model.wp_m, wp_off, model.table.data(), got.data(),
              scratch.data());
          for (int j = 0; j < l; ++j) {
            ASSERT_EQ(got[static_cast<size_t>(j)],
                      want[static_cast<size_t>(j)])
                << "l=" << l << " wp_m=" << model.wp_m << " row " << r
                << " u01=" << u01 << " label " << j;
          }
          ASSERT_EQ(max, kernels::RowMax(want.data(), l));
        }
      }
    }
  }
  // The sweep must reach the boundaries it is written for.
  EXPECT_GT(on_first_prefix, 0);
  EXPECT_GT(on_inner_prefix, 0);
  EXPECT_GT(past_total, 0);
  EXPECT_GT(uniform_fallbacks, 0);
}

}  // namespace
}  // namespace qasca
