#include "core/kernels/kernels.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/assignment/qw_overlay.h"
#include "util/fold.h"
#include "util/rng.h"

namespace qasca {
namespace {

using kernels::Isa;

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

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas;
  for (Isa isa : {Isa::kScalar, Isa::kSse2, Isa::kAvx2}) {
    if (kernels::IsaSupported(isa)) isas.push_back(isa);
  }
  return isas;
}

// Restores the dispatch the rest of the binary resolved, whatever a test
// repointed it to.
class IsaGuard {
 public:
  IsaGuard() : saved_(kernels::ActiveIsa()) {}
  ~IsaGuard() { kernels::SetIsaForTesting(saved_); }

 private:
  Isa saved_;
};

// The sizes swept by every equivalence test: all the remainder classes of
// the 4-lane schedule plus a few cache-line-straddling lengths.
std::vector<int> TestSizes() {
  std::vector<int> sizes;
  for (int n = 1; n <= 19; ++n) sizes.push_back(n);
  for (int n : {24, 31, 32, 33, 48, 63, 64, 65, 67}) sizes.push_back(n);
  return sizes;
}

TEST(KernelDispatchTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(kernels::IsaSupported(Isa::kScalar));
  EXPECT_TRUE(kernels::IsaSupported(kernels::ActiveIsa()));
}

TEST(KernelDispatchTest, IsaNamesAreStable) {
  EXPECT_STREQ(kernels::IsaName(Isa::kScalar), "scalar");
  EXPECT_STREQ(kernels::IsaName(Isa::kSse2), "sse2");
  EXPECT_STREQ(kernels::IsaName(Isa::kAvx2), "avx2");
}

TEST(KernelDispatchTest, SetIsaForTestingRepointsDispatch) {
  IsaGuard guard;
  for (Isa isa : SupportedIsas()) {
    kernels::SetIsaForTesting(isa);
    EXPECT_EQ(kernels::ActiveIsa(), isa);
  }
}

// The bit-identity contract (kernels.h): every ISA path returns the exact
// doubles the scalar path returns, for every kernel and every size. All
// comparisons below are EXPECT_EQ on doubles — exact equality, never NEAR.
TEST(KernelEquivalenceTest, RowSumBitIdenticalAcrossIsas) {
  IsaGuard guard;
  for (int n : TestSizes()) {
    const std::vector<double> x = TestRow(n, /*salt=*/static_cast<uint64_t>(n));
    kernels::SetIsaForTesting(Isa::kScalar);
    const double reference = kernels::RowSum(x.data(), n);
    for (Isa isa : SupportedIsas()) {
      kernels::SetIsaForTesting(isa);
      EXPECT_EQ(kernels::RowSum(x.data(), n), reference)
          << "n=" << n << " isa=" << kernels::IsaName(isa);
    }
  }
}

TEST(KernelEquivalenceTest, RowSumMatchesFourLaneSchedule) {
  // The schedule is part of the contract, not an implementation detail:
  // acc[i % 4] += x[i] over full 4-blocks, merged ((acc0+acc1)+acc2)+acc3,
  // then a left-to-right tail.
  IsaGuard guard;
  for (int n : TestSizes()) {
    const std::vector<double> x = TestRow(n, /*salt=*/91u + n);
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    const int main = n - (n % 4);
    for (int i = 0; i < main; ++i) acc[i % 4] += x[static_cast<size_t>(i)];
    double expected = ((acc[0] + acc[1]) + acc[2]) + acc[3];
    for (int i = main; i < n; ++i) expected += x[static_cast<size_t>(i)];
    for (Isa isa : SupportedIsas()) {
      kernels::SetIsaForTesting(isa);
      EXPECT_EQ(kernels::RowSum(x.data(), n), expected)
          << "n=" << n << " isa=" << kernels::IsaName(isa);
    }
  }
}

TEST(KernelEquivalenceTest, RowSumEqualsDeterministicSumForShortRows) {
  // For n <= 4 the schedule degenerates to a strict left-to-right sum, so
  // label rows of golden-trace width (l = 2) keep their historical value.
  IsaGuard guard;
  for (int n = 1; n <= 4; ++n) {
    const std::vector<double> x = TestRow(n, /*salt=*/300u + n);
    const double serial = util::DeterministicSum(
        0, n, [&](int i) { return x[static_cast<size_t>(i)]; });
    for (Isa isa : SupportedIsas()) {
      kernels::SetIsaForTesting(isa);
      EXPECT_EQ(kernels::RowSum(x.data(), n), serial) << "n=" << n;
    }
  }
}

TEST(KernelEquivalenceTest, RowMaxMatchesStdMaxElement) {
  IsaGuard guard;
  for (int n : TestSizes()) {
    const std::vector<double> x = TestRow(n, /*salt=*/700u + n);
    const double reference = *std::max_element(x.begin(), x.end());
    for (Isa isa : SupportedIsas()) {
      kernels::SetIsaForTesting(isa);
      EXPECT_EQ(kernels::RowMax(x.data(), n), reference)
          << "n=" << n << " isa=" << kernels::IsaName(isa);
    }
  }
}

TEST(KernelEquivalenceTest, ElementwiseKernelsBitIdenticalAcrossIsas) {
  // MulRow / MulRowInPlace / DivRow / WpAnswerDistribution are
  // exact per IEEE-754: each lane is the same correctly-rounded expression
  // as the scalar loop, with contraction disabled. So every ISA must agree
  // with the scalar path bit-for-bit on every element.
  IsaGuard guard;
  for (int n : TestSizes()) {
    const std::vector<double> a = TestRow(n, /*salt=*/1000u + n);
    const std::vector<double> b = TestRow(n, /*salt=*/2000u + n);
    const double divisor = 0.37 + 0.01 * n;
    const double m = 0.81;
    const double off = (1.0 - m) / 3.0;

    std::vector<double> mul_ref(a.size()), wp_ref(a.size());
    std::vector<double> div_ref(a), mulin_ref(a);
    kernels::SetIsaForTesting(Isa::kScalar);
    kernels::MulRow(mul_ref.data(), a.data(), b.data(), n);
    kernels::MulRowInPlace(mulin_ref.data(), b.data(), n);
    kernels::DivRow(div_ref.data(), n, divisor);
    kernels::WpAnswerDistribution(a.data(), n, m, off, wp_ref.data());

    for (Isa isa : SupportedIsas()) {
      kernels::SetIsaForTesting(isa);
      std::vector<double> mul(a.size()), wp(a.size());
      std::vector<double> div(a), mulin(a);
      kernels::MulRow(mul.data(), a.data(), b.data(), n);
      kernels::MulRowInPlace(mulin.data(), b.data(), n);
      kernels::DivRow(div.data(), n, divisor);
      kernels::WpAnswerDistribution(a.data(), n, m, off, wp.data());
      const char* name = kernels::IsaName(isa);
      EXPECT_EQ(mul, mul_ref) << "MulRow n=" << n << " isa=" << name;
      EXPECT_EQ(mulin, mulin_ref) << "MulRowInPlace n=" << n << " " << name;
      EXPECT_EQ(div, div_ref) << "DivRow n=" << n << " isa=" << name;
      EXPECT_EQ(wp, wp_ref) << "WpAnswerDistribution n=" << n << " " << name;
    }
  }
}

TEST(KernelEquivalenceTest, ElementwiseKernelsMatchScalarExpressions) {
  // And the scalar expressions themselves are pinned: out = a*b, in /= d
  // (true division).
  for (int n : {1, 2, 3, 4, 7, 16, 33}) {
    const std::vector<double> a = TestRow(n, /*salt=*/4000u + n);
    const std::vector<double> b = TestRow(n, /*salt=*/5000u + n);
    const double divisor = 1.7;
    std::vector<double> mul(a.size()), div(a);
    kernels::MulRow(mul.data(), a.data(), b.data(), n);
    kernels::DivRow(div.data(), n, divisor);
    for (int i = 0; i < n; ++i) {
      const size_t s = static_cast<size_t>(i);
      EXPECT_EQ(mul[s], a[s] * b[s]);
      EXPECT_EQ(div[s], a[s] / divisor);
    }
  }
}

TEST(KernelEquivalenceTest, CmAnswerDistributionAscendingTruthOrder) {
  // Each output lane accumulates cm[truth][answered] * row[truth] in
  // ascending-truth order on every ISA — the exact order the legacy
  // answered-major loop produced.
  IsaGuard guard;
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
    for (Isa isa : SupportedIsas()) {
      kernels::SetIsaForTesting(isa);
      std::vector<double> out(static_cast<size_t>(l));
      kernels::CmAnswerDistribution(cm.data(), row.data(), l, out.data());
      EXPECT_EQ(out, expected) << "l=" << l
                               << " isa=" << kernels::IsaName(isa);
    }
  }
}

TEST(QwOverlayTest, StampedRowsReadBackWrittenValues) {
  QwOverlay overlay;
  overlay.Begin(/*num_questions=*/10, /*num_labels=*/3, /*rows=*/2);
  overlay.Stamp(4, /*slot=*/0);
  overlay.Stamp(7, /*slot=*/1);
  double* r0 = overlay.MutableRow(0);
  double* r1 = overlay.MutableRow(1);
  r0[0] = 0.5;
  r0[1] = 0.25;
  r0[2] = 0.25;
  r1[0] = 0.1;
  r1[1] = 0.2;
  r1[2] = 0.7;
  ASSERT_TRUE(overlay.Contains(4));
  ASSERT_TRUE(overlay.Contains(7));
  EXPECT_EQ(overlay.Row(4)[0], 0.5);
  EXPECT_EQ(overlay.Row(4)[2], 0.25);
  EXPECT_EQ(overlay.Row(7)[2], 0.7);
  EXPECT_EQ(overlay.Row(4).size(), 3u);
}

TEST(QwOverlayTest, UnstampedRowsFallThrough) {
  // Contains() is the fall-through predicate AssignmentRequest::EstimatedRow
  // keys on: false means "read the base matrix".
  QwOverlay overlay;
  overlay.Begin(/*num_questions=*/6, /*num_labels=*/2, /*rows=*/1);
  overlay.Stamp(3, /*slot=*/0);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(overlay.Contains(i), i == 3) << "i=" << i;
  }
}

TEST(QwOverlayTest, BeginInvalidatesPreviousEpoch) {
  QwOverlay overlay;
  overlay.Begin(/*num_questions=*/5, /*num_labels=*/2, /*rows=*/2);
  overlay.Stamp(1, 0);
  overlay.Stamp(2, 1);
  EXPECT_TRUE(overlay.Contains(1));
  overlay.Begin(5, 2, /*rows=*/1);
  // O(1) invalidation: nothing from the previous request survives.
  EXPECT_FALSE(overlay.Contains(1));
  EXPECT_FALSE(overlay.Contains(2));
  overlay.Stamp(2, 0);
  EXPECT_TRUE(overlay.Contains(2));
  EXPECT_FALSE(overlay.Contains(1));
}

TEST(QwOverlayTest, ShapeChangeResetsStamps) {
  QwOverlay overlay;
  overlay.Begin(/*num_questions=*/4, /*num_labels=*/2, /*rows=*/1);
  overlay.Stamp(0, 0);
  overlay.Begin(/*num_questions=*/8, /*num_labels=*/3, /*rows=*/1);
  EXPECT_EQ(overlay.num_questions(), 8);
  EXPECT_EQ(overlay.num_labels(), 3);
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(overlay.Contains(i));
}

TEST(QwOverlayTest, CountsMaterializedRows) {
  QwOverlay overlay;
  overlay.Begin(10, 2, /*rows=*/3);
  EXPECT_EQ(overlay.rows_materialized(), 3);
  EXPECT_EQ(overlay.total_rows_materialized(), 3);
  overlay.Begin(10, 2, /*rows=*/5);
  EXPECT_EQ(overlay.rows_materialized(), 5);
  EXPECT_EQ(overlay.total_rows_materialized(), 8);
}

TEST(QwOverlayTest, QualityChannelArmsPerEpoch) {
  QwOverlay overlay;
  EXPECT_FALSE(overlay.has_qualities());  // never Begun
  overlay.Begin(/*num_questions=*/6, /*num_labels=*/2, /*rows=*/2);
  overlay.Stamp(1, 0);
  overlay.Stamp(4, 1);
  EXPECT_FALSE(overlay.has_qualities());  // not armed this epoch
  double* q = overlay.ArmQualities();
  q[0] = 0.75;
  q[1] = 0.6;
  ASSERT_TRUE(overlay.has_qualities());
  EXPECT_EQ(overlay.Quality(1), 0.75);
  EXPECT_EQ(overlay.Quality(4), 0.6);
  // Begin disarms: a stale quality buffer can never leak into the next
  // request, even though the storage is reused.
  overlay.Begin(6, 2, /*rows=*/2);
  EXPECT_FALSE(overlay.has_qualities());
}

// The fused sampled-Qw batch (kernels::SampledQwRows) against the unfused
// per-row composition it replaced: answer-distribution kernel,
// util::SampleWeightedAt on a SplitMix64 variate derived from
// (base, question), MulRow conditioning, RowSum/DivRow normalisation with
// the 1/n fallback. Bit-equal rows, samples and fused maxima, for the
// inlined l == 2 fast path and the table-composed general path, WP and CM
// shapes, on every supported ISA.
TEST(KernelEquivalenceTest, SampledQwRowsMatchesComposedPipeline) {
  IsaGuard guard;
  const uint64_t base = 0x5eedf00dcafe1234ull;
  for (int l : {2, 3, 5}) {
    // A small "matrix" of n questions by l labels, rows normalised.
    const int n = 12;
    std::vector<double> qc = TestRow(n * l, /*salt=*/91u + l);
    for (int i = 0; i < n; ++i) {
      double sum = 0.0;
      for (int j = 0; j < l; ++j) sum += qc[i * l + j];
      for (int j = 0; j < l; ++j) qc[i * l + j] /= sum;
    }
    // Likelihood table: l x l positive doubles; rows need no normalisation
    // (conditioning renormalises).
    const std::vector<double> lik = TestRow(l * l, /*salt=*/17u + l);
    // Confusion matrix for the CM shape, row-major [truth][answered].
    const std::vector<double> cm = TestRow(l * l, /*salt=*/33u + l);
    const double wp_m = 0.8;
    const double wp_off = (1.0 - wp_m) / (l - 1);
    const std::vector<int> candidates = {0, 2, 3, 5, 7, 8, 11};
    const int rows = static_cast<int>(candidates.size());

    for (bool wp : {true, false}) {
      // Reference: the unfused composition, computed once with the scalar
      // dispatch active (kernels are ISA-bit-identical, so any choice works).
      kernels::SetIsaForTesting(Isa::kScalar);
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

      for (Isa isa : SupportedIsas()) {
        kernels::SetIsaForTesting(isa);
        std::vector<double> got(static_cast<size_t>(rows) * l, -1.0);
        std::vector<double> got_max(static_cast<size_t>(rows), -1.0);
        std::vector<double> scratch(static_cast<size_t>(l));
        kernels::SampledQwRows(qc.data(), l, candidates.data(), rows, base,
                               wp_m, wp_off, wp ? nullptr : cm.data(),
                               lik.data(), got.data(), got_max.data(),
                               scratch.data());
        for (size_t x = 0; x < got.size(); ++x) {
          EXPECT_EQ(got[x], want[x])
              << "l=" << l << " wp=" << wp << " isa=" << kernels::IsaName(isa)
              << " cell " << x;
        }
        for (size_t c = 0; c < got_max.size(); ++c) {
          EXPECT_EQ(got_max[c], want_max[c])
              << "l=" << l << " wp=" << wp << " isa=" << kernels::IsaName(isa)
              << " row " << c;
        }
        // row_max == nullptr must be accepted (non-Accuracy* callers).
        kernels::SampledQwRows(qc.data(), l, candidates.data(), rows, base,
                               wp_m, wp_off, wp ? nullptr : cm.data(),
                               lik.data(), got.data(), nullptr,
                               scratch.data());
        for (size_t x = 0; x < got.size(); ++x) {
          ASSERT_EQ(got[x], want[x]);
        }
      }
    }
  }
}

TEST(KernelDispatchTest, ActiveRowMaxTracksDispatch) {
  IsaGuard guard;
  const std::vector<double> row = TestRow(9, /*salt=*/5u);
  for (Isa isa : SupportedIsas()) {
    kernels::SetIsaForTesting(isa);
    const kernels::RowMaxFn fn = kernels::ActiveRowMax();
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn(row.data(), static_cast<int>(row.size())),
              kernels::RowMax(row.data(), static_cast<int>(row.size())))
        << kernels::IsaName(isa);
  }
}

}  // namespace
}  // namespace qasca
