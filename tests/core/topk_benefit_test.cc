#include "core/assignment/topk_benefit.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/assignment/brute_force.h"
#include "core/assignment/qw_overlay.h"
#include "core/kernels/kernels.h"
#include "core/metrics/accuracy.h"
#include "util/rng.h"

namespace qasca {
namespace {

// Figure 2 matrices. S^w = {q1, q2, q4, q6} = 0-based {0, 1, 3, 5}; rows of
// Qw outside S^w are placeholders and never read.
DistributionMatrix Figure2Qc() {
  DistributionMatrix qc(6, 2);
  qc.SetRow(0, std::vector<double>{0.8, 0.2});
  qc.SetRow(1, std::vector<double>{0.6, 0.4});
  qc.SetRow(2, std::vector<double>{0.25, 0.75});
  qc.SetRow(3, std::vector<double>{0.5, 0.5});
  qc.SetRow(4, std::vector<double>{0.9, 0.1});
  qc.SetRow(5, std::vector<double>{0.3, 0.7});
  return qc;
}

DistributionMatrix Figure2Qw() {
  DistributionMatrix qw = Figure2Qc();
  qw.SetRow(0, std::vector<double>{0.923, 0.077});
  qw.SetRow(1, std::vector<double>{0.818, 0.182});
  qw.SetRow(3, std::vector<double>{0.75, 0.25});
  qw.SetRow(5, std::vector<double>{0.125, 0.875});
  return qw;
}

AssignmentRequest Figure2Request(const DistributionMatrix& qc,
                                 const DistributionMatrix& qw) {
  AssignmentRequest request;
  request.current = &qc;
  request.estimated = &qw;
  request.candidates = {0, 1, 3, 5};
  request.k = 2;
  return request;
}

// `dense` again with its Qw rows in `overlay`, slot c holding
// candidates[c]'s row, as EstimateWorkerRowsInto fills it. With `armed`, the
// quality channel holds each row's max, as the estimation kernel fuses it
// for an Accuracy* request.
AssignmentRequest OverlayRequest(const AssignmentRequest& dense, bool armed,
                                 QwOverlay* overlay) {
  const int l = dense.current->num_labels();
  const int rows = static_cast<int>(dense.candidates.size());
  overlay->Begin(l, rows);
  double* quality = armed ? overlay->ArmQualities() : nullptr;
  for (int c = 0; c < rows; ++c) {
    const std::span<const double> row =
        dense.estimated->Row(dense.candidates[static_cast<size_t>(c)]);
    std::copy(row.begin(), row.end(), overlay->MutableRow(c));
    if (quality != nullptr) quality[c] = kernels::RowMax(row.data(), l);
  }
  AssignmentRequest request = dense;
  request.estimated = dense.current;
  request.overlay = overlay;
  return request;
}

void ExpectSameSelectionBits(const AssignmentResult& expected,
                             const AssignmentResult& actual,
                             const std::string& what) {
  EXPECT_EQ(actual.selected, expected.selected) << what;
  ASSERT_EQ(actual.selected_scores.size(), expected.selected_scores.size())
      << what;
  for (size_t s = 0; s < expected.selected_scores.size(); ++s) {
    EXPECT_EQ(std::bit_cast<uint64_t>(actual.selected_scores[s]),
              std::bit_cast<uint64_t>(expected.selected_scores[s]))
        << what << " s=" << s;
  }
}

TEST(TopKBenefitTest, PaperExample4SelectsQ2AndQ4) {
  // Example 4: benefits are 0.123 (q1), 0.218 (q2), 0.25 (q4), 0.175 (q6);
  // the HIT is {q2, q4} (the paper prints 0.212 for q2 but its own Figure 2
  // values give 0.818 - 0.6 = 0.218; the selection is unchanged).
  DistributionMatrix qc = Figure2Qc();
  DistributionMatrix qw = Figure2Qw();
  AssignmentResult result = AssignTopKBenefit(Figure2Request(qc, qw));
  EXPECT_EQ(result.selected, (std::vector<QuestionIndex>{1, 3}));
}

TEST(TopKBenefitTest, ObjectiveMatchesAccuracyOfAssignmentMatrix) {
  DistributionMatrix qc = Figure2Qc();
  DistributionMatrix qw = Figure2Qw();
  AssignmentResult result = AssignTopKBenefit(Figure2Request(qc, qw));
  AccuracyMetric metric;
  DistributionMatrix qx = BuildAssignmentMatrix(qc, qw, result.selected);
  EXPECT_NEAR(result.objective, metric.Quality(qx), 1e-12);
}

TEST(TopKBenefitTest, NegativeBenefitsStillFillTheHit) {
  // Even when the worker makes every row worse, a HIT of k questions must
  // be assigned (the budget model always hands out k questions).
  DistributionMatrix qc(3, 2);
  for (int i = 0; i < 3; ++i) qc.SetRow(i, std::vector<double>{0.9, 0.1});
  DistributionMatrix qw(3, 2);
  for (int i = 0; i < 3; ++i) qw.SetRow(i, std::vector<double>{0.6, 0.4});
  AssignmentRequest request;
  request.current = &qc;
  request.estimated = &qw;
  request.candidates = {0, 1, 2};
  request.k = 2;
  AssignmentResult result = AssignTopKBenefit(request);
  EXPECT_EQ(result.selected.size(), 2u);
}

TEST(TopKBenefitTest, RespectsCandidateSet) {
  DistributionMatrix qc(4, 2);
  for (int i = 0; i < 4; ++i) qc.SetRow(i, std::vector<double>{0.5, 0.5});
  DistributionMatrix qw = qc;
  // Question 0 would be the best pick, but it is not a candidate.
  qw.SetRow(0, std::vector<double>{1.0, 0.0});
  qw.SetRow(2, std::vector<double>{0.7, 0.3});
  AssignmentRequest request;
  request.current = &qc;
  request.estimated = &qw;
  request.candidates = {1, 2, 3};
  request.k = 1;
  AssignmentResult result = AssignTopKBenefit(request);
  EXPECT_EQ(result.selected, (std::vector<QuestionIndex>{2}));
}

TEST(TopKBenefitTest, KEqualsCandidateCountSelectsAll) {
  DistributionMatrix qc(3, 2);
  DistributionMatrix qw(3, 2);
  AssignmentRequest request;
  request.current = &qc;
  request.estimated = &qw;
  request.candidates = {0, 1, 2};
  request.k = 3;
  AssignmentResult result = AssignTopKBenefit(request);
  EXPECT_EQ(result.selected, (std::vector<QuestionIndex>{0, 1, 2}));
}

class TopKBenefitSweep : public ::testing::TestWithParam<int> {};

TEST_P(TopKBenefitSweep, MatchesBruteForceOptimum) {
  util::Rng rng(5000 + GetParam());
  // A stream of its own, so the instances are the ones drawn from `rng`.
  util::Rng order_rng(6000 + GetParam());
  AccuracyMetric metric;
  for (int trial = 0; trial < 10; ++trial) {
    int n = 4 + rng.UniformInt(5);       // 4..8
    int num_labels = 2 + rng.UniformInt(2);  // 2..3
    DistributionMatrix qc(n, num_labels);
    DistributionMatrix qw(n, num_labels);
    std::vector<double> w(num_labels);
    for (int i = 0; i < n; ++i) {
      for (double& x : w) x = rng.Uniform(0.01, 1.0);
      qc.SetRowNormalized(i, w);
      for (double& x : w) x = rng.Uniform(0.01, 1.0);
      qw.SetRowNormalized(i, w);
    }
    int m = 2 + rng.UniformInt(n - 1);
    std::vector<int> candidates = rng.SampleWithoutReplacement(n, m);
    int k = 1 + rng.UniformInt(m);

    AssignmentRequest request;
    request.current = &qc;
    request.estimated = &qw;
    request.candidates = candidates;
    request.k = k;

    AssignmentResult fast = AssignTopKBenefit(request);
    AssignmentResult slow = AssignBruteForce(request, metric);
    EXPECT_NEAR(fast.objective, slow.objective, 1e-10)
        << "n=" << n << " m=" << m << " k=" << k;

    // The same instance as overlay requests, Qw read by candidate position:
    // candidates ascending and in another order, the quality channel armed
    // and not. Every selection and score matches the dense request's bits.
    std::vector<int> ascending = candidates;
    std::sort(ascending.begin(), ascending.end());
    std::vector<int> shuffled;
    for (int p : order_rng.Permutation(static_cast<int>(ascending.size()))) {
      shuffled.push_back(ascending[static_cast<size_t>(p)]);
    }
    for (const std::vector<int>* order : {&ascending, &shuffled}) {
      AssignmentRequest dense = request;
      dense.candidates = *order;
      const AssignmentResult dense_fast = AssignTopKBenefit(dense);
      const AssignmentResult dense_slow = AssignBruteForce(dense, metric);
      for (bool armed : {false, true}) {
        const std::string what =
            "trial=" + std::to_string(trial) +
            (order == &ascending ? " ascending" : " shuffled") +
            (armed ? " armed" : " unarmed");
        QwOverlay overlay;
        const AssignmentRequest slots = OverlayRequest(dense, armed, &overlay);
        ExpectSameSelectionBits(dense_fast, AssignTopKBenefit(slots), what);
        const AssignmentResult slots_slow = AssignBruteForce(slots, metric);
        EXPECT_EQ(slots_slow.selected, dense_slow.selected) << what;
        EXPECT_EQ(slots_slow.objective, dense_slow.objective) << what;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKBenefitSweep, ::testing::Range(0, 10));

TEST(TopKBenefitDeathTest, OverlayWithFewerRowsThanCandidatesAborts) {
  DistributionMatrix qc = Figure2Qc();
  DistributionMatrix qw = Figure2Qw();
  QwOverlay overlay;
  const AssignmentRequest request =
      OverlayRequest(Figure2Request(qc, qw), /*armed=*/true, &overlay);
  // One row short of the four candidates: the last candidate has no Qw row.
  overlay.Begin(qc.num_labels(), /*rows=*/3);
  EXPECT_DEATH((void)AssignTopKBenefit(request), "rows_materialized");
}

}  // namespace
}  // namespace qasca
