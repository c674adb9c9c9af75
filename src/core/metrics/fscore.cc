#include "core/metrics/fscore.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "core/fractional.h"
#include "util/fold.h"
#include "util/invariants.h"
#include "util/logging.h"

namespace qasca {
namespace {

// F-score numerator/denominator pair carried through the blessed fold; the
// per-question update order inside the fold step matches the historical
// interleaved loops bit-for-bit.
struct FScoreTally {
  double numerator = 0.0;
  double denominator = 0.0;
};

// Distribution of the number of successes among independent Bernoulli trials
// with the given probabilities (Poisson-binomial), via the standard O(n^2)
// counting DP. result[s] = P(exactly s successes).
std::vector<double> PoissonBinomial(const std::vector<double>& probabilities) {
  std::vector<double> dist(probabilities.size() + 1, 0.0);
  dist[0] = 1.0;
  size_t trials = 0;
  for (double p : probabilities) {
    ++trials;
    for (size_t s = trials; s-- > 0;) {
      dist[s + 1] += dist[s] * p;
      dist[s] *= (1.0 - p);
    }
  }
  return dist;
}

}  // namespace

FScoreMetric::FScoreMetric(double alpha, LabelIndex target_label)
    : alpha_(alpha), target_label_(target_label) {
  QASCA_CHECK_GT(alpha, 0.0) << "alpha must be in (0,1)";
  QASCA_CHECK_LT(alpha, 1.0) << "alpha must be in (0,1)";
  QASCA_CHECK_GE(target_label, 0);
}

std::string FScoreMetric::name() const {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "F-score(alpha=%.2f)", alpha_);
  return buffer;
}

double FScoreMetric::EvaluateAgainstTruth(const GroundTruthVector& truth,
                                          const ResultVector& result) const {
  QASCA_CHECK_EQ(truth.size(), result.size());
  const FScoreTally tally = util::DeterministicFold(
      FScoreTally{}, 0, static_cast<int>(truth.size()),
      [&](FScoreTally t, int i) {
        bool returned_target = result[static_cast<size_t>(i)] == target_label_;
        bool true_target = truth[static_cast<size_t>(i)] == target_label_;
        if (returned_target && true_target) t.numerator += 1.0;
        if (returned_target) t.denominator += alpha_;
        if (true_target) t.denominator += 1.0 - alpha_;
        return t;
      });
  if (tally.denominator <= 0.0) return 0.0;
  return tally.numerator / tally.denominator;
}

double FScoreMetric::Evaluate(const DistributionMatrix& q,
                              const ResultVector& result) const {
  return FScoreStar(q, result, alpha_, target_label_);
}

FScoreMetric::QualityResult FScoreMetric::ComputeQuality(
    const DistributionMatrix& q) const {
  return SolveFScoreQuality(q, alpha_, target_label_);
}

double FScoreStar(const DistributionMatrix& q, const ResultVector& result,
                  double alpha, LabelIndex target_label) {
  QASCA_CHECK_EQ(static_cast<int>(result.size()), q.num_questions());
  QASCA_CHECK_LT(target_label, q.num_labels());
  QASCA_CHECK_GE(alpha, 0.0);
  QASCA_CHECK_LE(alpha, 1.0);
  const FScoreTally tally = util::DeterministicFold(
      FScoreTally{}, 0, q.num_questions(), [&](FScoreTally t, int i) {
        double target_probability = q.At(i, target_label);
        if (result[static_cast<size_t>(i)] == target_label) {
          t.numerator += target_probability;
          t.denominator += alpha;
        }
        t.denominator += (1.0 - alpha) * target_probability;
        return t;
      });
  if (tally.denominator <= 0.0) return 0.0;
  return tally.numerator / tally.denominator;
}

FractionalSolution SolveFScoreColumn(std::vector<double> column,
                                     double alpha) {
  QASCA_CHECK_GE(alpha, 0.0);
  QASCA_CHECK_LE(alpha, 1.0);
  const int n = static_cast<int>(column.size());

  // Reduction of Eq. 10: b_i = Q_{i,1}, d_i = alpha, beta = 0,
  // gamma = (1 - alpha) * sum_i Q_{i,1}.
  ZeroOneFractionalProgram problem;
  problem.b = std::move(column);
  problem.d.assign(static_cast<size_t>(n), alpha);
  const double target_mass = util::DeterministicSum(
      0, n, [&](int i) { return problem.b[static_cast<size_t>(i)]; });
  problem.gamma = (1.0 - alpha) * target_mass;

  // Degenerate corner: with zero total target mass every result scores 0
  // and (at alpha = 1, where gamma = 0 regardless) the empty selection
  // would make the fractional program's denominator vanish. Return the
  // all-non-target optimum directly. Note gamma = 0 at alpha = 1 is
  // otherwise fine: the Dinkelbach iterate always keeps the top question
  // selected, so the denominator alpha * |selected| stays positive.
  if (target_mass <= 0.0) {
    FractionalSolution none;
    none.z.assign(static_cast<size_t>(n), 0);
    return none;
  }
  return SolveUnconstrained(problem, /*lambda_init=*/0);
}

FScoreQualityResult SolveFScoreQuality(const DistributionMatrix& q,
                                       double alpha,
                                       LabelIndex target_label) {
  QASCA_CHECK_LT(target_label, q.num_labels());
  QASCA_DCHECK_OK(invariants::CheckDistributionMatrix(q));
  const int n = q.num_questions();
  std::vector<double> column(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    column[static_cast<size_t>(i)] = q.At(i, target_label);
  }
  const FractionalSolution solution =
      SolveFScoreColumn(std::move(column), alpha);

  FScoreQualityResult result;
  result.lambda = solution.value;
  result.iterations = solution.iterations;
  // The final z was selected with the converged lambda*, so it realises the
  // Theorem 2 threshold rule r_i = target iff Q_{i,1} >= lambda* * alpha.
  LabelIndex non_target = target_label == 0 ? 1 : 0;
  result.optimal_result.resize(n);
  for (int i = 0; i < n; ++i) {
    result.optimal_result[i] = solution.z[i] ? target_label : non_target;
  }
  return result;
}

ResultVector FScoreMetric::OptimalResult(const DistributionMatrix& q) const {
  return ComputeQuality(q).optimal_result;
}

double FScoreMetric::Quality(const DistributionMatrix& q) const {
  return ComputeQuality(q).lambda;
}

double ExactExpectedFScore(const DistributionMatrix& q,
                           const ResultVector& result, double alpha,
                           LabelIndex target_label) {
  QASCA_CHECK_EQ(static_cast<int>(result.size()), q.num_questions());
  // Split target-label probabilities by whether the question is returned as
  // target. F-score(T', R, alpha) depends on T' only through
  //   A = #true targets returned as target, and
  //   B = #true targets returned as non-target,
  // so E[F] = sum_{a,b} P(A=a) P(B=b) * a / (alpha*m + (1-alpha)*(a+b)).
  std::vector<double> returned_probabilities;
  std::vector<double> other_probabilities;
  returned_probabilities.reserve(static_cast<size_t>(q.num_questions()));
  other_probabilities.reserve(static_cast<size_t>(q.num_questions()));
  for (int i = 0; i < q.num_questions(); ++i) {
    double p = q.At(i, target_label);
    if (result[i] == target_label) {
      returned_probabilities.push_back(p);
    } else {
      other_probabilities.push_back(p);
    }
  }
  const double m = static_cast<double>(returned_probabilities.size());
  std::vector<double> pa = PoissonBinomial(returned_probabilities);
  std::vector<double> pb = PoissonBinomial(other_probabilities);

  // Nested blessed folds, threading one accumulator through both levels in
  // the historical (a-major, zero-probability terms skipped) order.
  return util::DeterministicFold(
      0.0, 1, static_cast<int>(pa.size()), [&](double acc, int a) {
        const double pa_a = pa[static_cast<size_t>(a)];
        if (pa_a == 0.0) return acc;
        return util::DeterministicFold(
            acc, 0, static_cast<int>(pb.size()), [&](double inner, int b) {
              const double pb_b = pb[static_cast<size_t>(b)];
              if (pb_b == 0.0) return inner;
              double denominator =
                  alpha * m + (1.0 - alpha) * static_cast<double>(a + b);
              return inner + pa_a * pb_b * static_cast<double>(a) / denominator;
            });
      });
}

double BruteForceExpectedFScore(const DistributionMatrix& q,
                                const ResultVector& result, double alpha,
                                LabelIndex target_label) {
  const int n = q.num_questions();
  QASCA_CHECK_LE(n, 24) << "brute-force enumeration is exponential";
  // F-score only depends on whether each t_i equals the target label, so it
  // suffices to enumerate target/non-target patterns with probabilities
  // Q_{i,target} and 1 - Q_{i,target}.
  // Pattern probability and F-score tally for one truth assignment, carried
  // through the blessed inner fold in question order.
  struct MaskTally {
    double probability = 1.0;
    double numerator = 0.0;
    double denominator = 0.0;
  };
  return util::DeterministicFold(
      0.0, 0, static_cast<int>(1u << n), [&](double acc, int mask_index) {
        const uint32_t mask = static_cast<uint32_t>(mask_index);
        const MaskTally tally = util::DeterministicFold(
            MaskTally{}, 0, n, [&](MaskTally t, int i) {
              double p = q.At(i, target_label);
              bool true_target = (mask >> i) & 1u;
              t.probability *= true_target ? p : 1.0 - p;
              bool returned_target =
                  result[static_cast<size_t>(i)] == target_label;
              if (returned_target && true_target) t.numerator += 1.0;
              if (returned_target) t.denominator += alpha;
              if (true_target) t.denominator += 1.0 - alpha;
              return t;
            });
        if (tally.probability == 0.0 || tally.denominator <= 0.0) return acc;
        return acc + tally.probability * tally.numerator / tally.denominator;
      });
}

}  // namespace qasca
