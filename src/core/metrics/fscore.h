#ifndef QASCA_CORE_METRICS_FSCORE_H_
#define QASCA_CORE_METRICS_FSCORE_H_

#include <string>
#include <vector>

#include "core/fractional.h"
#include "core/metrics/metric.h"

namespace qasca {

/// Result of running Algorithm 1 ("Measure the Quality of Q for F-score").
struct FScoreQualityResult {
  /// lambda* = max_R F-score*(Q, R, alpha).
  double lambda = 0.0;
  /// The maximizing result vector R*.
  ResultVector optimal_result;
  /// Dinkelbach iterations until convergence (the paper's c; observed
  /// c <= 15 at n = 2000 in Section 6.1.2).
  int iterations = 0;
};

/// F-score (Section 3.2): the weighted harmonic mean of Precision and Recall
/// for a designated target label, with emphasis parameter alpha in (0,1)
/// (alpha > 1/2 emphasises Precision, alpha < 1/2 Recall).
///
/// The distribution-based variant F-score*(Q, R, alpha) (Eq. 9) approximates
/// E[F-score(T, R, alpha)] by the ratio of expectations of numerator and
/// denominator; the error is O(1/n) (Section 3.2.2).
///
/// Unlike Accuracy*, the optimal result vector R* is *not* the per-question
/// argmax: by Theorem 2, R*_i = target iff Q_{i,target} >= lambda* * alpha,
/// where lambda* = max_R F-score*(Q, R, alpha) is itself found by the
/// Dinkelbach iteration of Algorithm 1.
///
/// Questions need not be binary: with l > 2 labels, every non-target label
/// plays the role of L_2 ("non-target"), exactly as in the paper's
/// CompanyLogo experiment (Appendix J).
class FScoreMetric final : public EvaluationMetric {
 public:
  /// `alpha` must lie strictly inside (0, 1); `target_label` is the paper's
  /// L_1 (default: label 0).
  explicit FScoreMetric(double alpha, LabelIndex target_label = 0);

  double alpha() const { return alpha_; }
  LabelIndex target_label() const { return target_label_; }

  std::string name() const override;

  /// F-score(T, R, alpha) per Eq. 7; returns 0 when no question is both
  /// returned-as-target and truly the target (the 0/0 convention).
  double EvaluateAgainstTruth(const GroundTruthVector& truth,
                              const ResultVector& result) const override;

  /// F-score*(Q, R, alpha) per Eq. 9; returns 0 when the denominator is 0
  /// (possible only if no question is returned as target and all target
  /// probabilities are zero).
  double Evaluate(const DistributionMatrix& q,
                  const ResultVector& result) const override;

  /// The optimal result vector by Theorem 2: runs Algorithm 1 to find
  /// lambda*, then thresholds each Q_{i,target} at lambda* * alpha.
  ResultVector OptimalResult(const DistributionMatrix& q) const override;

  /// F(Q) = lambda* via Algorithm 1 (avoids re-evaluating R*).
  double Quality(const DistributionMatrix& q) const override;

  using QualityResult = FScoreQualityResult;

  /// Runs Algorithm 1 and returns lambda*, R*, and the iteration count.
  QualityResult ComputeQuality(const DistributionMatrix& q) const;

 private:
  double alpha_;
  LabelIndex target_label_;
};

/// F-score*(Q, R, alpha) (Eq. 9) as a free function. Unlike FScoreMetric,
/// alpha may take the closed interval [0, 1]: alpha = 1 is Precision*,
/// alpha = 0 is Recall* (the paper's Figure 3(a) sweeps the endpoints).
double FScoreStar(const DistributionMatrix& q, const ResultVector& result,
                  double alpha, LabelIndex target_label = 0);

/// Algorithm 1 over the closed alpha interval [0, 1]: returns lambda*, the
/// optimal result vector, and the Dinkelbach iteration count. FScoreMetric
/// delegates here with its stricter (0, 1) domain.
FScoreQualityResult SolveFScoreQuality(const DistributionMatrix& q,
                                       double alpha,
                                       LabelIndex target_label = 0);

/// Algorithm 1 on a target-label column already gathered from Q
/// (column[i] = Q_{i,target}), alpha in [0, 1]: the Eq. 10 reduction solved
/// by SolveUnconstrained. `value` is lambda*, and z[i] = 1 iff question i is
/// returned as the target; with zero target mass, lambda* = 0, no iteration
/// runs and no question is returned as the target. SolveFScoreQuality is
/// this on q's column; the F-score online assignment passes the column it
/// gathers once per request for its warm start.
FractionalSolution SolveFScoreColumn(std::vector<double> column, double alpha);

/// Exact expected F-score E[F-score(T, R, alpha)] under Q (Eq. 8), computed
/// by conditioning on the number of true targets inside and outside the
/// returned-target set. Two independent Poisson-binomial DPs give the counts'
/// distributions; total cost O(n^2) — polynomial, unlike the 2^n sum of
/// Eq. 8, and cheaper than the O(n^3) method of [24]. Used to measure the
/// approximation error of F-score* (Figure 3(a)-(c)).
double ExactExpectedFScore(const DistributionMatrix& q,
                           const ResultVector& result, double alpha,
                           LabelIndex target_label = 0);

/// Literal evaluation of Eq. 8 by enumerating all 2^n ground-truth vectors.
/// Exponential; only for cross-checking ExactExpectedFScore in tests
/// (n <= ~18).
double BruteForceExpectedFScore(const DistributionMatrix& q,
                                const ResultVector& result, double alpha,
                                LabelIndex target_label = 0);

}  // namespace qasca

#endif  // QASCA_CORE_METRICS_FSCORE_H_
