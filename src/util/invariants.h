#ifndef QASCA_UTIL_INVARIANTS_H_
#define QASCA_UTIL_INVARIANTS_H_

#include <span>
#include <string>

#include "util/attributes.h"
#include "util/status.h"

namespace qasca::invariants {

/// Reusable validators for the probabilistic invariants the QASCA machinery
/// depends on. Each returns util::Status::Ok() when the invariant holds and
/// an Internal status with a precise diagnostic otherwise, so call sites can
/// choose their tier:
///
///   QASCA_CHECK_OK(invariants::CheckAssignment(...));   // always on
///   QASCA_DCHECK_OK(invariants::CheckDistributionRow(...));  // debug only
///
/// The validators never abort themselves — the abort decision (and its
/// compile-out in Release) belongs to the QASCA_*CHECK_OK macros.

/// Default absolute tolerance for "sums to one" and "within [0,1]" checks.
/// Posterior rows are produced by normalising O(l)-term products, so the
/// accumulated error is a few ulps; 1e-6 leaves generous slack while still
/// catching any genuine logic error (a dropped term perturbs a row by far
/// more than 1e-6).
inline constexpr double kProbabilityTolerance = 1e-6;

/// Every entry of `row` must lie in [-tolerance, 1 + tolerance] and the
/// entries must sum to 1 within `tolerance` (a probability distribution over
/// labels — one row of Qc / Qw / QX, a prior, or a predicted answer
/// distribution).
QASCA_NODISCARD
util::Status CheckDistributionRow(std::span<const double> row,
                                  double tolerance = kProbabilityTolerance);

/// Row-major `num_labels` x `num_labels` confusion matrix: every row must be
/// a probability distribution (row-stochastic matrix, Section 5.2's CM
/// worker model).
QASCA_NODISCARD
util::Status CheckConfusionMatrix(std::span<const double> matrix,
                                  int num_labels,
                                  double tolerance = kProbabilityTolerance);

/// A candidate set: distinct question indices, each within
/// [0, num_questions). A strictly ascending list is checked in one pass
/// with no allocation; any other order takes an n-byte seen-bitmap.
QASCA_NODISCARD
util::Status CheckCandidateSet(std::span<const int> candidates,
                               int num_questions);

/// A HIT leaving the assignment layer: exactly `k` distinct question ids,
/// each within [0, num_questions).
QASCA_NODISCARD
util::Status CheckAssignment(std::span<const int> selected, int k,
                             int num_questions);

/// Dinkelbach denominator: must be strictly positive over the feasible
/// region, else the objective is undefined (Section 3.2.3's reductions
/// guarantee gamma > 0).
QASCA_NODISCARD
util::Status CheckFractionalDenominator(double denominator);

/// Dinkelbach / Update-algorithm monotonicity: starting from a valid lower
/// bound, each iterate's lambda must be non-decreasing (Theorem 3 /
/// Dinkelbach [12]). `updated` may undershoot `previous` by at most
/// `tolerance` to absorb floating-point dither at the fixed point.
QASCA_NODISCARD
util::Status CheckLambdaMonotone(double previous, double updated,
                                 double tolerance = 1e-9);

/// EM ascent: the (penalized) observed-data log-likelihood must be
/// non-decreasing across E/M rounds. Tolerance is absolute on the
/// log-likelihood scale.
QASCA_NODISCARD
util::Status CheckLogLikelihoodMonotone(double previous, double updated,
                                        double tolerance = 1e-7);

/// Applies CheckDistributionRow to every row of a DistributionMatrix-shaped
/// object (anything exposing num_questions() and Row(i)). Templated so
/// qasca_util does not link against qasca_core.
template <typename Matrix>
QASCA_NODISCARD util::Status CheckDistributionMatrix(const Matrix& q,
                                     double tolerance = kProbabilityTolerance) {
  for (int i = 0; i < q.num_questions(); ++i) {
    util::Status status = CheckDistributionRow(q.Row(i), tolerance);
    if (!status.ok()) {
      return util::Status::Internal("row " + std::to_string(i) + ": " +
                                    status.message());
    }
  }
  return util::Status::Ok();
}

}  // namespace qasca::invariants

#endif  // QASCA_UTIL_INVARIANTS_H_
