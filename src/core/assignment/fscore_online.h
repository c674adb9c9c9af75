#ifndef QASCA_CORE_ASSIGNMENT_FSCORE_ONLINE_H_
#define QASCA_CORE_ASSIGNMENT_FSCORE_ONLINE_H_

#include <vector>

#include "core/assignment/assignment.h"

namespace qasca {

/// Options for the F-score Online Assignment Algorithm.
struct FScoreAssignmentOptions {
  /// Target label (the paper's L_1).
  LabelIndex target_label = 0;
  /// Emphasis parameter alpha in (0,1).
  double alpha = 0.5;
  /// If true, initialise delta with F(Qc) = max_R F-score*(Qc, R, alpha)
  /// computed by Algorithm 1 (the paper's delta'_init, Section 6.1.3, shown
  /// in Figure 4(a) to avoid the slowdown of delta_init = 0 at large alpha).
  /// If false, start from delta_init = 0.
  bool warm_start = true;

  bool operator==(const FScoreAssignmentOptions&) const = default;
};

/// The inputs of an F-score assignment that depend on Qc alone: Qc's
/// target column, delta'_init and the first Update step's beta/gamma.
/// Every request against one Qc reads the same values, and Qc changes only
/// when a HIT completes, so a server can prepare them once per Qc change
/// (DESIGN.md §8) instead of once per request.
struct FScoreCurrent {
  /// The options these inputs were prepared for.
  FScoreAssignmentOptions options;
  /// Qc's target column: column[i] = Qc[i][options.target_label].
  std::vector<double> column;
  /// Whether any column entry is positive.
  bool has_target_mass = false;
  /// delta'_init = F(Qc) by Algorithm 1 with the warm start, else 0.
  double delta_init = 0.0;
  /// beta and gamma of the first Update step: the "if unassigned" terms of
  /// every question at threshold delta_init * alpha (Theorem 4).
  double beta = 0.0;
  double gamma = 0.0;
};

/// Prepares the Qc-only inputs of AssignFScoreOnline for `qc`.
FScoreCurrent PrepareFScoreCurrent(const DistributionMatrix& qc,
                                   const FScoreAssignmentOptions& options);

/// Whether `a` and `b` hold the same options and bit-identical values.
bool IdenticalBits(const FScoreCurrent& a, const FScoreCurrent& b);

/// The F-score Online Assignment Algorithm (Section 4.2, Algorithms 2–3).
///
/// Iteratively lifts delta toward delta* = max_X max_R F-score*(Q^X, R, alpha)
/// (Eq. 13). Each Update step (Definition 2) thresholds Qc/Qw rows at
/// delta*alpha to fix the tentative result vectors, reduces the resulting
/// maximisation over feasible X to a 0-1 fractional program with an
/// exactly-k constraint (Theorem 4), and solves it with the Dinkelbach
/// framework. Theorem 3 guarantees monotone convergence to delta*, at which
/// point the maximising X* is returned.
///
/// Complexity O(u * v * n) where u is the number of Update calls and v the
/// Dinkelbach iterations per call; the paper observes u*v <= 10.
///
/// Prepares the Qc-only inputs inline; equivalent to the overload below on
/// PrepareFScoreCurrent(*request.current, options).
AssignmentResult AssignFScoreOnline(const AssignmentRequest& request,
                                    const FScoreAssignmentOptions& options);

/// The same algorithm on inputs prepared for request.current, under the
/// options they were prepared with. Inputs prepared for another Qc give a
/// wrong selection; the caller keeps them current.
AssignmentResult AssignFScoreOnline(const AssignmentRequest& request,
                                    const FScoreCurrent& prepared);

}  // namespace qasca

#endif  // QASCA_CORE_ASSIGNMENT_FSCORE_ONLINE_H_
