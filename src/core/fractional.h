#ifndef QASCA_CORE_FRACTIONAL_H_
#define QASCA_CORE_FRACTIONAL_H_

#include <vector>

#include "core/top_k.h"

namespace qasca {

/// A 0-1 fractional program (Section 3.2.3):
///
///   maximize  f(z) = (sum_i z_i * b[i] + beta) / (sum_i z_i * d[i] + gamma)
///   subject to z in Omega, a subset of {0,1}^n.
///
/// Two feasible regions Omega arise in the paper:
///  * all of {0,1}^n — used to evaluate F-score*'s optimal result vector
///    (Algorithm 1), and
///  * "exactly k ones, all within a candidate set" — used by the Update
///    Algorithm for online assignment (Algorithm 3, Theorem 4).
struct ZeroOneFractionalProgram {
  std::vector<double> b;
  std::vector<double> d;
  double beta = 0.0;
  double gamma = 0.0;
};

/// Solution of a 0-1 fractional program found by the Dinkelbach iteration.
struct FractionalSolution {
  /// Optimal objective value lambda* = max_z f(z).
  double value = 0.0;
  /// A maximizer: z[i] is 0 or 1.
  std::vector<unsigned char> z;
  /// Number of Dinkelbach iterations performed until convergence (the
  /// paper's c for Algorithm 1, v for each Update call).
  int iterations = 0;
};

/// Solves `problem` over Omega = {0,1}^n with the Dinkelbach framework [12]:
/// starting from lambda = lambda_init, repeatedly pick
/// z = argmax_z g(z, lambda) = sum_i (b[i] - lambda*d[i]) * z_i — i.e.
/// z_i = 1 iff b[i] - lambda*d[i] >= 0 — and update lambda = f(z) until
/// lambda is unchanged. Requires the denominator to stay strictly positive
/// over the feasible region (true in the paper's reductions since
/// gamma > 0 there).
///
/// `lambda_init` must be a lower bound on the optimum (the framework then
/// guarantees monotone convergence); 0 is always valid in the paper's
/// instances because F-score* is non-negative.
FractionalSolution SolveUnconstrained(const ZeroOneFractionalProgram& problem,
                                      double lambda_init = 0.0);

/// SolveExactlyK's solution without an n-sized indicator: the k
/// maximisers, in buffers a caller keeps across solves (a server's
/// request-scoped scratch), so a solve allocates nothing once they have
/// grown to k.
struct ExactlyKSolution {
  double value = 0.0;
  int iterations = 0;
  /// The k maximisers of the last solve, ascending.
  std::vector<int> selected;
  /// The solver's per-step top-k buffer.
  std::vector<ScoredQuestion> top;
};

/// Solves `problem` over Omega = { z : sum z_i = k, z_i = 1 only for
/// i in `candidates` }. Each Dinkelbach step selects the k candidates with
/// the largest b[i] - lambda*d[i] (ties to the smaller index) in one
/// streaming pass over the candidates (the paper's PICK step in
/// Algorithm 3), then folds f(z) over the k selected indices only.
/// Coordinates outside `candidates` are never read.
///
/// `k` must satisfy 0 < k <= candidates.size(); candidate indices must be
/// unique and within [0, n) (checked always, in one pass when they are
/// ascending).
void SolveExactlyK(const ZeroOneFractionalProgram& problem,
                   const std::vector<int>& candidates, int k,
                   double lambda_init, ExactlyKSolution* solution);

/// The same solve, returning the maximiser as the indicator z.
FractionalSolution SolveExactlyK(const ZeroOneFractionalProgram& problem,
                                 const std::vector<int>& candidates, int k,
                                 double lambda_init = 0.0);

}  // namespace qasca

#endif  // QASCA_CORE_FRACTIONAL_H_
