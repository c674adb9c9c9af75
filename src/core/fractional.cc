#include "core/fractional.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/fold.h"
#include "util/invariants.h"
#include "util/logging.h"

namespace qasca {
namespace {

// Convergence tolerance for the Dinkelbach fixed point. The iteration is
// exact in theory (lambda stops changing); the tolerance guards against
// floating-point dither on the last step.
constexpr double kLambdaTolerance = 1e-12;

// Hard cap on iterations; the framework converges superlinearly and the
// paper observes <= 15 iterations even at n = 2000, so hitting this cap
// indicates a malformed problem (e.g. non-positive denominators).
constexpr int kMaxIterations = 1000;

// f(z) for the z whose ones are `selected[0, count)`, folded in the order
// listed. Listed ascending, that is exactly the adds of a sweep over all n
// coordinates that skips the zeros (DESIGN.md §12, "Streaming Dinkelbach").
double Objective(const ZeroOneFractionalProgram& p, const int* selected,
                 int count) {
  const auto [numerator, denominator] = util::DeterministicFold(
      std::pair<double, double>(p.beta, p.gamma), 0, count,
      [&](std::pair<double, double> acc, int s) {
        const size_t i = static_cast<size_t>(selected[s]);
        acc.first += p.b[i];
        acc.second += p.d[i];
        return acc;
      });
  QASCA_CHECK_OK(invariants::CheckFractionalDenominator(denominator));
  return numerator / denominator;
}

// The returned maximiser: z[i] = 1 exactly for the listed coordinates.
std::vector<unsigned char> Indicator(size_t n, const int* selected,
                                     int count) {
  std::vector<unsigned char> z(n, 0);
  for (int s = 0; s < count; ++s) z[static_cast<size_t>(selected[s])] = 1;
  return z;
}

}  // namespace

FractionalSolution SolveUnconstrained(const ZeroOneFractionalProgram& problem,
                                      double lambda_init) {
  const size_t n = problem.b.size();
  QASCA_CHECK_EQ(problem.d.size(), n);

  // The coordinates set to 1 by the current step, ascending.
  std::vector<int> selected(n);
  FractionalSolution solution;
  double lambda = lambda_init;
  for (int iteration = 1; iteration <= kMaxIterations; ++iteration) {
    // argmax_z g(z, lambda): independent per-coordinate choice. The >= (as
    // opposed to >) matches the paper's threshold rule "r_i = 1 if
    // Q_{i,1} >= lambda * alpha". Branch-free compaction: every index is
    // written, and kept only if chosen.
    int count = 0;
    for (size_t i = 0; i < n; ++i) {
      selected[static_cast<size_t>(count)] = static_cast<int>(i);
      count += problem.b[i] - lambda * problem.d[i] >= 0.0 ? 1 : 0;
    }
    double updated = Objective(problem, selected.data(), count);
    // Dinkelbach monotonicity: from a valid lower bound, every iterate's
    // lambda is non-decreasing. A violation means the caller's lambda_init
    // contract was broken or the program is malformed.
    QASCA_DCHECK_OK(invariants::CheckLambdaMonotone(lambda, updated));
    solution.iterations = iteration;
    if (std::fabs(updated - lambda) <= kLambdaTolerance) {
      solution.value = updated;
      solution.z = Indicator(n, selected.data(), count);
      return solution;
    }
    lambda = updated;
  }
  QASCA_CHECK(false) << "Dinkelbach iteration failed to converge";
  return solution;  // Unreachable.
}

void SolveExactlyK(const ZeroOneFractionalProgram& problem,
                   const std::vector<int>& candidates, int k,
                   double lambda_init, ExactlyKSolution* solution) {
  const size_t n = problem.b.size();
  QASCA_CHECK_EQ(problem.d.size(), n);
  QASCA_CHECK_GT(k, 0);
  QASCA_CHECK_LE(static_cast<size_t>(k), candidates.size());
  // Checked once up front instead of per access inside the iteration loop.
  QASCA_CHECK_OK(
      invariants::CheckCandidateSet(candidates, static_cast<int>(n)));

  // The step's k best (score, question) pairs, then their questions
  // ascending for the objective fold.
  std::vector<ScoredQuestion>& top = solution->top;
  std::vector<int>& selected = solution->selected;
  top.resize(static_cast<size_t>(k));
  selected.resize(static_cast<size_t>(k));

  double lambda = lambda_init;
  for (int iteration = 1; iteration <= kMaxIterations; ++iteration) {
    // Top-k selection in one pass over the candidates (the role of the PICK
    // algorithm [2] in the paper's complexity analysis). ScoreGreater is a
    // strict total order, so the set is the one any exact selection over
    // the same scores returns.
    BoundedTopK selector(top.data(), k);
    for (int i : candidates) {
      selector.Offer({problem.b[static_cast<size_t>(i)] -
                          lambda * problem.d[static_cast<size_t>(i)],
                      i});
    }
    for (int s = 0; s < k; ++s) {
      selected[static_cast<size_t>(s)] = top[static_cast<size_t>(s)].second;
    }
    std::sort(selected.begin(), selected.end());

    double updated = Objective(problem, selected.data(), k);
    QASCA_DCHECK_OK(invariants::CheckLambdaMonotone(lambda, updated));
    solution->iterations = iteration;
    if (std::fabs(updated - lambda) <= kLambdaTolerance) {
      solution->value = updated;
      return;
    }
    lambda = updated;
  }
  QASCA_CHECK(false) << "Dinkelbach iteration failed to converge";
}

FractionalSolution SolveExactlyK(const ZeroOneFractionalProgram& problem,
                                 const std::vector<int>& candidates, int k,
                                 double lambda_init) {
  ExactlyKSolution exactly_k;
  SolveExactlyK(problem, candidates, k, lambda_init, &exactly_k);
  FractionalSolution solution;
  solution.value = exactly_k.value;
  solution.iterations = exactly_k.iterations;
  solution.z = Indicator(problem.b.size(), exactly_k.selected.data(), k);
  return solution;
}

}  // namespace qasca
