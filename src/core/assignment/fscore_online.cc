#include "core/assignment/fscore_online.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/fractional.h"
#include "core/metrics/fscore.h"
#include "util/fold.h"
#include "util/invariants.h"
#include "util/logging.h"
#include "util/telemetry.h"
#include "util/telemetry_names.h"

namespace qasca {
namespace {

constexpr double kDeltaTolerance = 1e-12;
constexpr int kMaxOuterIterations = 1000;

// beta and gamma are folded per block of this many questions, then block by
// block in order: the association the pinned decisions depend on.
constexpr int kBetaGammaBlock = 512;

// One Update step (Definition 2 / Algorithm 3): given delta, fill `problem`
// with the 0-1 fractional program of Theorem 4 and solve it over "exactly k
// questions from the candidate set". Returns the maximising selection, the
// updated delta_{t+1}, and the inner Dinkelbach iteration count v.
// `current` is Qc's target column; `estimated[c]` is Qw's target entry of
// question candidates[c]. `problem` holds n-sized b and d; only candidate
// entries are written, and SolveExactlyK reads no others.
FractionalSolution UpdateDelta(const AssignmentRequest& request,
                               const FScoreAssignmentOptions& options,
                               const std::vector<double>& current,
                               const std::vector<double>& estimated,
                               double delta,
                               ZeroOneFractionalProgram* problem) {
  // One span per Update call: the nested Dinkelbach solve of Algorithm 3.
  util::Span span(request.telemetry, util::tnames::kSpanDinkelbachInner);
  const int n = static_cast<int>(current.size());
  const double alpha = options.alpha;
  const double threshold = delta * alpha;

  // beta / gamma accumulate the "if unassigned" contribution of every
  // question; b_i / d_i hold the swing from assigning candidate i
  // (Theorem 4's construction, with \hat{r}^c, \hat{r}^w given by the
  // delta*alpha threshold of Eq. 15). The conditional terms are added
  // branch-free: a running sum that starts at +0.0 never becomes -0.0, so
  // adding +0.0 for an unmet threshold leaves it bit for bit unchanged.
  const int num_blocks = (n + kBetaGammaBlock - 1) / kBetaGammaBlock;
  const auto [beta, gamma] = util::DeterministicFold(
      std::pair<double, double>(0.0, 0.0), 0, num_blocks,
      [&](std::pair<double, double> total, int block) {
        const int begin = block * kBetaGammaBlock;
        const auto [block_beta, block_gamma] = util::DeterministicFold(
            std::pair<double, double>(0.0, 0.0), begin,
            std::min(n, begin + kBetaGammaBlock),
            [&](std::pair<double, double> acc, int i) {
              const double pc = current[static_cast<size_t>(i)];
              const bool rc = pc >= threshold;
              acc.first += rc ? pc : 0.0;
              acc.second += rc ? alpha : 0.0;
              acc.second += (1.0 - alpha) * pc;
              return acc;
            });
        total.first += block_beta;
        total.second += block_gamma;
        return total;
      });
  problem->beta = beta;
  problem->gamma = gamma;
  for (size_t c = 0; c < request.candidates.size(); ++c) {
    const auto i = static_cast<size_t>(request.candidates[c]);
    const double pc = current[i];
    const double pw = estimated[c];
    const bool rc = pc >= threshold;
    const bool rw = pw >= threshold;
    problem->b[i] = (rw ? pw : 0.0) - (rc ? pc : 0.0);
    problem->d[i] = alpha * ((rw ? 1.0 : 0.0) - (rc ? 1.0 : 0.0)) +
                    (1.0 - alpha) * (pw - pc);
  }

  return SolveExactlyK(*problem, request.candidates, request.k,
                       /*lambda_init=*/0.0);
}

}  // namespace

AssignmentResult AssignFScoreOnline(const AssignmentRequest& request,
                                    const FScoreAssignmentOptions& options) {
  ValidateRequest(request);
  util::Span span(request.telemetry, util::tnames::kSpanFscoreOnline);
  QASCA_CHECK_GT(options.alpha, 0.0);
  QASCA_CHECK_LT(options.alpha, 1.0);
  QASCA_CHECK_GE(options.target_label, 0);
  QASCA_CHECK_LT(options.target_label, request.current->num_labels());

  const DistributionMatrix& qc = *request.current;
  const int n = qc.num_questions();
  const LabelIndex t = options.target_label;

  // Neither Qc nor Qw changes across the Update calls of one request, so
  // their target-label probabilities are gathered once: Qc's column over
  // all n questions, Qw's entry per candidate position.
  std::vector<double> current(static_cast<size_t>(n));
  const double* cells = qc.Row(0).data();
  for (size_t i = 0; i < current.size(); ++i) {
    current[i] = cells[i * static_cast<size_t>(qc.num_labels()) + t];
  }
  std::vector<double> estimated(request.candidates.size());
  for (size_t c = 0; c < estimated.size(); ++c) {
    estimated[c] = request.EstimatedRow(request.candidates[c])[t];
  }

  // Degenerate instance: every target probability is zero, so F-score* is 0
  // for every assignment. Every score ties, and the selection order (score
  // descending, then question ascending) picks the k smallest candidates.
  const auto positive = [](double p) { return p > 0.0; };
  if (std::none_of(current.begin(), current.end(), positive) &&
      std::none_of(estimated.begin(), estimated.end(), positive)) {
    AssignmentResult result;
    result.selected = request.candidates;
    std::partial_sort(result.selected.begin(),
                      result.selected.begin() + request.k,
                      result.selected.end());
    result.selected.resize(static_cast<size_t>(request.k));
    // Every assignment is equally worthless here, so every swing is zero.
    result.selected_scores.assign(static_cast<size_t>(request.k), 0.0);
    return result;
  }

  double delta = 0.0;
  AssignmentResult result;
  if (options.warm_start) {
    // delta'_init = F(Qc): a valid lower bound on delta* because the
    // optimum over Q^X differs from Qc in only k rows and delta increases
    // monotonically from any lower bound (Theorem 3).
    delta = SolveFScoreColumn(current, options.alpha).value;
  }

  ZeroOneFractionalProgram problem;
  problem.b.assign(static_cast<size_t>(n), 0.0);
  problem.d.assign(static_cast<size_t>(n), 0.0);
  for (int outer = 1; outer <= kMaxOuterIterations; ++outer) {
    FractionalSolution update =
        UpdateDelta(request, options, current, estimated, delta, &problem);
    // Theorem 3 monotonicity holds from the second Update on: after one
    // step delta is the value of a feasible (X, R) pair, hence a valid
    // lower bound. The very first step may shrink an overshooting warm
    // start (see below), so it is exempt.
    if (outer > 1) {
      QASCA_DCHECK_OK(invariants::CheckLambdaMonotone(delta, update.value));
    }
    result.outer_iterations = outer;
    result.inner_iterations += update.iterations;
    if (std::fabs(update.value - delta) <= kDeltaTolerance) {
      result.objective = update.value;
      result.selected.clear();
      result.selected_scores.clear();
      result.selected.reserve(static_cast<size_t>(request.k));
      result.selected_scores.reserve(static_cast<size_t>(request.k));
      for (int i = 0; i < n; ++i) {
        if (!update.z[static_cast<size_t>(i)]) continue;
        result.selected.push_back(i);
        // Diagnostic score: the target-label probability swing this
        // assignment contributes (Eq. 15's numerator change).
        result.selected_scores.push_back(request.EstimatedRow(i)[t] -
                                         current[static_cast<size_t>(i)]);
      }
      QASCA_CHECK_OK(
          invariants::CheckAssignment(result.selected, request.k, n));
      if (request.telemetry != nullptr) {
        request.telemetry
            ->GetCounter(util::tnames::kDinkelbachOuterIterations)
            ->Add(result.outer_iterations);
        request.telemetry
            ->GetCounter(util::tnames::kDinkelbachInnerIterations)
            ->Add(result.inner_iterations);
      }
      return result;
    }
    // Theorem 3 gives monotone increase whenever delta <= delta*. The warm
    // start delta'_init = F(Qc) can exceed delta* (a worker's answers may
    // lower achievable quality); in that case the first Update returns the
    // value of a *feasible* (X, R) pair, which is <= delta*, and monotone
    // convergence resumes from that valid lower bound.
    delta = update.value;
  }
  QASCA_CHECK(false) << "F-score online assignment failed to converge";
  return result;  // Unreachable.
}

}  // namespace qasca
