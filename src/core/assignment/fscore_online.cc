#include "core/assignment/fscore_online.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>
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
// Blocks whose chains advance side by side. Each lane still folds its own
// block in order from (0, 0), so the lanes change the speed, not the bits.
// A group of fewer blocks (the column's last) folds block by block.
constexpr int kBetaGammaLanes = 4;

using BetaGamma = std::pair<double, double>;

void CheckOptions(const FScoreAssignmentOptions& options, int num_labels) {
  QASCA_CHECK_GT(options.alpha, 0.0);
  QASCA_CHECK_LT(options.alpha, 1.0);
  QASCA_CHECK_GE(options.target_label, 0);
  QASCA_CHECK_LT(options.target_label, num_labels);
}

// `value` when `keep`, else +0.0: a bit mask of all ones or all zeros,
// so the pick is an and, not a branch on the comparison behind `keep`.
inline double KeepIf(bool keep, double value) {
  const uint64_t mask = 0 - static_cast<uint64_t>(keep);
  return std::bit_cast<double>(std::bit_cast<uint64_t>(value) & mask);
}

// beta / gamma accumulate the "if unassigned" contribution of every
// question (Theorem 4's construction, with \hat{r}^c given by the
// delta*alpha threshold of Eq. 15). The conditional terms are added
// branch-free: a running sum that starts at +0.0 never becomes -0.0, so
// adding +0.0 for an unmet threshold leaves it bit for bit unchanged.
BetaGamma FoldBetaGamma(const std::vector<double>& current, double alpha,
                        double threshold) {
  const int n = static_cast<int>(current.size());
  const int num_blocks = (n + kBetaGammaBlock - 1) / kBetaGammaBlock;
  const int num_groups = (num_blocks + kBetaGammaLanes - 1) / kBetaGammaLanes;
  return util::DeterministicFold(
      BetaGamma(0.0, 0.0), 0, num_groups, [&](BetaGamma total, int group) {
        const int first_block = group * kBetaGammaLanes;
        const int blocks = std::min(kBetaGammaLanes, num_blocks - first_block);
        const double* column =
            current.data() + static_cast<size_t>(first_block) * kBetaGammaBlock;
        const auto length = [&](int b) {
          return std::min(kBetaGammaBlock,
                          n - (first_block + b) * kBetaGammaBlock);
        };
        // Lane b is block first_block + b's chain.
        double beta[kBetaGammaLanes] = {};
        double gamma[kBetaGammaLanes] = {};
        const auto step = [&](int b, int j) {
          const double pc = column[b * kBetaGammaBlock + j];
          const bool rc = pc >= threshold;
          beta[b] += KeepIf(rc, pc);
          gamma[b] += KeepIf(rc, alpha);
          gamma[b] += (1.0 - alpha) * pc;
        };
        if (blocks == kBetaGammaLanes) {
          // Only the column's last block can be short: four lanes while it
          // lasts, then the other three.
          const int last = length(3);
          for (int j = 0; j < last; ++j) {
            step(0, j);
            step(1, j);
            step(2, j);
            step(3, j);
          }
          for (int j = last; j < kBetaGammaBlock; ++j) {
            step(0, j);
            step(1, j);
            step(2, j);
          }
        } else {
          for (int b = 0; b < blocks; ++b) {
            for (int j = 0; j < length(b); ++j) step(b, j);
          }
        }
        for (int b = 0; b < blocks; ++b) {
          total.first += beta[b];
          total.second += gamma[b];
        }
        return total;
      });
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// One Update step (Definition 2 / Algorithm 3): given delta, fill
// scratch->problem with the 0-1 fractional program of Theorem 4 and solve
// it over "exactly k questions from the candidate set" into
// scratch->solution: the maximising selection (ascending), the updated
// delta_{t+1} and the inner Dinkelbach iteration count v.
// scratch->estimated[i] is Qw's target entry of candidate question i.
// The first step runs at delta = prepared.delta_init, whose beta/gamma the
// preparation already folded. b and d are n-sized; only candidate entries
// are written, and SolveExactlyK reads no others.
void UpdateDelta(const AssignmentRequest& request,
                 const FScoreCurrent& prepared, double delta,
                 bool first_update, AssignmentScratch* scratch) {
  // One span per Update call: the nested Dinkelbach solve of Algorithm 3.
  util::Span span(request.telemetry, util::tnames::kSpanDinkelbachInner);
  const std::vector<double>& current = prepared.column;
  const double* estimated = scratch->estimated.data();
  ZeroOneFractionalProgram& problem = scratch->problem;
  const double alpha = prepared.options.alpha;
  const double threshold = delta * alpha;

  if (first_update) {
    problem.beta = prepared.beta;
    problem.gamma = prepared.gamma;
  } else {
    std::tie(problem.beta, problem.gamma) =
        FoldBetaGamma(current, alpha, threshold);
  }
  // b_i / d_i hold the swing from assigning candidate i, with \hat{r}^c,
  // \hat{r}^w given by the delta*alpha threshold of Eq. 15. Each
  // threshold test selects its terms through KeepIf: the same doubles as
  // `r ? value : 0.0`, without a branch on where a probability falls.
  for (const QuestionIndex question : request.candidates) {
    const auto i = static_cast<size_t>(question);
    const double pc = current[i];
    const double pw = estimated[i];
    const bool rc = pc >= threshold;
    const bool rw = pw >= threshold;
    problem.b[i] = KeepIf(rw, pw) - KeepIf(rc, pc);
    problem.d[i] = alpha * (KeepIf(rw, 1.0) - KeepIf(rc, 1.0)) +
                   (1.0 - alpha) * (pw - pc);
  }

  SolveExactlyK(problem, request.candidates, request.k, /*lambda_init=*/0.0,
                &scratch->solution);
}

// The algorithm proper; both entry points validate and open the span.
AssignmentResult Assign(const AssignmentRequest& request,
                        const FScoreCurrent& prepared) {
  const DistributionMatrix& qc = *request.current;
  const int n = qc.num_questions();
  CheckOptions(prepared.options, qc.num_labels());
  QASCA_CHECK_EQ(prepared.column.size(), static_cast<size_t>(n));
  const LabelIndex t = prepared.options.target_label;
  const std::vector<double>& current = prepared.column;
  const size_t num_candidates = request.candidates.size();
  AssignmentScratch local;
  AssignmentScratch* scratch =
      request.scratch != nullptr ? request.scratch : &local;

  // Qw does not change across the Update calls of one request, so its
  // target entry is gathered once, at the candidate entries of an n-sized
  // array beside b and d (written only there, so never cleared).
  std::vector<double>& estimated = scratch->estimated;
  estimated.resize(static_cast<size_t>(n));
  bool estimated_mass = false;
  for (size_t c = 0; c < num_candidates; ++c) {
    const double pw = request.EstimatedSlotRow(c)[t];
    estimated[static_cast<size_t>(request.candidates[c])] = pw;
    estimated_mass |= pw > 0.0;
  }

  // Degenerate instance: every target probability is zero, so F-score* is 0
  // for every assignment. Every score ties, and the selection order (score
  // descending, then question ascending) picks the k smallest candidates.
  if (!prepared.has_target_mass && !estimated_mass) {
    AssignmentResult result;
    result.selected.resize(static_cast<size_t>(request.k));
    std::partial_sort_copy(request.candidates.begin(),
                           request.candidates.end(), result.selected.begin(),
                           result.selected.end());
    // Every assignment is equally worthless here, so every swing is zero.
    result.selected_scores.assign(static_cast<size_t>(request.k), 0.0);
    return result;
  }

  double delta = prepared.delta_init;
  AssignmentResult result;
  // Written at candidate entries only, so never cleared between requests.
  scratch->problem.b.resize(static_cast<size_t>(n));
  scratch->problem.d.resize(static_cast<size_t>(n));
  const ExactlyKSolution& update = scratch->solution;
  for (int outer = 1; outer <= kMaxOuterIterations; ++outer) {
    UpdateDelta(request, prepared, delta, outer == 1, scratch);
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
      result.selected = update.selected;
      result.selected_scores.resize(static_cast<size_t>(request.k));
      for (int s = 0; s < request.k; ++s) {
        const QuestionIndex i = update.selected[static_cast<size_t>(s)];
        // Diagnostic score: the target-label probability swing this
        // assignment contributes (Eq. 15's numerator change).
        result.selected_scores[static_cast<size_t>(s)] =
            estimated[static_cast<size_t>(i)] - current[static_cast<size_t>(i)];
      }
      QASCA_CHECK_OK(
          invariants::CheckAssignment(result.selected, request.k, n));
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

}  // namespace

FScoreCurrent PrepareFScoreCurrent(const DistributionMatrix& qc,
                                   const FScoreAssignmentOptions& options) {
  CheckOptions(options, qc.num_labels());
  FScoreCurrent prepared;
  prepared.options = options;
  // Qc's target column, gathered once for every Update call that reads it.
  const auto labels = static_cast<size_t>(qc.num_labels());
  const double* cells = qc.Row(0).data();
  prepared.column.resize(static_cast<size_t>(qc.num_questions()));
  for (size_t i = 0; i < prepared.column.size(); ++i) {
    prepared.column[i] = cells[i * labels + options.target_label];
  }
  prepared.has_target_mass =
      std::any_of(prepared.column.begin(), prepared.column.end(),
                  [](double p) { return p > 0.0; });
  if (options.warm_start) {
    // delta'_init = F(Qc): a valid lower bound on delta* because the
    // optimum over Q^X differs from Qc in only k rows and delta increases
    // monotonically from any lower bound (Theorem 3).
    prepared.delta_init =
        SolveFScoreColumn(prepared.column, options.alpha).value;
  }
  std::tie(prepared.beta, prepared.gamma) = FoldBetaGamma(
      prepared.column, options.alpha, prepared.delta_init * options.alpha);
  return prepared;
}

bool IdenticalBits(const FScoreCurrent& a, const FScoreCurrent& b) {
  return a.options == b.options && a.has_target_mass == b.has_target_mass &&
         SameBits(a.delta_init, b.delta_init) && SameBits(a.beta, b.beta) &&
         SameBits(a.gamma, b.gamma) &&
         std::equal(a.column.begin(), a.column.end(), b.column.begin(),
                    b.column.end(), SameBits);
}

AssignmentResult AssignFScoreOnline(const AssignmentRequest& request,
                                    const FScoreAssignmentOptions& options) {
  ValidateRequest(request);
  util::Span span(request.telemetry, util::tnames::kSpanFscoreOnline);
  return Assign(request, PrepareFScoreCurrent(*request.current, options));
}

AssignmentResult AssignFScoreOnline(const AssignmentRequest& request,
                                    const FScoreCurrent& prepared) {
  ValidateRequest(request);
  util::Span span(request.telemetry, util::tnames::kSpanFscoreOnline);
  return Assign(request, prepared);
}

}  // namespace qasca
