#ifndef QASCA_MODEL_EM_H_
#define QASCA_MODEL_EM_H_

#include <unordered_map>
#include <vector>

#include "core/distribution_matrix.h"
#include "core/types.h"
#include "model/worker_model.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace qasca {

/// Configuration of the EM parameter-estimation pass (Section 5.2; the
/// Dawid–Skene algorithm [1] with the EM machinery of [10], as used by
/// Ipeirotis et al. [22]).
struct EmOptions {
  /// Worker parameterisation to fit: full confusion matrices or single-value
  /// worker probabilities (Table 2 compares the two).
  WorkerModel::Kind worker_kind = WorkerModel::Kind::kConfusionMatrix;
  /// Maximum E/M rounds.
  int max_iterations = 50;
  /// Convergence threshold on the max absolute change of any posterior cell.
  double tolerance = 1e-6;
  /// Additive (Laplace) smoothing applied in the M-step so that workers with
  /// few answers do not collapse to 0/1 probabilities.
  double smoothing = 1.0;
  /// If false, the prior is kept fixed at its initial (uniform) value
  /// instead of being re-estimated each round.
  bool estimate_prior = true;
};

/// Output of EM: fitted worker models, label prior, the posterior
/// distribution matrix Qc implied by the final parameters, and diagnostics.
struct EmResult {
  std::unordered_map<WorkerId, WorkerModel> workers;
  std::vector<double> prior;
  DistributionMatrix posterior{0, 1};
  int iterations = 0;
  /// Model returned for workers absent from `workers` — a perfect worker,
  /// matching the paper's new-worker assumption (Section 5.2).
  WorkerModel fallback = WorkerModel::PerfectWp(2);

  /// The fitted model of `worker`, or `fallback` if the worker never
  /// answered.
  const WorkerModel& WorkerFor(WorkerId worker) const;
};

/// Runs EM over the answer set: E-step computes per-question posteriors from
/// the current worker models and prior (Eq. 16); M-step re-estimates worker
/// models and prior from the posteriors. Initialisation uses smoothed
/// per-question vote counts, the standard Dawid–Skene bootstrap.
///
/// `pool` is unused: refits run serially, because at every measured size a
/// thread pool made them slower (DESIGN.md §8). The parameter stays for
/// source compatibility; results do not depend on it.
///
/// `iterations` (optional) counts the E/M rounds this fit took, the
/// caller's resolved tnames::kEmIterations counter; it never affects the
/// fit.
EmResult RunEm(const AnswerSet& answers, int num_labels,
               const EmOptions& options, util::ThreadPool* pool = nullptr,
               util::Counter* iterations = nullptr);

/// Warm-started EM: seeds the posteriors by one E-step of `previous`'s
/// worker models and prior over `answers`, then iterates from there. When
/// `previous` has another shape or no fitted workers, runs the cold fit
/// (RunEm) instead. How many rounds this saves over the cold fit on the
/// HIT-completion path, and whether it reaches the same fixed point, has
/// not been measured. `pool` and `iterations` as in RunEm.
EmResult RunEmWarmStart(const AnswerSet& answers, int num_labels,
                        const EmOptions& options, const EmResult& previous,
                        util::ThreadPool* pool = nullptr,
                        util::Counter* iterations = nullptr);

}  // namespace qasca

#endif  // QASCA_MODEL_EM_H_
