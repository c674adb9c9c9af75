#ifndef QASCA_PERFBENCH_LEAF_H_
#define QASCA_PERFBENCH_LEAF_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/assignment/qw_overlay.h"
#include "model/likelihood_cache.h"
#include "platform/app_config.h"
#include "platform/database.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "workload.h"

namespace perfbench {

/// Per-call times (ms) and counts of the leaf rung's calls, in call order.
struct LeafTimes {
  std::vector<double> candidates_ms;
  std::vector<int> candidates;
  std::vector<double> qw_ms;
  std::vector<double> topk_ms;
  std::vector<double> dinkelbach_ms;
  std::vector<int> dinkelbach_iters;
  std::vector<double> refresh_ms;
  std::vector<double> refit_ms;
  std::vector<int> em_iterations;
  /// One entry per completion, in order: 1 if it ran a full EM refit.
  std::vector<uint8_t> refit_flags;
  /// Thread-pool probes: the same leaf call on the same inputs without a
  /// pool and with a 4-thread pool, on a sample of calls.
  std::vector<double> qw_serial_ms, qw_pooled_ms;
  std::vector<double> topk_serial_ms, topk_pooled_ms;
  std::vector<double> em_serial_ms, em_pooled_ms;
  /// What-if probes for leaf calls the app never makes, on the same
  /// inputs: the other metric's selection (top-K for F-score* apps,
  /// Dinkelbach at alpha 0.5 for Accuracy* apps) and, without incremental
  /// refresh, the k posterior rows a refresh would re-derive.
  std::vector<double> whatif_topk_ms;
  std::vector<double> whatif_dinkelbach_ms;
  std::vector<int> whatif_dinkelbach_iters;
  std::vector<double> whatif_refresh_ms;
};

/// Rung 4: the core's work composed from the leaf calls the benchmark
/// makes itself — Database::CandidatesFor, WorkerLikelihoods::FromModel +
/// EstimateWorkerRowsInto, AssignTopKBenefit or AssignFScoreOnline,
/// Database::MarkAssigned / RecordAnswer / Unassign,
/// ComputePosteriorRowWithLikelihoods + Database::UpdatePosteriorRow, and
/// RunEm + Database::SetParameters. It keeps its own util::Rng(seed) and,
/// like the core, takes one draw per request, so it reproduces the
/// engine's decisions (the decision hash proves it).
class LeafTarget {
 public:
  static constexpr bool kShell = false;

  /// With `probe`, every few requests, completions and refits the Qw,
  /// top-K and EM calls run a second time with the other pool setting, and
  /// the what-if probes run (after the timed call, on the same inputs,
  /// without changing any state).
  LeafTarget(const qasca::AppConfig& config, uint64_t seed, LeafTimes* times,
             bool probe);
  LeafTarget(const LeafTarget&) = delete;
  LeafTarget& operator=(const LeafTarget&) = delete;

  qasca::util::StatusOr<std::vector<QuestionIndex>> Request(WorkerId worker);
  std::vector<qasca::util::StatusOr<std::vector<QuestionIndex>>> Batch(
      const std::vector<WorkerId>& workers);
  qasca::util::Status Complete(WorkerId worker,
                               const std::vector<QuestionIndex>& questions,
                               const std::vector<LabelIndex>& labels);
  qasca::util::StatusOr<int> Tick(
      const std::vector<std::pair<WorkerId, const std::vector<QuestionIndex>*>>&
          expiring);

 private:
  const qasca::WorkerLikelihoods& Likelihoods(WorkerId worker);

  qasca::AppConfig config_;
  qasca::Database database_;
  qasca::util::Rng rng_;
  LeafTimes* times_;
  /// The app's own pool (num_threads > 1), as the core builds it.
  std::unique_ptr<qasca::util::ThreadPool> pool_;
  /// The other setting for the probes: a 4-thread pool when the app has
  /// none; null (serial) when it has one.
  std::unique_ptr<qasca::util::ThreadPool> probe_pool_;
  bool probe_ = false;
  /// Likelihood tables built since the last refit (the core's cache).
  std::unordered_map<WorkerId, qasca::WorkerLikelihoods> likelihoods_;
  qasca::QwOverlay overlay_;
  qasca::QwOverlay probe_overlay_;
  std::vector<double> row_;
  int completions_since_refit_ = 0;
  int requests_ = 0;
  int completions_ = 0;
  int refits_ = 0;
};

}  // namespace perfbench

#endif  // QASCA_PERFBENCH_LEAF_H_
