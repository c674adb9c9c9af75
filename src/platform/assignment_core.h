#ifndef QASCA_PLATFORM_ASSIGNMENT_CORE_H_
#define QASCA_PLATFORM_ASSIGNMENT_CORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/metrics/metric.h"
#include "platform/app_config.h"
#include "platform/database.h"
#include "platform/provenance.h"
#include "platform/strategy.h"
#include "util/attributes.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace qasca {

/// The pure, deterministic half of the QASCA engine: the answer set D, the
/// Qc distribution matrix, the fitted worker models, the strategy and the
/// RNG stream — everything an assignment decision reads or writes, and
/// nothing else. No clocks, no journal, no lease accounting: given the same
/// (config, seed) and the same sequence of Decide / CommitAssignment /
/// ReleaseAssignment / ApplyCompletion calls, two cores produce bit-identical
/// decisions and bit-identical Qc on every platform and thread count. This
/// is the golden-trace-pinned piece; the serving shell
/// (TaskAssignmentEngine) layers leases, idempotency, the write-ahead
/// journal and wall-clock latency tracking on top.
///
/// Threading contract: externally synchronised — one core, one driving
/// thread (the engine shell's caller; under AppManager, whichever worker
/// thread holds that app's shard lock). Concurrency exists only *inside* a
/// call, when a kernel fans chunks onto `pool_`; those chunks read core
/// state strictly const and write disjoint pre-sized slots.
class AssignmentCore {
 public:
  /// `config` must outlive the core and must already Validate();
  /// `telemetry` is the owning engine's registry (never null; its counters
  /// are the core's refit and database write counts whether or not it is
  /// enabled) and must outlive the core. `seed` drives all stochastic
  /// choices (Qw sampling, tie-breaking) deterministically.
  AssignmentCore(const AppConfig* config,
                 std::unique_ptr<AssignmentStrategy> strategy, uint64_t seed,
                 util::MetricRegistry* telemetry);

  /// A strategy decision plus the inputs the shell needs for provenance.
  struct Decision {
    std::vector<QuestionIndex> questions;
    /// |S^w|: size of the candidate set handed to the strategy.
    int candidates = 0;
  };

  /// Runs the strategy for `worker` against the current Qc: computes the
  /// candidate set S^w, hands it to the strategy with the worker's fitted
  /// model, and validates the returned HIT (exactly k distinct in-range
  /// questions from S^w — always on, a malformed HIT corrupts D silently).
  /// Fails with NotFound if fewer than k candidates remain. Pure decision:
  /// no core state changes except the RNG stream the strategy draws from.
  /// When `provenance` is non-null the strategy fills its selection scores
  /// and the core fills the decision-input fields (candidate count, EM
  /// generation).
  QASCA_NODISCARD
  util::StatusOr<Decision> Decide(WorkerId worker,
                                  DecisionProvenance* provenance);

  /// Marks a decided HIT's questions assigned in the database (removes them
  /// from the worker's candidate set). The shell calls this only after the
  /// decision is in the journal.
  void CommitAssignment(WorkerId worker,
                        const std::vector<QuestionIndex>& questions);

  /// Returns an assigned HIT's questions to the worker's candidate set
  /// (lease expiry in the shell).
  void ReleaseAssignment(WorkerId worker,
                         const std::vector<QuestionIndex>& questions);

  /// HIT-completion steps A-C (Figure 2): appends `labels` for `questions`
  /// to the answer set D, then refreshes Qc — incrementally re-deriving
  /// just the touched posterior rows between scheduled refits, or running
  /// the full EM refit when the cycle (config.em_refresh_interval) comes
  /// due. `labels` must parallel `questions`; both must be the HIT the
  /// worker actually holds (the shell's lease table enforces that).
  void ApplyCompletion(WorkerId worker,
                       const std::vector<QuestionIndex>& questions,
                       const std::vector<LabelIndex>& labels);

  /// Runs a full EM refit immediately, regardless of where the core is in
  /// its em_refresh_interval cycle (the incremental-agreement invariant is
  /// checked first, as at any scheduled refit).
  void ForceFullEmRefit();

  /// Pre-materialises the per-decision shared state the strategy reads
  /// (the cached typical worker, for strategies whose ReadsTypicalWorker()
  /// is true) so a batch of Decide calls amortises the O(workers *
  /// labels^2) aggregation instead of paying it on the batch's first
  /// request. Safe to call at any time; decisions are byte-identical with
  /// or without it.
  void WarmSharedState();

  /// The results the requester would receive now: the metric-optimal result
  /// vector R* for the current Qc.
  ResultVector CurrentResults() const;

  /// Convenience for experiments: the true quality F(T, R*) of the current
  /// results against known ground truth.
  double QualityAgainstTruth(const GroundTruthVector& truth) const;

  const Database& database() const { return database_; }
  const EvaluationMetric& metric() const { return *metric_; }
  const AssignmentStrategy& strategy() const { return *strategy_; }

  /// Completions served by the cheap incremental path vs full EM refits.
  int full_em_refits() const noexcept {
    return static_cast<int>(em_full_refits_counter_->value());
  }
  int incremental_refreshes() const noexcept {
    return static_cast<int>(em_incremental_refreshes_counter_->value());
  }
  /// Max absolute Qc cell difference between the incremental posterior and
  /// the full refit that superseded it (see TaskAssignmentEngine).
  double last_refresh_drift() const noexcept {
    return last_refresh_drift_gauge_->value();
  }
  double max_refresh_drift() const noexcept { return max_refresh_drift_; }

 private:
  /// Fitted model for `worker` (perfect if unseen).
  const WorkerModel& ModelFor(WorkerId worker) const;

  /// Representative worker for worker-agnostic policies: a WP model at the
  /// mean diagonal quality of all fitted workers (0.75 before any fit).
  /// Built on the first request of a strategy that reads it, then cached —
  /// the fitted pool only changes on a full EM refit.
  const WorkerModel& TypicalWorker();
  WorkerModel ComputeTypicalWorker() const;

  /// Runs full EM over the answer set, enforces the incremental-agreement
  /// invariant against the pre-refit Qc, and resets the refresh cycle.
  void RunFullEmRefit();

  const AppConfig& config_;
  util::MetricRegistry& telemetry_;
  std::unique_ptr<AssignmentStrategy> strategy_;
  std::unique_ptr<EvaluationMetric> metric_;
  Database database_;
  util::Rng rng_;
  /// Non-null iff config_.num_threads > 1.
  std::unique_ptr<util::ThreadPool> pool_;
  std::optional<WorkerModel> typical_worker_;
  /// The registry instruments are the only record of the refresh counts,
  /// the latest drift and the database writes.
  util::Counter* em_full_refits_counter_;
  util::Counter* em_incremental_refreshes_counter_;
  util::Gauge* last_refresh_drift_gauge_;
  util::Counter* answers_recorded_counter_;
  util::Counter* posterior_row_updates_counter_;
  /// Completions since the last full EM refit.
  int completions_since_refit_ = 0;
  /// Whether any incremental row update has been applied since the last
  /// full refit — gates the drift invariant.
  bool incremental_since_refit_ = false;
  double max_refresh_drift_ = 0.0;
};

}  // namespace qasca

#endif  // QASCA_PLATFORM_ASSIGNMENT_CORE_H_
