#ifndef QASCA_PLATFORM_ENGINE_H_
#define QASCA_PLATFORM_ENGINE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/metrics/metric.h"
#include "platform/app_config.h"
#include "platform/assignment_core.h"
#include "platform/database.h"
#include "platform/journal.h"
#include "platform/provenance.h"
#include "platform/strategy.h"
#include "util/attributes.h"
#include "util/flight_recorder.h"
#include "util/status.h"
#include "util/telemetry.h"

namespace qasca {

/// The QASCA engine: App Manager + Task Assignment + Database wired
/// together (Figure 1, Appendix A). Drives the two workflows of Figure 2:
///
///  * HIT request  — compute the worker's candidate set S^w, hand Qc and the
///    worker's fitted model to the assignment strategy, dynamically batch
///    the chosen k questions into a HIT;
///  * HIT completion — append the worker's answers to D, re-estimate the
///    parameters (worker models + prior) with EM, and refresh Qc.
///
/// The engine is strategy-pluggable so that the five comparison systems of
/// Section 6.2.1 run under the identical platform harness; QASCA itself is
/// the QascaStrategy.
///
/// Structure: the decision math lives in an owned AssignmentCore — the
/// pure, deterministic, golden-trace-pinned piece (D, Qc, EM, strategy,
/// RNG). This class is the *serving shell* around it: budget and lease
/// accounting on a virtual clock, completion idempotency, the write-ahead
/// lifecycle journal (the one per-event record) and crash recovery,
/// wall-clock latency / SLO tracking and decision provenance. Decisions are
/// a pure function of (config, seed, event history); everything the shell
/// adds is re-derivable bookkeeping.
///
/// One id and one count per event (DESIGN.md §9, §13): each assign,
/// complete and tick the engine applies is numbered with the seq of its
/// journal line, counted the same way when there is no journal, and that
/// seq is the request's trace id, the HIT id and the provenance record's
/// journal_seq. A request rejected after its spans open journals nothing,
/// so those spans carry the seq of the next event applied. Each lifecycle
/// count lives only in a registry counter, which counts whether or not
/// telemetry is enabled; the accessors below read it.
///
/// Performance model (DESIGN.md "Threading and incrementality"): with
/// AppConfig::num_threads > 1 the core owns a fixed-size thread pool that
/// the HIT-request kernels (Qw estimation, the Top-K benefit scan) chunk
/// work onto; EM refits run serially. Assignment decisions are
/// byte-identical for every thread count.
/// With AppConfig::em_refresh_interval > 1, full EM refits run only every
/// that-many completions and the completions in between re-derive just the
/// k posterior rows the completed HIT touched.
///
/// Threading contract: externally synchronised — one engine, one driving
/// thread at a time. Under AppManager that thread is whichever worker holds
/// the app's shard lock; standalone it is the single simulation thread.
/// RequestHit / CompleteHit / Tick and every accessor run under that
/// exclusion; concurrency exists only *inside* a call, when a kernel fans
/// chunks onto the core's pool, and those chunks read engine/database state
/// strictly const (Database's single-writer contract) while writing
/// disjoint pre-sized slots. The internally-synchronised members
/// (`telemetry_`'s instruments, the pool) are the only state worker threads
/// touch directly.
class TaskAssignmentEngine {
 public:
  /// `config` must Validate(); `seed` drives all stochastic choices
  /// (Qw sampling, tie-breaking) deterministically.
  TaskAssignmentEngine(AppConfig config,
                       std::unique_ptr<AssignmentStrategy> strategy,
                       uint64_t seed);

  /// HIT request event. Fails with ResourceExhausted once the budget's
  /// B/b HITs have been assigned, FailedPrecondition if the worker already
  /// holds an open HIT, and NotFound if fewer than k questions remain in
  /// the worker's candidate set.
  QASCA_NODISCARD
  util::StatusOr<std::vector<QuestionIndex>> RequestHit(WorkerId worker);

  /// Serves a batch of HIT requests in batch order under one root span. The
  /// strategy's shared per-decision state is warmed once for the batch
  /// (AssignmentCore::WarmSharedState: MaxMargin's typical-worker model,
  /// the only such state). Decisions are byte-identical to calling
  /// RequestHit serially for each worker in batch order — the engine RNG
  /// stream advances per request either way (pinned by
  /// AppManagerTest.BatchMatchesSerialInBatchOrder). Per-request failures
  /// land in the matching result slot; the batch never aborts early.
  std::vector<util::StatusOr<std::vector<QuestionIndex>>> ServeRequestBatch(
      const std::vector<WorkerId>& workers);

  /// HIT completion event. `labels` must parallel the question list the
  /// worker received from RequestHit. Idempotent against platform callback
  /// redelivery: a completion matching the worker's most recent completed
  /// HIT (by answer-set hash) is dropped with AlreadyExists, never
  /// double-counted into D or EM; a completion arriving after the lease
  /// expired is rejected with FailedPrecondition.
  QASCA_NODISCARD
  util::Status CompleteHit(WorkerId worker,
                           const std::vector<LabelIndex>& labels);

  /// Advances the virtual clock by `ticks` (> 0) and expires every open
  /// lease whose deadline has passed: the HIT's questions return to the
  /// worker's candidate set, the budget HIT is refunded, and the worker's
  /// next CompleteHit — necessarily for the expired HIT — is rejected as
  /// late (until a new RequestHit supersedes it). With
  /// AppConfig::lease_timeout_ticks == 0 this only advances the clock.
  /// Returns the number of leases expired.
  ///
  /// Expiry and completion mutate the same lease/budget state; under
  /// AppManager both run behind the app's shard lock, so an expiry racing a
  /// completion serialises and the budget is refunded at most once
  /// (AppManagerTest.ExpiryRacingCompletionNeverDoubleRefunds).
  int Tick(uint64_t ticks = 1);

  /// Replays the lifecycle journal at AppConfig::persistence_path through
  /// the normal engine paths, reproducing the crashed engine's state
  /// bit-for-bit (answers, posteriors, worker models, RNG stream, open
  /// leases, virtual clock) — decisions are a pure function of (config,
  /// seed, event history), so re-executing the history is the recovery.
  /// Each replayed assignment re-runs the strategy and is verified against
  /// the journaled selection; a mismatch (journal from a different config
  /// or seed) fails with Internal. Must be called on a freshly constructed
  /// engine; FailedPrecondition if persistence is off. Either way the
  /// journal frees its loaded events afterwards.
  QASCA_NODISCARD
  util::Status Recover();

  /// Runs a full EM refit immediately, regardless of where the engine is in
  /// its em_refresh_interval cycle (the incremental-agreement invariant is
  /// checked first, as at any scheduled refit). Benchmarks and tests use
  /// this to force the batch-global state the paper's engine maintains on
  /// every completion.
  void ForceFullEmRefit() { core_->ForceFullEmRefit(); }

  /// The results the requester would receive now: the metric-optimal result
  /// vector R* for the current Qc.
  ResultVector CurrentResults() const { return core_->CurrentResults(); }

  /// Convenience for experiments: the true quality F(T, R*) of the current
  /// results against known ground truth.
  double QualityAgainstTruth(const GroundTruthVector& truth) const {
    return core_->QualityAgainstTruth(truth);
  }

  const AppConfig& config() const { return config_; }
  const Database& database() const { return core_->database(); }
  /// The pure decision core this shell serves (read-only; mutations go
  /// through the engine's lifecycle API).
  const AssignmentCore& core() const { return *core_; }
  /// The engine's telemetry registry: per-stage latency spans, hot-path
  /// counters and gauges. Strategies and kernels record into it through
  /// StrategyContext / AssignmentRequest. Counters and gauges always
  /// record; spans and latency instruments are live when
  /// AppConfig::telemetry_enabled — or when the flight recorder or the SLO
  /// tracker needs them (both ride the span machinery).
  const util::MetricRegistry& telemetry() const { return telemetry_; }
  /// The flight recorder capturing span begin/end events for trace export
  /// (Chrome/Perfetto JSON); nullptr unless
  /// AppConfig::flight_recorder_enabled.
  const util::FlightRecorder* flight_recorder() const noexcept {
    return flight_recorder_.get();
  }
  /// The per-assignment decision-provenance ring; nullptr unless
  /// AppConfig::provenance_enabled.
  const ProvenanceLog* provenance() const noexcept {
    return provenance_.get();
  }
  /// The assignment-latency SLO tracker; nullptr unless
  /// AppConfig::slo_p95_assign_ms > 0.
  const util::SloTracker* assign_slo() const noexcept {
    return assign_slo_.get();
  }
  /// Point-in-time copy of every instrument (name-sorted); the programmatic
  /// form behind MetricRegistry::ToJson().
  util::TelemetrySnapshot TelemetrySnapshot() const {
    return telemetry_.Snapshot();
  }
  const EvaluationMetric& metric() const { return core_->metric(); }
  const AssignmentStrategy& strategy() const { return core_->strategy(); }

  int assigned_hits() const noexcept { return assigned_hits_; }
  int completed_hits() const noexcept {
    return static_cast<int>(instruments_.hits_completed->value());
  }
  /// HITs currently assigned but neither completed nor expired. Always
  /// equals assigned_hits() - completed_hits() (the accounting invariant
  /// the lifecycle stress harness checks after every event).
  int open_hit_count() const noexcept {
    return static_cast<int>(open_hits_.size());
  }
  /// Current virtual-clock time; advances only through Tick().
  uint64_t now_ticks() const noexcept { return now_ticks_; }
  /// Lifecycle fault counts, read from the registry counters that are
  /// their only record.
  int leases_expired() const noexcept {
    return static_cast<int>(instruments_.lease_expired->value());
  }
  int questions_requeued() const noexcept {
    return static_cast<int>(instruments_.questions_requeued->value());
  }
  int duplicates_dropped() const noexcept {
    return static_cast<int>(instruments_.duplicate_dropped->value());
  }
  int late_completions_rejected() const noexcept {
    return static_cast<int>(instruments_.late_completion_rejected->value());
  }

  /// FNV-1a fingerprint of every piece of state an assignment decision can
  /// read: HIT accounting, the virtual clock, open leases, the answer set
  /// D, the Qc cell bit patterns and the current result vector. Recovery
  /// tests compare a recovered engine's fingerprint against the reference
  /// engine's.
  uint64_t StateFingerprint() const;
  /// HITs the remaining budget still affords.
  int remaining_hits() const noexcept {
    return config_.TotalHits() - assigned_hits_;
  }
  bool BudgetExhausted() const noexcept { return remaining_hits() <= 0; }

  /// Wall-clock seconds spent deciding the slowest HIT request — the full
  /// decision path the shard lock covers (candidate scan + strategy
  /// selection); Figure 6(a) reports the worst case.
  double max_assignment_seconds() const noexcept {
    return max_assignment_seconds_;
  }

  /// Completions served by the cheap incremental path vs full EM refits
  /// (full_em_refits + incremental_refreshes == completed_hits).
  int full_em_refits() const noexcept { return core_->full_em_refits(); }
  int incremental_refreshes() const noexcept {
    return core_->incremental_refreshes();
  }

  /// Max absolute Qc cell difference between the incremental posterior and
  /// the full refit that superseded it, for the latest / worst refit that
  /// followed at least one incremental refresh. 0 until such a refit runs.
  /// Always checked against AppConfig::em_drift_tolerance.
  double last_refresh_drift() const noexcept {
    return core_->last_refresh_drift();
  }
  double max_refresh_drift() const noexcept {
    return core_->max_refresh_drift();
  }

 private:
  /// An assigned, not-yet-completed HIT: the lease the worker holds.
  struct OpenHit {
    /// The seq of the assignment event; names the HIT in duplicate-drop
    /// diagnostics.
    uint64_t hit_id = 0;
    /// Virtual-clock tick at which the lease expires; kLeaseNever when
    /// AppConfig::lease_timeout_ticks == 0.
    uint64_t deadline = 0;
    std::vector<QuestionIndex> questions;
  };

  /// Fingerprint of a worker's most recent completed HIT, kept so a
  /// redelivered completion callback is recognised and dropped.
  struct CompletedHit {
    uint64_t hit_id = 0;
    uint64_t answers_hash = 0;
  };

  static uint64_t HashLabels(const std::vector<LabelIndex>& labels);

  /// Recover()'s loop over the journal's loaded events; stops at the first
  /// event that fails to re-execute.
  QASCA_NODISCARD util::Status ReplayLoadedEvents();

  /// Pre-resolved instrument handles, looked up once at construction so the
  /// per-HIT path never touches the registry map.
  struct Instruments {
    util::Counter* hits_assigned = nullptr;
    util::Counter* hits_completed = nullptr;
    util::Counter* lease_expired = nullptr;
    util::Counter* questions_requeued = nullptr;
    util::Counter* duplicate_dropped = nullptr;
    util::Counter* late_completion_rejected = nullptr;
    util::Counter* journal_events_replayed = nullptr;
    util::Counter* batches_served = nullptr;
    util::Counter* batch_requests = nullptr;
    util::Gauge* open_hits = nullptr;
    util::Gauge* remaining_hits = nullptr;
  };

  AppConfig config_;
  util::MetricRegistry telemetry_;
  Instruments instruments_;
  /// Non-null iff config_.persistence_path is non-empty.
  std::unique_ptr<LifecycleJournal> journal_;
  /// Non-null iff config_.flight_recorder_enabled; attached to telemetry_
  /// at construction so every enabled span also records B/E events.
  std::unique_ptr<util::FlightRecorder> flight_recorder_;
  /// Non-null iff config_.provenance_enabled; one record per assignment.
  std::unique_ptr<ProvenanceLog> provenance_;
  /// Non-null iff config_.slo_p95_assign_ms > 0; fed the decision seconds
  /// of every assignment.
  std::unique_ptr<util::SloTracker> assign_slo_;
  /// The pure decision core (always non-null; constructed after config_ is
  /// validated and telemetry_ is live, destroyed before both).
  std::unique_ptr<AssignmentCore> core_;
  std::unordered_map<WorkerId, OpenHit> open_hits_;
  std::unordered_map<WorkerId, CompletedHit> last_completion_;
  /// Workers whose lease expired and who have not requested a new HIT yet;
  /// a completion from them is a late delivery for the expired HIT.
  std::unordered_set<WorkerId> expired_pending_;
  /// Virtual-clock time; advances only through Tick().
  uint64_t now_ticks_ = 0;
  /// Seq of the next event the engine applies: the seq its journal line
  /// gets, counted the same way without a journal. Never feeds a decision.
  uint64_t next_seq_ = 0;
  /// True while Recover() re-executes journaled events, so the replay does
  /// not re-append them.
  bool replaying_ = false;
  /// Net HITs assigned: lease expiry refunds them, so this is not a count
  /// of assignment events (that is the hits_assigned counter).
  int assigned_hits_ = 0;
  double max_assignment_seconds_ = 0.0;
};

}  // namespace qasca

#endif  // QASCA_PLATFORM_ENGINE_H_
