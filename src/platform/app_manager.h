#ifndef QASCA_PLATFORM_APP_MANAGER_H_
#define QASCA_PLATFORM_APP_MANAGER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "platform/app_config.h"
#include "platform/engine.h"
#include "platform/strategy.h"
#include "util/attributes.h"
#include "util/lock_ranks.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace qasca {

/// Application handle returned by AppManager::RegisterApp; dense indices in
/// registration order.
using AppId = int;

/// The multi-application serving front end of the deployed QASCA system
/// (Figure 2 / Appendix A): hosts N registered applications, each a full
/// TaskAssignmentEngine — its own decision core, lifecycle journal and
/// telemetry scope — and accepts interleaved HIT-request / HIT-completion
/// calls from many worker threads at once.
///
/// Concurrency model — per-app sharding: every app lives in its own
/// AppShard behind its own ranked util::Mutex. A serving call resolves the
/// app id to its shard under the (briefly held) registry lock, releases it,
/// then takes the shard lock for the engine call. Calls against different
/// apps run fully in parallel; calls against the same app serialise in
/// arrival order, which is exactly the engine's external-synchronisation
/// contract — and what makes lease expiry racing a completion safe (both
/// mutate the same lease/budget state; behind the shard lock the race
/// becomes an ordering, and the budget refunds at most once).
///
/// Determinism: the per-app engine remains a pure function of (config,
/// seed, per-app event order). Any interleaving that preserves each app's
/// event order yields bit-identical per-app state — the conformance suite
/// (tests/platform/app_manager_test.cc) replays one schedule at 1/2/4/8
/// threads and asserts identical fingerprints and decision hashes.
///
/// Journal scoping: a non-empty AppConfig::persistence_path is suffixed
/// ".app<id>" at registration so sibling apps never share a journal file;
/// re-registering the same apps in the same order after a process restart
/// reattaches each app to its own journal.
///
/// Method names deliberately do not reuse engine method names
/// (RequestHit → SubmitHitRequest, …): the lock-order analyzer matches
/// callees by unqualified name, and a front-end method that both held the
/// shard lock and shared a name with an engine method reachable under it
/// would read as a fictitious self-deadlock.
///
/// Threading contract: every public method is safe to call from any thread.
/// The registry lock (`mu_`, rank kAppManagerRegistry) guards the app
/// table and is never held while a shard lock is taken; each shard's lock
/// (rank kAppShard) guards that app's engine and is held for the duration
/// of one engine call (or one batch). Registration is append-only: shards
/// are never removed, so a resolved shard pointer stays valid for the
/// manager's lifetime.
class AppManager {
 public:
  /// Builds the app's strategy; invoked at registration and again on every
  /// CrashAndRecoverApp (the rebuilt engine needs a fresh strategy
  /// instance). Must be pure: two invocations must yield strategies that
  /// decide identically given identical inputs.
  using StrategyFactory = std::function<std::unique_ptr<AssignmentStrategy>()>;

  struct AppOptions {
    AppConfig config;
    StrategyFactory strategy_factory;
    /// Seed for the app's decision RNG stream; independent per app.
    uint64_t seed = 0;
  };

  AppManager() = default;
  AppManager(const AppManager&) = delete;
  AppManager& operator=(const AppManager&) = delete;

  /// Registers an app and starts serving it. Validates the config (before
  /// journal-path scoping) and requires a strategy factory. Returns the
  /// app's dense id.
  QASCA_NODISCARD
  util::StatusOr<AppId> RegisterApp(AppOptions options);

  /// Apps registered so far.
  int app_count() const;

  /// HIT request for `worker` against app `app` (engine RequestHit
  /// semantics). InvalidArgument for an unknown app id.
  QASCA_NODISCARD
  util::StatusOr<std::vector<QuestionIndex>> SubmitHitRequest(
      AppId app, WorkerId worker);

  /// Serves `workers`' HIT requests as one batch under one shard-lock hold
  /// and one serve_batch span, with the strategy's shared per-decision
  /// state warmed once (TaskAssignmentEngine::ServeRequestBatch). Decisions
  /// are byte-identical to submitting the same requests serially in batch
  /// order (pinned by AppManagerTest.BatchMatchesSerialInBatchOrder). One
  /// result slot per worker, in order; per-request failures do not abort
  /// the batch.
  QASCA_NODISCARD
  util::StatusOr<std::vector<util::StatusOr<std::vector<QuestionIndex>>>>
  SubmitHitRequestBatch(AppId app, const std::vector<WorkerId>& workers);

  /// HIT completion for `worker` against app `app` (engine CompleteHit
  /// semantics, including idempotent duplicate drop and late rejection).
  QASCA_NODISCARD
  util::Status SubmitHitCompletion(AppId app, WorkerId worker,
                                   const std::vector<LabelIndex>& labels);

  /// Advances app `app`'s virtual clock by `ticks` (> 0), expiring due
  /// leases (engine Tick semantics). Returns the number of leases expired.
  QASCA_NODISCARD
  util::StatusOr<int> AdvanceAppClock(AppId app, uint64_t ticks = 1);

  /// Simulates a crash of app `app` and recovers it from its journal while
  /// sibling apps keep serving: discards the in-memory engine, rebuilds it
  /// from the registered (config, factory, seed), and replays the journal.
  /// The app's shard lock is held throughout, so concurrent submissions to
  /// the same app simply wait and then hit the recovered engine.
  /// FailedPrecondition if the app has no journal. The fail point
  /// "app_manager.crash_recover" aborts the recovery before the engine is
  /// discarded (fault-injection suite).
  QASCA_NODISCARD
  util::Status CrashAndRecoverApp(AppId app);

  /// The app's engine StateFingerprint (serialised against in-flight
  /// calls). The conformance suite's bit-identity witness.
  QASCA_NODISCARD
  util::StatusOr<uint64_t> AppStateFingerprint(AppId app) const;

  /// The app's telemetry registry rendered as JSON (engine
  /// MetricRegistry::ToJson), serialised against in-flight calls.
  QASCA_NODISCARD
  util::StatusOr<std::string> AppTelemetryJson(AppId app) const;

  /// Point-in-time lifecycle counters for one app, read under its shard
  /// lock so the set is mutually consistent.
  struct AppStats {
    int assigned_hits = 0;
    int completed_hits = 0;
    int open_hits = 0;
    int leases_expired = 0;
    int duplicates_dropped = 0;
    int late_completions_rejected = 0;
    /// Decision-provenance records retained (0 if provenance is off).
    int provenance_records = 0;
    /// Sliding-window p95 assignment latency in seconds (0 if no SLO
    /// tracker is configured).
    double window_p95_seconds = 0.0;
    double max_assignment_seconds = 0.0;
  };
  QASCA_NODISCARD
  util::StatusOr<AppStats> StatsFor(AppId app) const;

  /// Runs `fn` against the app's engine under the shard lock — serialised
  /// read access for tests and tools that need engine internals (trace,
  /// provenance, database) without racing the serving threads. `fn` must
  /// not retain the reference past the call.
  QASCA_NODISCARD
  util::Status InspectApp(
      AppId app,
      const std::function<void(const TaskAssignmentEngine&)>& fn) const;

 private:
  /// One hosted application: the engine and everything needed to rebuild
  /// it after a simulated crash.
  struct AppShard {
    mutable util::Mutex mu{util::lock_ranks::kAppShard};
    std::unique_ptr<TaskAssignmentEngine> engine QASCA_GUARDED_BY(mu);
    /// Registration-time inputs, written once under `mu` at registration
    /// and read-only afterwards (CrashAndRecoverApp rebuilds from them).
    AppConfig config QASCA_GUARDED_BY(mu);
    StrategyFactory strategy_factory QASCA_GUARDED_BY(mu);
    uint64_t seed QASCA_GUARDED_BY(mu) = 0;
  };

  /// Resolves an app id to its shard under the registry lock; nullptr for
  /// an out-of-range id. The pointer stays valid forever (append-only
  /// registry of heap-allocated shards).
  AppShard* ShardFor(AppId app) const;

  static std::unique_ptr<TaskAssignmentEngine> BuildEngine(
      const AppShard& shard) QASCA_REQUIRES(shard.mu);

  mutable util::Mutex mu_{util::lock_ranks::kAppManagerRegistry};
  std::vector<std::unique_ptr<AppShard>> shards_ QASCA_GUARDED_BY(mu_);
};

}  // namespace qasca

#endif  // QASCA_PLATFORM_APP_MANAGER_H_
