#include "platform/app_manager.h"

#include <string>
#include <utility>

#include "util/failpoint.h"
#include "util/logging.h"

namespace qasca {

util::StatusOr<AppId> AppManager::RegisterApp(AppOptions options) {
  if (!options.strategy_factory) {
    return util::Status::InvalidArgument(
        "RegisterApp requires a strategy factory");
  }
  QASCA_RETURN_IF_ERROR(options.config.Validate());
  auto owned = std::make_unique<AppShard>();
  AppShard* shard = owned.get();
  AppId id = 0;
  {
    util::MutexLock registry(mu_);
    id = static_cast<AppId>(shards_.size());
    shards_.push_back(std::move(owned));
  }
  // Published before the engine exists; every serving path checks for a
  // still-initialising shard. The caller only learns the id after this
  // block, so a well-behaved client never observes the window.
  util::MutexLock lock(shard->mu);
  shard->config = std::move(options.config);
  if (!shard->config.persistence_path.empty()) {
    // Journal scoping: sibling apps must never share a journal file, and a
    // restarted process that re-registers the same apps in the same order
    // reattaches each app to its own journal.
    shard->config.persistence_path += ".app" + std::to_string(id);
  }
  shard->strategy_factory = std::move(options.strategy_factory);
  shard->seed = options.seed;
  shard->engine = BuildEngine(*shard);
  return id;
}

int AppManager::app_count() const {
  util::MutexLock registry(mu_);
  return static_cast<int>(shards_.size());
}

util::StatusOr<std::vector<QuestionIndex>> AppManager::SubmitHitRequest(
    AppId app, WorkerId worker) {
  AppShard* shard = ShardFor(app);
  if (shard == nullptr) {
    return util::Status::InvalidArgument("unknown app id");
  }
  util::MutexLock lock(shard->mu);
  if (shard->engine == nullptr) {
    return util::Status::FailedPrecondition("app is still initialising");
  }
  return shard->engine->RequestHit(worker);
}

util::StatusOr<std::vector<util::StatusOr<std::vector<QuestionIndex>>>>
AppManager::SubmitHitRequestBatch(AppId app,
                                  const std::vector<WorkerId>& workers) {
  AppShard* shard = ShardFor(app);
  if (shard == nullptr) {
    return util::Status::InvalidArgument("unknown app id");
  }
  // One lock hold for the whole batch: the b decisions run back to back,
  // with no completion changing Qc or the worker models between them
  // (TaskAssignmentEngine::ServeRequestBatch warms the shared state once).
  util::MutexLock lock(shard->mu);
  if (shard->engine == nullptr) {
    return util::Status::FailedPrecondition("app is still initialising");
  }
  return shard->engine->ServeRequestBatch(workers);
}

util::Status AppManager::SubmitHitCompletion(
    AppId app, WorkerId worker, const std::vector<LabelIndex>& labels) {
  AppShard* shard = ShardFor(app);
  if (shard == nullptr) {
    return util::Status::InvalidArgument("unknown app id");
  }
  util::MutexLock lock(shard->mu);
  if (shard->engine == nullptr) {
    return util::Status::FailedPrecondition("app is still initialising");
  }
  return shard->engine->CompleteHit(worker, labels);
}

util::StatusOr<int> AppManager::AdvanceAppClock(AppId app, uint64_t ticks) {
  if (ticks == 0) {
    return util::Status::InvalidArgument("ticks must be > 0");
  }
  AppShard* shard = ShardFor(app);
  if (shard == nullptr) {
    return util::Status::InvalidArgument("unknown app id");
  }
  util::MutexLock lock(shard->mu);
  if (shard->engine == nullptr) {
    return util::Status::FailedPrecondition("app is still initialising");
  }
  return shard->engine->Tick(ticks);
}

util::Status AppManager::CrashAndRecoverApp(AppId app) {
  AppShard* shard = ShardFor(app);
  if (shard == nullptr) {
    return util::Status::InvalidArgument("unknown app id");
  }
  util::MutexLock lock(shard->mu);
  if (shard->engine == nullptr) {
    return util::Status::FailedPrecondition("app is still initialising");
  }
  if (shard->config.persistence_path.empty()) {
    return util::Status::FailedPrecondition(
        "app has no journal to recover from");
  }
  // Hit() is called directly rather than through QASCA_FAIL_POINT so the
  // injection point is armable in every build and the lock-order pass sees
  // the FailPoints acquisition under the shard lock — a runtime nesting
  // the journal's own fail points produce on this path anyway.
  if (util::FailPoints::Global().Hit("app_manager.crash_recover")) {
    return util::Status::Internal(
        "fail point app_manager.crash_recover: recovery refused");
  }
  // The crash: every byte of in-memory state is discarded. Sibling shards
  // keep serving throughout — only this app's lock is held. The journal
  // (and the registered config/factory/seed) is the sole survivor, and
  // replaying it through a fresh engine IS the recovery.
  shard->engine.reset();
  shard->engine = BuildEngine(*shard);
  return shard->engine->Recover();
}

util::StatusOr<uint64_t> AppManager::AppStateFingerprint(AppId app) const {
  AppShard* shard = ShardFor(app);
  if (shard == nullptr) {
    return util::Status::InvalidArgument("unknown app id");
  }
  util::MutexLock lock(shard->mu);
  if (shard->engine == nullptr) {
    return util::Status::FailedPrecondition("app is still initialising");
  }
  return shard->engine->StateFingerprint();
}

util::StatusOr<std::string> AppManager::AppTelemetryJson(AppId app) const {
  AppShard* shard = ShardFor(app);
  if (shard == nullptr) {
    return util::Status::InvalidArgument("unknown app id");
  }
  util::MutexLock lock(shard->mu);
  if (shard->engine == nullptr) {
    return util::Status::FailedPrecondition("app is still initialising");
  }
  return shard->engine->telemetry().ToJson();
}

util::StatusOr<AppManager::AppStats> AppManager::StatsFor(AppId app) const {
  AppShard* shard = ShardFor(app);
  if (shard == nullptr) {
    return util::Status::InvalidArgument("unknown app id");
  }
  util::MutexLock lock(shard->mu);
  if (shard->engine == nullptr) {
    return util::Status::FailedPrecondition("app is still initialising");
  }
  const TaskAssignmentEngine& engine = *shard->engine;
  AppStats stats;
  stats.assigned_hits = engine.assigned_hits();
  stats.completed_hits = engine.completed_hits();
  stats.open_hits = engine.open_hit_count();
  stats.leases_expired = engine.leases_expired();
  stats.duplicates_dropped = engine.duplicates_dropped();
  stats.late_completions_rejected = engine.late_completions_rejected();
  if (engine.provenance() != nullptr) {
    stats.provenance_records = engine.provenance()->size();
  }
  if (engine.assign_slo() != nullptr) {
    stats.window_p95_seconds = engine.assign_slo()->WindowP95();
  }
  stats.max_assignment_seconds = engine.max_assignment_seconds();
  return stats;
}

util::Status AppManager::InspectApp(
    AppId app,
    const std::function<void(const TaskAssignmentEngine&)>& fn) const {
  AppShard* shard = ShardFor(app);
  if (shard == nullptr) {
    return util::Status::InvalidArgument("unknown app id");
  }
  util::MutexLock lock(shard->mu);
  if (shard->engine == nullptr) {
    return util::Status::FailedPrecondition("app is still initialising");
  }
  fn(*shard->engine);
  return util::Status::Ok();
}

AppManager::AppShard* AppManager::ShardFor(AppId app) const {
  util::MutexLock registry(mu_);
  if (app < 0 || app >= static_cast<AppId>(shards_.size())) {
    return nullptr;
  }
  return shards_[static_cast<size_t>(app)].get();
}

std::unique_ptr<TaskAssignmentEngine> AppManager::BuildEngine(
    const AppShard& shard) {
  return std::make_unique<TaskAssignmentEngine>(
      shard.config, shard.strategy_factory(), shard.seed);
}

}  // namespace qasca
