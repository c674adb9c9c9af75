#include "simulation/serving_driver.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>

#include "platform/qasca_strategy.h"
#include "util/lock_ranks.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_annotations.h"

namespace qasca {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  hash ^= value;
  hash *= kFnvPrime;
  return hash;
}

/// SplitMix64 — the stateless mixer behind ServingAnswerFor: answers must
/// be a pure function of (app, worker, question), never of execution order.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// One app's turnstile plus the driver-side lane model: which workers hold
/// open HITs (mirroring the engine's lease table closely enough to decide
/// request-vs-complete) and the running decision hash. A thread may only
/// touch a lane while holding its turn and its lock; threads with later
/// app_seq values wait on the turnstile.
struct ServingLane {
  mutable util::Mutex turn_mu{util::lock_ranks::kServingLane};
  util::CondVar turn_cv;
  /// Next app_seq allowed to execute.
  uint32_t next_seq QASCA_GUARDED_BY(turn_mu) = 0;
  /// Open HITs as the driver last observed them. A lease the engine
  /// expired stays here until the worker's next completion attempt is
  /// rejected as late — the rejection is itself deterministic, so the
  /// model never diverges across interleavings.
  std::vector<std::vector<QuestionIndex>> open QASCA_GUARDED_BY(turn_mu);
  uint64_t decision_hash QASCA_GUARDED_BY(turn_mu) = kFnvOffset;
  int64_t assignments QASCA_GUARDED_BY(turn_mu) = 0;
  int64_t completions QASCA_GUARDED_BY(turn_mu) = 0;
  int64_t rejects QASCA_GUARDED_BY(turn_mu) = 0;
  int64_t leases_expired QASCA_GUARDED_BY(turn_mu) = 0;
  int64_t crash_recoveries QASCA_GUARDED_BY(turn_mu) = 0;
  int64_t batches QASCA_GUARDED_BY(turn_mu) = 0;
};

/// Status fold tags, so a rejected event perturbs the decision hash
/// differently from an accepted one.
constexpr uint64_t kTagAssign = 1;
constexpr uint64_t kTagComplete = 2;
constexpr uint64_t kTagTick = 3;
constexpr uint64_t kTagRecover = 4;
constexpr uint64_t kTagReject = 5;

void FoldQuestions(ServingLane& lane,
                   const std::vector<QuestionIndex>& questions)
    QASCA_REQUIRES(lane.turn_mu) {
  lane.decision_hash = FnvMix(lane.decision_hash, questions.size());
  for (QuestionIndex q : questions) {
    lane.decision_hash =
        FnvMix(lane.decision_hash, static_cast<uint64_t>(q) + 1);
  }
}

void ExecuteServe(AppManager& manager, const ServingWorkloadOptions& options,
                  const ServingEvent& event, ServingLane& lane)
    QASCA_REQUIRES(lane.turn_mu) {
  const size_t slot = static_cast<size_t>(event.worker);
  if (!lane.open[slot].empty()) {
    // Complete the worker's open HIT with pure-function answers.
    std::vector<LabelIndex> labels;
    labels.reserve(lane.open[slot].size());
    for (QuestionIndex q : lane.open[slot]) {
      labels.push_back(ServingAnswerFor(event.app, event.worker, q, options));
    }
    util::Status status =
        manager.SubmitHitCompletion(event.app, event.worker, labels);
    lane.decision_hash = FnvMix(lane.decision_hash, kTagComplete);
    lane.decision_hash = FnvMix(
        lane.decision_hash, static_cast<uint64_t>(event.worker));
    lane.decision_hash =
        FnvMix(lane.decision_hash, static_cast<uint64_t>(status.code()));
    if (status.ok()) {
      ++lane.completions;
    } else {
      // A lease the engine expired: the late rejection clears the stale
      // lane entry, mirroring the engine's expired_pending_ window.
      ++lane.rejects;
    }
    lane.open[slot].clear();
    return;
  }
  util::StatusOr<std::vector<QuestionIndex>> selected =
      manager.SubmitHitRequest(event.app, event.worker);
  if (selected.ok()) {
    lane.decision_hash = FnvMix(lane.decision_hash, kTagAssign);
    lane.decision_hash = FnvMix(
        lane.decision_hash, static_cast<uint64_t>(event.worker));
    FoldQuestions(lane, *selected);
    lane.open[slot] = std::move(*selected);
    ++lane.assignments;
  } else {
    lane.decision_hash = FnvMix(lane.decision_hash, kTagReject);
    lane.decision_hash = FnvMix(
        lane.decision_hash, static_cast<uint64_t>(selected.status().code()));
    ++lane.rejects;
  }
}

void ExecuteBatch(AppManager& manager, const ServingEvent& event,
                  ServingLane& lane) QASCA_REQUIRES(lane.turn_mu) {
  // Only workers without an open HIT participate; duplicates within the
  // batch are dropped. Both filters read lane state the turnstile already
  // serialises, so the filtered batch is interleaving-independent.
  std::vector<WorkerId> workers;
  for (WorkerId worker : event.batch) {
    const size_t slot = static_cast<size_t>(worker);
    if (!lane.open[slot].empty()) continue;
    if (std::find(workers.begin(), workers.end(), worker) != workers.end()) {
      continue;
    }
    workers.push_back(worker);
  }
  util::StatusOr<std::vector<util::StatusOr<std::vector<QuestionIndex>>>>
      results = manager.SubmitHitRequestBatch(event.app, workers);
  QASCA_CHECK(results.ok()) << results.status().ToString();
  ++lane.batches;
  for (size_t i = 0; i < workers.size(); ++i) {
    const util::StatusOr<std::vector<QuestionIndex>>& slot_result =
        (*results)[i];
    if (slot_result.ok()) {
      lane.decision_hash = FnvMix(lane.decision_hash, kTagAssign);
      lane.decision_hash =
          FnvMix(lane.decision_hash, static_cast<uint64_t>(workers[i]));
      FoldQuestions(lane, *slot_result);
      lane.open[static_cast<size_t>(workers[i])] = *slot_result;
      ++lane.assignments;
    } else {
      lane.decision_hash = FnvMix(lane.decision_hash, kTagReject);
      lane.decision_hash = FnvMix(
          lane.decision_hash,
          static_cast<uint64_t>(slot_result.status().code()));
      ++lane.rejects;
    }
  }
}

void ExecuteEvent(AppManager& manager, const ServingWorkloadOptions& options,
                  const ServingEvent& event, ServingLane& lane)
    QASCA_REQUIRES(lane.turn_mu) {
  switch (event.kind) {
    case ServingEvent::Kind::kServe:
      ExecuteServe(manager, options, event, lane);
      break;
    case ServingEvent::Kind::kBatch:
      ExecuteBatch(manager, event, lane);
      break;
    case ServingEvent::Kind::kTick: {
      util::StatusOr<int> expired =
          manager.AdvanceAppClock(event.app, event.ticks);
      QASCA_CHECK(expired.ok()) << expired.status().ToString();
      lane.decision_hash = FnvMix(lane.decision_hash, kTagTick);
      lane.decision_hash =
          FnvMix(lane.decision_hash, static_cast<uint64_t>(*expired));
      lane.leases_expired += *expired;
      break;
    }
    case ServingEvent::Kind::kCrashRecover: {
      util::Status status = manager.CrashAndRecoverApp(event.app);
      lane.decision_hash = FnvMix(lane.decision_hash, kTagRecover);
      lane.decision_hash =
          FnvMix(lane.decision_hash, static_cast<uint64_t>(status.code()));
      if (status.ok()) ++lane.crash_recoveries;
      break;
    }
  }
}

/// Claims events off the shared cursor and executes each behind its app's
/// turnstile. Claiming in global-schedule order means a lane's events are
/// claimed in app_seq order, so the earliest unfinished event of every
/// lane is always held by some thread — the turnstile waits cannot
/// deadlock.
void DrainEvents(AppManager& manager, const ServingWorkloadOptions& options,
                 const std::vector<ServingEvent>& events,
                 std::vector<std::unique_ptr<ServingLane>>& lanes,
                 std::atomic<size_t>& cursor) {
  for (;;) {
    const size_t index = cursor.fetch_add(1, std::memory_order_relaxed);
    if (index >= events.size()) break;
    const ServingEvent& event = events[index];
    ServingLane& lane = *lanes[static_cast<size_t>(event.app)];
    util::MutexLock lock(lane.turn_mu);
    while (lane.next_seq != event.app_seq) {
      lane.turn_cv.Wait(lane.turn_mu);
    }
    ExecuteEvent(manager, options, event, lane);
    ++lane.next_seq;
    lane.turn_cv.NotifyAll();
  }
}

}  // namespace

LabelIndex ServingAnswerFor(AppId app, WorkerId worker,
                            QuestionIndex question,
                            const ServingWorkloadOptions& options) {
  const LabelIndex truth =
      static_cast<LabelIndex>(question % options.num_labels);
  const uint64_t h = Mix(Mix(Mix(static_cast<uint64_t>(app) + 1) ^
                             (static_cast<uint64_t>(worker) + 1)) ^
                         (static_cast<uint64_t>(question) + 1));
  if (static_cast<int>(h % 100) < options.answer_accuracy_pct) {
    return truth;
  }
  return static_cast<LabelIndex>(h % static_cast<uint64_t>(
                                         options.num_labels));
}

ServingSchedule ServingSchedule::Generate(
    const ServingWorkloadOptions& options, uint64_t seed) {
  QASCA_CHECK_GT(options.apps, 0);
  QASCA_CHECK_GT(options.workers_per_app, 0);
  ServingSchedule schedule;
  schedule.apps_ = options.apps;
  // Per-app streams from per-app RNG streams, so adding an app never
  // perturbs the siblings' schedules.
  std::vector<ServingEvent> streams;
  streams.reserve(static_cast<size_t>(options.apps * options.events_per_app));
  std::vector<std::vector<ServingEvent>> per_app(
      static_cast<size_t>(options.apps));
  for (int app = 0; app < options.apps; ++app) {
    util::Rng rng(Mix(seed ^ (static_cast<uint64_t>(app) + 0x5eed)));
    auto& stream = per_app[static_cast<size_t>(app)];
    stream.reserve(static_cast<size_t>(options.events_per_app));
    for (int i = 0; i < options.events_per_app; ++i) {
      ServingEvent event;
      event.app = app;
      event.app_seq = static_cast<uint32_t>(i);
      const double u = rng.Uniform();
      if (options.crash_every > 0 && i > 0 &&
          i % options.crash_every == 0) {
        event.kind = ServingEvent::Kind::kCrashRecover;
      } else if (u < options.tick_fraction) {
        event.kind = ServingEvent::Kind::kTick;
        event.ticks = 1 + static_cast<uint64_t>(rng.UniformInt(3));
      } else if (u < options.tick_fraction + options.batch_fraction) {
        event.kind = ServingEvent::Kind::kBatch;
        event.batch.reserve(static_cast<size_t>(options.batch_size));
        for (int b = 0; b < options.batch_size; ++b) {
          event.batch.push_back(
              static_cast<WorkerId>(rng.UniformInt(options.workers_per_app)));
        }
      } else {
        event.kind = ServingEvent::Kind::kServe;
        event.worker =
            static_cast<WorkerId>(rng.UniformInt(options.workers_per_app));
      }
      stream.push_back(std::move(event));
    }
  }
  // Seeded interleave preserving per-app order: repeatedly pick a remaining
  // event uniformly across apps, weighted by how many each still has.
  util::Rng interleave(Mix(seed ^ 0x1eaf));
  std::vector<size_t> next(static_cast<size_t>(options.apps), 0);
  int remaining = options.apps * options.events_per_app;
  schedule.events_.reserve(static_cast<size_t>(remaining));
  while (remaining > 0) {
    int pick = interleave.UniformInt(remaining);
    for (int app = 0; app < options.apps; ++app) {
      const auto& stream = per_app[static_cast<size_t>(app)];
      const int left =
          static_cast<int>(stream.size() - next[static_cast<size_t>(app)]);
      if (pick < left) {
        schedule.events_.push_back(
            stream[next[static_cast<size_t>(app)]++]);
        break;
      }
      pick -= left;
    }
    --remaining;
  }
  return schedule;
}

util::Status BuildServingApps(AppManager& manager,
                              const ServingWorkloadOptions& options,
                              uint64_t seed) {
  for (int app = 0; app < options.apps; ++app) {
    AppConfig config;
    config.name = "serving_app_" + std::to_string(app);
    config.num_questions = options.num_questions;
    config.num_labels = options.num_labels;
    config.questions_per_hit = options.questions_per_hit;
    config.pay_per_hit = 1.0;
    config.budget = static_cast<double>(options.events_per_app);
    config.em_refresh_interval = options.em_refresh_interval;
    config.lease_timeout_ticks = options.lease_timeout_ticks;
    config.telemetry_enabled = options.telemetry;
    config.slo_p95_assign_ms = options.slo_p95_assign_ms;
    config.provenance_enabled = options.provenance;
    if (options.provenance) {
      // Large enough that the ring never wraps under the stress loads the
      // conformance suite runs (provenance count == assignments is one of
      // its invariants).
      config.provenance_capacity =
          options.events_per_app * (1 + options.batch_size);
    }
    if (!options.persistence_dir.empty()) {
      // AppManager appends ".app<id>" — every app still gets its own file.
      config.persistence_path = options.persistence_dir + "/journal";
    }
    AppManager::AppOptions app_options;
    app_options.config = std::move(config);
    app_options.strategy_factory = [] {
      return std::make_unique<QascaStrategy>();
    };
    app_options.seed = Mix(seed ^ (static_cast<uint64_t>(app) + 0xa550));
    util::StatusOr<AppId> id = manager.RegisterApp(std::move(app_options));
    QASCA_RETURN_IF_ERROR(id.status());
    QASCA_CHECK_EQ(*id, app);
  }
  return util::Status::Ok();
}

ServingRunResult RunServingSchedule(AppManager& manager,
                                    const ServingSchedule& schedule,
                                    const ServingWorkloadOptions& options,
                                    int num_threads) {
  QASCA_CHECK_GE(num_threads, 1);
  std::vector<std::unique_ptr<ServingLane>> lanes;
  lanes.reserve(static_cast<size_t>(schedule.apps()));
  for (int app = 0; app < schedule.apps(); ++app) {
    auto lane = std::make_unique<ServingLane>();
    {
      util::MutexLock lock(lane->turn_mu);
      lane->open.resize(static_cast<size_t>(options.workers_per_app));
    }
    lanes.push_back(std::move(lane));
  }
  std::atomic<size_t> cursor{0};
  util::Stopwatch stopwatch;
  if (num_threads == 1) {
    DrainEvents(manager, options, schedule.events(), lanes, cursor);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(num_threads));
    for (int t = 0; t < num_threads; ++t) {
      threads.emplace_back([&] {
        DrainEvents(manager, options, schedule.events(), lanes, cursor);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  ServingRunResult result;
  result.elapsed_seconds = stopwatch.ElapsedSeconds();
  for (int app = 0; app < schedule.apps(); ++app) {
    ServingLane& lane = *lanes[static_cast<size_t>(app)];
    util::MutexLock lock(lane.turn_mu);
    result.decision_hashes.push_back(lane.decision_hash);
    result.assignments += lane.assignments;
    result.completions += lane.completions;
    result.rejects += lane.rejects;
    result.leases_expired += lane.leases_expired;
    result.crash_recoveries += lane.crash_recoveries;
    result.batches += lane.batches;
    util::StatusOr<uint64_t> fingerprint = manager.AppStateFingerprint(app);
    QASCA_CHECK(fingerprint.ok()) << fingerprint.status().ToString();
    result.fingerprints.push_back(*fingerprint);
  }
  return result;
}

}  // namespace qasca
