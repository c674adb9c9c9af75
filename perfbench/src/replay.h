#ifndef QASCA_PERFBENCH_REPLAY_H_
#define QASCA_PERFBENCH_REPLAY_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "platform/app_manager.h"
#include "platform/assignment_core.h"
#include "platform/engine.h"
#include "platform/qasca_strategy.h"
#include "util/status.h"
#include "util/telemetry.h"
#include "workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Operations attempted and failed, plus the first few failure messages.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;

  /// Counts one checked outcome; returns `ok` so the caller builds a
  /// message only for a failure.
  bool Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
    return ok;
  }
  void Note(std::string what) {
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& e : other.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
  }
};

/// What one replay of one app's event list produced: the time of every
/// call (the benchmark's span around it; 0 for events this rung does not
/// serve), every selection, and the decision hash over them in order.
struct AppTrace {
  std::vector<double> event_ms;
  std::vector<std::vector<QuestionIndex>> selections;  // per slot
  uint64_t hash = kFnvOffset;
};

/// The config as the engine shell hands it to its core: EM fits the
/// configured worker model.
inline qasca::AppConfig ShellConfig(qasca::AppConfig config) {
  config.em.worker_kind = config.worker_kind;
  return config;
}

inline std::unique_ptr<qasca::AssignmentStrategy> MakeStrategy(
    const qasca::AppConfig& config) {
  return std::make_unique<qasca::QascaStrategy>(config.qw_mode);
}

// ---------------------------------------------------------------------------
// Rung targets: each exposes the app's serving calls at one layer.
// Shell targets (rungs 1 and 2) see every event; below the serving shell
// duplicate and late completions never reach a layer, and an expiring lease
// is a release of the HIT's questions.

/// Rung 1: AppManager::Submit* and AdvanceAppClock.
class ManagerTarget {
 public:
  static constexpr bool kShell = true;
  ManagerTarget(qasca::AppManager* manager, qasca::AppId app)
      : manager_(manager), app_(app) {}

  qasca::util::StatusOr<std::vector<QuestionIndex>> Request(WorkerId worker) {
    return manager_->SubmitHitRequest(app_, worker);
  }
  std::vector<qasca::util::StatusOr<std::vector<QuestionIndex>>> Batch(
      const std::vector<WorkerId>& workers) {
    auto batch = manager_->SubmitHitRequestBatch(app_, workers);
    if (!batch.ok()) {
      return std::vector<qasca::util::StatusOr<std::vector<QuestionIndex>>>(
          workers.size(), batch.status());
    }
    return std::move(*batch);
  }
  qasca::util::Status Complete(WorkerId worker,
                               const std::vector<QuestionIndex>& /*questions*/,
                               const std::vector<LabelIndex>& labels) {
    return manager_->SubmitHitCompletion(app_, worker, labels);
  }
  qasca::util::StatusOr<int> Tick(
      const std::vector<std::pair<WorkerId, const std::vector<QuestionIndex>*>>&
      /*expiring*/) {
    return manager_->AdvanceAppClock(app_, 1);
  }

 private:
  qasca::AppManager* manager_;
  qasca::AppId app_;
};

/// Rung 2: a standalone TaskAssignmentEngine.
class EngineTarget {
 public:
  static constexpr bool kShell = true;
  EngineTarget(const qasca::AppConfig& config, uint64_t seed)
      : engine_(config, MakeStrategy(config), seed) {}

  qasca::util::StatusOr<std::vector<QuestionIndex>> Request(WorkerId worker) {
    return engine_.RequestHit(worker);
  }
  std::vector<qasca::util::StatusOr<std::vector<QuestionIndex>>> Batch(
      const std::vector<WorkerId>& workers) {
    return engine_.ServeRequestBatch(workers);
  }
  qasca::util::Status Complete(WorkerId worker,
                               const std::vector<QuestionIndex>& /*questions*/,
                               const std::vector<LabelIndex>& labels) {
    return engine_.CompleteHit(worker, labels);
  }
  qasca::util::StatusOr<int> Tick(
      const std::vector<std::pair<WorkerId, const std::vector<QuestionIndex>*>>&
      /*expiring*/) {
    return engine_.Tick(1);
  }
  const qasca::TaskAssignmentEngine& engine() const { return engine_; }

 private:
  qasca::TaskAssignmentEngine engine_;
};

/// Rung 3: a standalone AssignmentCore (Decide + CommitAssignment,
/// ApplyCompletion, ReleaseAssignment).
class CoreTarget {
 public:
  static constexpr bool kShell = false;
  CoreTarget(const qasca::AppConfig& config, uint64_t seed)
      : config_(ShellConfig(config)),
        core_(&config_, MakeStrategy(config_), seed, &registry_) {}
  CoreTarget(const CoreTarget&) = delete;
  CoreTarget& operator=(const CoreTarget&) = delete;

  qasca::util::StatusOr<std::vector<QuestionIndex>> Request(WorkerId worker) {
    auto decision = core_.Decide(worker, nullptr);
    if (!decision.ok()) return decision.status();
    core_.CommitAssignment(worker, decision->questions);
    return std::move(decision->questions);
  }
  std::vector<qasca::util::StatusOr<std::vector<QuestionIndex>>> Batch(
      const std::vector<WorkerId>& workers) {
    core_.WarmSharedState();
    std::vector<qasca::util::StatusOr<std::vector<QuestionIndex>>> results;
    results.reserve(workers.size());
    for (WorkerId worker : workers) results.push_back(Request(worker));
    return results;
  }
  qasca::util::Status Complete(WorkerId worker,
                               const std::vector<QuestionIndex>& questions,
                               const std::vector<LabelIndex>& labels) {
    core_.ApplyCompletion(worker, questions, labels);
    return qasca::util::Status::Ok();
  }
  qasca::util::StatusOr<int> Tick(
      const std::vector<std::pair<WorkerId, const std::vector<QuestionIndex>*>>&
          expiring) {
    for (const auto& [worker, questions] : expiring) {
      core_.ReleaseAssignment(worker, *questions);
    }
    return static_cast<int>(expiring.size());
  }

 private:
  // Declared before core_, which keeps pointers to both.
  qasca::AppConfig config_;
  qasca::util::MetricRegistry registry_{false};
  qasca::AssignmentCore core_;
};

/// Replays app.events[begin, end) against `target`, timing every call into
/// trace->event_ms and checking each outcome against the script. The
/// client's own work (answers, bookkeeping) runs outside the timed spans.
/// `last_labels` holds each worker's last accepted completion.
template <typename Target>
void Replay(const App& app, size_t begin, size_t end, Target& target,
            AppTrace* trace, std::vector<std::vector<LabelIndex>>* last_labels,
            Tally* tally) {
  using Kind = Event::Kind;
  std::vector<WorkerId> workers;
  std::vector<std::pair<WorkerId, const std::vector<QuestionIndex>*>> expiring;
  const auto fail = [&](size_t e, const std::string& what) {
    tally->Note(app.name + " event " + std::to_string(e) + " " + what);
  };
  for (size_t e = begin; e < end; ++e) {
    const Event& event = app.events[e];
    const WorkerId worker = app.slots[static_cast<size_t>(event.slot)].worker;
    std::vector<QuestionIndex>& selection =
        trace->selections[static_cast<size_t>(event.slot)];
    std::vector<LabelIndex>& last = (*last_labels)[static_cast<size_t>(worker)];
    double& ms = trace->event_ms[e];
    switch (event.kind) {
      case Kind::kRequest: {
        const Clock::time_point start = Clock::now();
        auto result = target.Request(worker);
        ms = MsSince(start);
        if (!tally->Check(result.ok())) {
          fail(e, "request: " + result.status().ToString());
          break;
        }
        selection = std::move(*result);
        trace->hash = FoldSelection(trace->hash, worker, selection);
        break;
      }
      case Kind::kBatch: {
        workers.clear();
        for (int i = 0; i < event.count; ++i) {
          workers.push_back(
              app.slots[static_cast<size_t>(event.slot + i)].worker);
        }
        const Clock::time_point start = Clock::now();
        auto results = target.Batch(workers);
        ms = MsSince(start);
        for (int i = 0; i < event.count; ++i) {
          auto& result = results[static_cast<size_t>(i)];
          if (!tally->Check(result.ok())) {
            fail(e, "batch: " + result.status().ToString());
            continue;
          }
          std::vector<QuestionIndex>& chosen =
              trace->selections[static_cast<size_t>(event.slot + i)];
          chosen = std::move(*result);
          trace->hash = FoldSelection(
              trace->hash, workers[static_cast<size_t>(i)], chosen);
        }
        break;
      }
      case Kind::kComplete: {
        std::vector<LabelIndex> labels = Answers(app, worker, selection);
        const Clock::time_point start = Clock::now();
        qasca::util::Status status =
            target.Complete(worker, selection, labels);
        ms = MsSince(start);
        if (!tally->Check(status.ok())) {
          fail(e, "completion: " + status.ToString());
        }
        last = std::move(labels);
        break;
      }
      case Kind::kDuplicate:
      case Kind::kLate: {
        if constexpr (!Target::kShell) break;
        const bool late = event.kind == Kind::kLate;
        const std::vector<LabelIndex> labels =
            late ? LateAnswers(app, worker, selection, last) : last;
        const Clock::time_point start = Clock::now();
        qasca::util::Status status =
            target.Complete(worker, selection, labels);
        ms = MsSince(start);
        const auto expected =
            late ? qasca::util::StatusCode::kFailedPrecondition
                 : qasca::util::StatusCode::kAlreadyExists;
        if (!tally->Check(status.code() == expected)) {
          fail(e, std::string(late ? "late completion: " : "duplicate: ") +
                      status.ToString());
        }
        break;
      }
      case Kind::kTick: {
        // The script puts the step's late completions right after its tick,
        // one per abandoned slot.
        expiring.clear();
        for (int i = 1; i <= event.count; ++i) {
          const int late = app.events[e + static_cast<size_t>(i)].slot;
          expiring.emplace_back(app.slots[static_cast<size_t>(late)].worker,
                                &trace->selections[static_cast<size_t>(late)]);
        }
        // The engine expires leases in ascending worker order.
        std::sort(
            expiring.begin(), expiring.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
        const Clock::time_point start = Clock::now();
        auto expired = target.Tick(expiring);
        ms = MsSince(start);
        if (!tally->Check(expired.ok() && *expired == event.count)) {
          fail(e, "tick expired " +
                      (expired.ok() ? std::to_string(*expired)
                                    : expired.status().ToString()) +
                      ", scripted " + std::to_string(event.count));
        }
        break;
      }
    }
  }
}

}  // namespace perfbench

#endif  // QASCA_PERFBENCH_REPLAY_H_
