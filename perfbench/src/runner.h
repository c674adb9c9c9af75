#ifndef QASCA_PERFBENCH_RUNNER_H_
#define QASCA_PERFBENCH_RUNNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "leaf.h"
#include "platform/app_manager.h"
#include "replay.h"
#include "workload.h"

namespace perfbench {

/// One closed-loop repetition of a workload through AppManager: register
/// the apps, run the warm-up prefix, run the timed phase (one client
/// thread per app) and check the outputs.
struct RepResult {
  /// Registration plus the warm-up prefix.
  double setup_s = 0.0;
  /// First client's start to last client's end of the timed phase.
  double timed_s = 0.0;
  /// Requests (batched ones counted singly) plus completion calls served
  /// in the timed phase, all apps together.
  int64_t timed_events = 0;
  /// Client loop wall time and the part of it spent inside serving calls,
  /// summed over clients (timed phase).
  double loop_s = 0.0;
  double busy_s = 0.0;
  /// Mean over apps of Accuracy* / F-score* against ground truth.
  double quality = 0.0;
  /// Per app: the rung-1 spans, selections and decision hash.
  std::vector<AppTrace> traces;
};

/// A repetition's AppManager, kept after the repetition with its apps'
/// whole journaled histories, for RecoverRound.
struct Hosted {
  std::unique_ptr<qasca::AppManager> manager;
  std::vector<qasca::AppId> ids;
};

/// Runs one repetition with its journals under `journal_dir` (created
/// here). Without `keep` the manager and `journal_dir` are removed at the
/// end; with it the apps journal even when the workload runs without
/// persistence, the manager moves into `*keep`, and `journal_dir` stays
/// for it. Outcome and output checks are counted in `tally`.
RepResult RunRep(const Workload& workload, const std::string& journal_dir,
                 Hosted* keep, Tally* tally);

/// Crash-recovers every app of `hosted` at once, one thread per app, and
/// checks that each recovered state is the state that crashed. Returns
/// each app's CrashAndRecoverApp time in seconds.
std::vector<double> RecoverRound(const Workload& workload,
                                 const Hosted& hosted, Tally* tally);

/// Requests and completion calls in app.events[begin, end).
int64_t ServedEvents(const App& app, size_t begin, size_t end);

/// The traced replay down rungs 1-4 and the direct journal and recovery
/// timings, app by app on one thread.
struct LadderResult {
  /// Per rung, per app.
  std::vector<AppTrace> manager, engine, core, leaf;
  LeafTimes leaf_times;
  std::vector<double> append_us;
  int64_t journal_bytes = 0;
  int64_t journal_appends = 0;
  std::vector<double> load_ms;  // per app
  int64_t replayed_events = 0;
  double replay_s = 0.0;
};

LadderResult RunLadder(const Workload& workload, const std::string& dir,
                       Tally* tally);

}  // namespace perfbench

#endif  // QASCA_PERFBENCH_RUNNER_H_
