#ifndef QASCA_PERFBENCH_WORKLOAD_H_
#define QASCA_PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"
#include "platform/app_config.h"
#include "simulation/dataset.h"
#include "simulation/simulated_worker.h"

namespace perfbench {

using qasca::LabelIndex;
using qasca::QuestionIndex;
using qasca::WorkerId;

/// One scripted HIT: the worker who asks for it and what the script makes
/// the worker do with it.
struct Slot {
  WorkerId worker = 0;
  /// Never completed: the client advances the app's clock, the lease
  /// (timeout 1 tick) expires, and the worker's late completion follows.
  bool abandon = false;
  /// The completion is delivered twice; the second copy must be dropped.
  bool duplicate = false;
};

/// One call a client makes on one app, in issue order. Every rung of the
/// traced run replays exactly this list.
struct Event {
  enum class Kind : uint8_t {
    kRequest,    // SubmitHitRequest for slots[slot]
    kBatch,      // SubmitHitRequestBatch for slots[slot, slot + count)
    kComplete,   // accepted completion of slots[slot]
    kDuplicate,  // redelivery of slots[slot]'s completion
    kTick,       // AdvanceAppClock(1); `count` leases must expire
    kLate,       // completion of the abandoned slots[slot], after expiry
  };
  Kind kind = Kind::kRequest;
  int slot = 0;
  int count = 1;
};

/// One hosted application: its configuration, the hidden crowd and ground
/// truth that answer its HITs, and the client's pre-built event script.
struct App {
  std::string name;
  /// persistence_path is left empty; the runner points it at its private
  /// journal directory when the workload persists.
  qasca::AppConfig config;
  /// Seed of the app's decision RNG stream (AppManager::AppOptions::seed).
  uint64_t seed = 0;
  qasca::GroundTruthVector truth;
  std::vector<double> difficulty;
  /// Indexed by worker id.
  std::vector<qasca::SimulatedWorker> crowd;
  uint64_t answer_seed = 0;
  std::vector<Slot> slots;
  std::vector<Event> events;
  /// events[0, warmup_events) are the untimed warm-up prefix.
  size_t warmup_events = 0;
  /// Scripted totals over the whole event list.
  int requests = 0;
  int completions = 0;
  int abandons = 0;
  int duplicates = 0;
  int batches = 0;
};

struct Workload {
  /// Whether each app journals to disk (and is crash-recovered after every
  /// timed phase).
  bool persistence = false;
  std::vector<App> apps;
};

/// Builds workload `name` from `seed`: configs, crowds, ground truth and
/// every client's event script. Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

/// App `index` of a workload built from `seed`, from one of the paper's
/// application recipes (Table 1) via MakeAppConfig: config, crowd, ground
/// truth and answer stream, no script.
App PaperApp(const qasca::ApplicationSpec& spec, uint64_t seed, int index);

/// pool_1e5's application with `questions` questions and a budget of
/// `hits` HITs: l=2, k=20, WP EM (15 iterations), and a crowd of 30 WP
/// workers of quality 0.75. No script; serving knobs (refresh interval,
/// threads) are left at their defaults.
App PoolApp(int questions, int hits, const qasca::MetricSpec& metric,
            uint64_t seed);

/// The labels `worker` gives for `questions` in `app`: each one a pure
/// function of (seed, app, worker, question), so answers never depend on
/// thread interleaving.
std::vector<LabelIndex> Answers(const App& app, WorkerId worker,
                                const std::vector<QuestionIndex>& questions);

/// The labels of a late completion: the worker's answers, with the first
/// label shifted when they would equal `previous` (the worker's last
/// accepted completion). The engine drops a completion whose labels hash
/// like the last accepted one as a duplicate before it checks for expiry,
/// and the script plans a late rejection here, not a duplicate.
std::vector<LabelIndex> LateAnswers(const App& app, WorkerId worker,
                                    const std::vector<QuestionIndex>& questions,
                                    const std::vector<LabelIndex>& previous);

/// SplitMix64 finaliser of (a, b): derives independent seeds.
uint64_t MixSeed(uint64_t a, uint64_t b);

/// Start value of a decision hash (FNV-1a offset basis).
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
/// Folds one selection (worker, then each question) into an FNV-1a
/// decision hash.
uint64_t FoldSelection(uint64_t hash, WorkerId worker,
                       const std::vector<QuestionIndex>& questions);

}  // namespace perfbench

#endif  // QASCA_PERFBENCH_WORKLOAD_H_
