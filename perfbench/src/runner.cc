#include "runner.h"

#include <barrier>
#include <filesystem>
#include <thread>

#include "platform/engine.h"
#include "platform/journal.h"

namespace perfbench {
namespace {

using qasca::AppManager;

constexpr size_t kLadderBlock = 16;

AppManager::AppOptions OptionsFor(const App& app, bool journal,
                                  const std::string& journal_dir) {
  AppManager::AppOptions options;
  options.config = app.config;
  if (journal) {
    // AppManager suffixes ".app<id>" per app.
    options.config.persistence_path = journal_dir + "/journal";
  }
  options.strategy_factory = [config = app.config] {
    return MakeStrategy(config);
  };
  options.seed = app.seed;
  return options;
}

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void CheckCounts(const App& app, const AppManager::AppStats& stats,
                 Tally* tally) {
  const auto check = [&](bool ok, const std::string& what) {
    if (!tally->Check(ok)) tally->Note(app.name + ": " + what);
  };
  check(stats.assigned_hits == stats.completed_hits + stats.open_hits,
        "assigned " + std::to_string(stats.assigned_hits) + " != completed " +
            std::to_string(stats.completed_hits) + " + open " +
            std::to_string(stats.open_hits));
  check(stats.completed_hits == app.completions && stats.open_hits == 0,
        "completed " + std::to_string(stats.completed_hits) + ", open " +
            std::to_string(stats.open_hits) + ", scripted " +
            std::to_string(app.completions) + " completions");
  check(stats.leases_expired == app.abandons,
        "leases expired " + std::to_string(stats.leases_expired) +
            ", scripted " + std::to_string(app.abandons));
  check(stats.late_completions_rejected == app.abandons,
        "late completions rejected " +
            std::to_string(stats.late_completions_rejected) + ", scripted " +
            std::to_string(app.abandons));
  check(stats.duplicates_dropped == app.duplicates,
        "duplicates dropped " + std::to_string(stats.duplicates_dropped) +
            ", scripted " + std::to_string(app.duplicates));
}

// Appends to `journal` exactly the events the engine journals for app's
// event list, with the selections a run decided; `append_us` receives each
// append's time.
void WriteJournal(const App& app,
                  const std::vector<std::vector<QuestionIndex>>& selections,
                  qasca::LifecycleJournal* journal,
                  std::vector<double>* append_us, Tally* tally) {
  const auto append = [&](auto&& call) {
    const Clock::time_point start = Clock::now();
    qasca::util::Status status = call();
    append_us->push_back(MsSince(start) * 1e3);
    if (!tally->Check(status.ok())) {
      tally->Note(app.name + ": journal append " + status.ToString());
    }
  };
  for (const Event& event : app.events) {
    const WorkerId worker = app.slots[static_cast<size_t>(event.slot)].worker;
    switch (event.kind) {
      case Event::Kind::kRequest:
      case Event::Kind::kBatch:
        for (int i = event.slot; i < event.slot + event.count; ++i) {
          append([&] {
            return journal->AppendAssign(
                app.slots[static_cast<size_t>(i)].worker,
                selections[static_cast<size_t>(i)]);
          });
        }
        break;
      case Event::Kind::kComplete: {
        const std::vector<LabelIndex> labels =
            Answers(app, worker, selections[static_cast<size_t>(event.slot)]);
        append([&] { return journal->AppendComplete(worker, labels); });
        break;
      }
      case Event::Kind::kTick:
        append([&] { return journal->AppendTick(1); });
        break;
      case Event::Kind::kDuplicate:
      case Event::Kind::kLate:
        break;  // rejected before the engine journals anything
    }
  }
}

// Recovers a fresh engine from the journal at `prefix` and checks it
// reaches `fingerprint`; returns the seconds TaskAssignmentEngine::Recover
// took.
double RecoverFromJournal(const App& app, const std::string& prefix,
                          uint64_t fingerprint, Tally* tally) {
  qasca::AppConfig config = app.config;
  config.persistence_path = prefix;
  qasca::TaskAssignmentEngine engine(config, MakeStrategy(app.config),
                                     app.seed);
  const Clock::time_point start = Clock::now();
  qasca::util::Status status = engine.Recover();
  const double seconds = SecondsBetween(start, Clock::now());
  if (!tally->Check(status.ok())) {
    tally->Note(app.name + ": Recover " + status.ToString());
  }
  if (!tally->Check(engine.StateFingerprint() == fingerprint)) {
    tally->Note(app.name + ": recovered fingerprint differs from the run's");
  }
  return seconds;
}

}  // namespace

int64_t ServedEvents(const App& app, size_t begin, size_t end) {
  int64_t served = 0;
  for (size_t e = begin; e < end; ++e) {
    const Event& event = app.events[e];
    if (event.kind != Event::Kind::kTick) served += event.count;
  }
  return served;
}

RepResult RunRep(const Workload& workload, const std::string& journal_dir,
                 Hosted* keep, Tally* tally) {
  namespace fs = std::filesystem;
  fs::create_directories(journal_dir);
  const size_t num_apps = workload.apps.size();
  RepResult rep;
  rep.traces.resize(num_apps);
  std::vector<Tally> tallies(num_apps);
  std::vector<Clock::time_point> starts(num_apps), ends(num_apps);
  // Recovery replays the journal, so a kept repetition journals even on a
  // workload without persistence.
  const bool journal = workload.persistence || keep != nullptr;
  {
    const Clock::time_point setup_start = Clock::now();
    auto owned = std::make_unique<AppManager>();
    AppManager& manager = *owned;
    std::vector<qasca::AppId> ids;
    for (const App& app : workload.apps) {
      auto id = manager.RegisterApp(OptionsFor(app, journal, journal_dir));
      if (!tally->Check(id.ok())) {
        tally->Note(app.name + ": RegisterApp " + id.status().ToString());
        std::error_code ignored;
        fs::remove_all(journal_dir, ignored);
        return rep;
      }
      ids.push_back(*id);
    }
    std::barrier warmed(static_cast<std::ptrdiff_t>(num_apps + 1));
    std::vector<std::thread> clients;
    for (size_t a = 0; a < num_apps; ++a) {
      clients.emplace_back([&, a] {
        const App& app = workload.apps[a];
        AppTrace& trace = rep.traces[a];
        trace.event_ms.assign(app.events.size(), 0.0);
        trace.selections.assign(app.slots.size(), {});
        std::vector<std::vector<LabelIndex>> last(app.crowd.size());
        ManagerTarget target(&manager, ids[a]);
        Replay(app, 0, app.warmup_events, target, &trace, &last, &tallies[a]);
        warmed.arrive_and_wait();
        starts[a] = Clock::now();
        Replay(app, app.warmup_events, app.events.size(), target, &trace,
               &last, &tallies[a]);
        ends[a] = Clock::now();
      });
    }
    warmed.arrive_and_wait();
    rep.setup_s = SecondsBetween(setup_start, Clock::now());
    for (std::thread& client : clients) client.join();
    for (const Tally& t : tallies) tally->Merge(t);

    Clock::time_point first = starts[0], last = ends[0];
    for (size_t a = 0; a < num_apps; ++a) {
      const App& app = workload.apps[a];
      first = std::min(first, starts[a]);
      last = std::max(last, ends[a]);
      rep.loop_s += SecondsBetween(starts[a], ends[a]);
      for (size_t e = app.warmup_events; e < app.events.size(); ++e) {
        rep.busy_s += rep.traces[a].event_ms[e] * 1e-3;
      }
      rep.timed_events +=
          ServedEvents(app, app.warmup_events, app.events.size());

      auto stats = manager.StatsFor(ids[a]);
      if (tally->Check(stats.ok())) {
        CheckCounts(app, *stats, tally);
      } else {
        tally->Note(app.name + ": StatsFor " + stats.status().ToString());
      }
      double quality = 0.0;
      qasca::util::Status inspected = manager.InspectApp(
          ids[a], [&](const qasca::TaskAssignmentEngine& engine) {
            quality = engine.QualityAgainstTruth(app.truth);
          });
      if (!tally->Check(inspected.ok())) {
        tally->Note(app.name + ": InspectApp " + inspected.ToString());
      }
      rep.quality += quality / static_cast<double>(num_apps);
    }
    rep.timed_s = SecondsBetween(first, last);
    if (keep != nullptr) {
      keep->manager = std::move(owned);
      keep->ids = std::move(ids);
      return rep;
    }
  }
  std::error_code ignored;
  fs::remove_all(journal_dir, ignored);
  return rep;
}

std::vector<double> RecoverRound(const Workload& workload,
                                 const Hosted& hosted, Tally* tally) {
  const size_t num_apps = workload.apps.size();
  std::vector<double> seconds(num_apps, 0.0);
  std::vector<Tally> tallies(num_apps);
  std::vector<std::thread> threads;
  for (size_t a = 0; a < num_apps; ++a) {
    threads.emplace_back([&, a] {
      const std::string& name = workload.apps[a].name;
      const qasca::AppId id = hosted.ids[a];
      Tally& t = tallies[a];
      auto before = hosted.manager->AppStateFingerprint(id);
      const Clock::time_point start = Clock::now();
      qasca::util::Status recovered = hosted.manager->CrashAndRecoverApp(id);
      seconds[a] = SecondsBetween(start, Clock::now());
      auto after = hosted.manager->AppStateFingerprint(id);
      if (!t.Check(recovered.ok())) {
        t.Note(name + ": CrashAndRecoverApp " + recovered.ToString());
      }
      if (!t.Check(before.ok() && after.ok() && *before == *after)) {
        t.Note(name + ": state fingerprint changed across recovery");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Tally& t : tallies) tally->Merge(t);
  return seconds;
}

namespace {

// One app's share of the ladder, written only by that app's thread.
struct AppLadder {
  AppTrace manager, engine, core, leaf;
  LeafTimes leaf_times;
  std::vector<double> append_us;
  int64_t journal_bytes = 0;
  double load_ms = 0.0;
  int64_t replayed_events = 0;
  double replay_s = 0.0;
  Tally tally;
};

AppTrace FreshTrace(const App& app) {
  AppTrace trace;
  trace.event_ms.assign(app.events.size(), 0.0);
  trace.selections.assign(app.slots.size(), {});
  return trace;
}

template <typename T>
void Append(std::vector<T>* to, const std::vector<T>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

void AppendLeafTimes(LeafTimes* to, const LeafTimes& from) {
  Append(&to->candidates_ms, from.candidates_ms);
  Append(&to->candidates, from.candidates);
  Append(&to->qw_ms, from.qw_ms);
  Append(&to->topk_ms, from.topk_ms);
  Append(&to->dinkelbach_ms, from.dinkelbach_ms);
  Append(&to->dinkelbach_iters, from.dinkelbach_iters);
  Append(&to->refresh_ms, from.refresh_ms);
  Append(&to->refit_ms, from.refit_ms);
  Append(&to->em_iterations, from.em_iterations);
  Append(&to->refit_flags, from.refit_flags);
  Append(&to->qw_serial_ms, from.qw_serial_ms);
  Append(&to->qw_pooled_ms, from.qw_pooled_ms);
  Append(&to->topk_serial_ms, from.topk_serial_ms);
  Append(&to->topk_pooled_ms, from.topk_pooled_ms);
  Append(&to->em_serial_ms, from.em_serial_ms);
  Append(&to->em_pooled_ms, from.em_pooled_ms);
  Append(&to->whatif_topk_ms, from.whatif_topk_ms);
  Append(&to->whatif_dinkelbach_ms, from.whatif_dinkelbach_ms);
  Append(&to->whatif_dinkelbach_iters, from.whatif_dinkelbach_iters);
  Append(&to->whatif_refresh_ms, from.whatif_refresh_ms);
}

// Rungs 1-4 for one app, then its journal and recovery timings.
void LadderApp(const Workload& workload, const App& app,
               const std::string& prefix, AppLadder* out) {
  namespace fs = std::filesystem;
  Tally* tally = &out->tally;
  // All four rungs replay the app's events in blocks of kLadderBlock,
  // rung after rung, so a paired difference compares calls made within
  // moments of each other: host speed drifts over seconds, and rungs
  // replayed one whole pass after another would measure that drift.
  // Rung 1 gets an AppManager of its own, hosting only this app.
  AppManager manager;
  fs::create_directories(prefix + ".manager");
  auto id = manager.RegisterApp(
      OptionsFor(app, workload.persistence, prefix + ".manager"));
  if (!tally->Check(id.ok())) {
    tally->Note(app.name + ": RegisterApp " + id.status().ToString());
    return;
  }
  ManagerTarget rung1(&manager, *id);
  // Rung 2 journals like the app when the workload persists.
  qasca::AppConfig engine_config = app.config;
  if (workload.persistence) {
    engine_config.persistence_path = prefix + ".engine";
  }
  EngineTarget rung2(engine_config, app.seed);
  CoreTarget rung3(app.config, app.seed);
  LeafTarget rung4(app.config, app.seed, &out->leaf_times, /*probe=*/false);
  for (AppTrace* trace : {&out->manager, &out->engine, &out->core,
                          &out->leaf}) {
    *trace = FreshTrace(app);
  }
  std::vector<std::vector<std::vector<LabelIndex>>> last(
      4, std::vector<std::vector<LabelIndex>>(app.crowd.size()));
  for (size_t begin = 0; begin < app.events.size(); begin += kLadderBlock) {
    const size_t end = std::min(begin + kLadderBlock, app.events.size());
    Replay(app, begin, end, rung1, &out->manager, &last[0], tally);
    Replay(app, begin, end, rung2, &out->engine, &last[1], tally);
    Replay(app, begin, end, rung3, &out->core, &last[2], tally);
    Replay(app, begin, end, rung4, &out->leaf, &last[3], tally);
  }
  const uint64_t engine_fingerprint = rung2.engine().StateFingerprint();

  // The journal, timed directly on a scratch journal that receives
  // exactly the appends the engine makes for this event list.
  const std::string scratch = prefix + ".scratch";
  {
    qasca::LifecycleJournal journal(scratch);
    WriteJournal(app, out->engine.selections, &journal, &out->append_us,
                 tally);
  }
  std::error_code size_error;
  out->journal_bytes =
      static_cast<int64_t>(fs::file_size(scratch + ".log", size_error));
  {
    const Clock::time_point start = Clock::now();
    qasca::LifecycleJournal loaded(scratch);
    out->load_ms = MsSince(start);
    out->replayed_events = static_cast<int64_t>(loaded.events().size());
  }
  out->replay_s = RecoverFromJournal(app, scratch, engine_fingerprint, tally);
}

}  // namespace

LadderResult RunLadder(const Workload& workload, const std::string& dir,
                       Tally* tally) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  // One thread per app, as in the timed phase, so the rungs see the same
  // load on the host's cores as the untraced run.
  std::vector<AppLadder> apps(workload.apps.size());
  {
    std::vector<std::thread> threads;
    for (size_t a = 0; a < workload.apps.size(); ++a) {
      threads.emplace_back([&, a] {
        LadderApp(workload, workload.apps[a],
                  dir + "/app" + std::to_string(a), &apps[a]);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  LadderResult ladder;
  for (AppLadder& app : apps) {
    ladder.manager.push_back(std::move(app.manager));
    ladder.engine.push_back(std::move(app.engine));
    ladder.core.push_back(std::move(app.core));
    ladder.leaf.push_back(std::move(app.leaf));
    AppendLeafTimes(&ladder.leaf_times, app.leaf_times);
    Append(&ladder.append_us, app.append_us);
    ladder.journal_bytes += app.journal_bytes;
    ladder.journal_appends += static_cast<int64_t>(app.append_us.size());
    ladder.load_ms.push_back(app.load_ms);
    ladder.replayed_events += app.replayed_events;
    ladder.replay_s += app.replay_s;
    tally->Merge(app.tally);
  }
  // The thread-pool and what-if probes get a pass of their own, on the
  // first app alone, so that neither their time nor their cache traffic
  // lands in a timed rung and the 4-thread probe pool has the cores.
  const App& app = workload.apps[0];
  LeafTimes probe_times;
  LeafTarget probe(app.config, app.seed, &probe_times, /*probe=*/true);
  AppTrace probe_trace = FreshTrace(app);
  std::vector<std::vector<LabelIndex>> last(app.crowd.size());
  Replay(app, 0, app.events.size(), probe, &probe_trace, &last, tally);
  LeafTimes& times = ladder.leaf_times;
  Append(&times.qw_serial_ms, probe_times.qw_serial_ms);
  Append(&times.qw_pooled_ms, probe_times.qw_pooled_ms);
  Append(&times.topk_serial_ms, probe_times.topk_serial_ms);
  Append(&times.topk_pooled_ms, probe_times.topk_pooled_ms);
  Append(&times.em_serial_ms, probe_times.em_serial_ms);
  Append(&times.em_pooled_ms, probe_times.em_pooled_ms);
  Append(&times.whatif_topk_ms, probe_times.whatif_topk_ms);
  Append(&times.whatif_dinkelbach_ms, probe_times.whatif_dinkelbach_ms);
  Append(&times.whatif_dinkelbach_iters, probe_times.whatif_dinkelbach_iters);
  Append(&times.whatif_refresh_ms, probe_times.whatif_refresh_ms);
  std::error_code ignored;
  fs::remove_all(dir, ignored);
  return ladder;
}

}  // namespace perfbench
