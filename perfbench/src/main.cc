// Closed-loop QASCA benchmark. See perfbench/README.md.
//
//   qasca_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--work-dir DIR]
//   qasca_perfbench --repro-drift APP [--interval N] [--questions N]
//                   [--seed N]
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit code is 0 only when every output check passed.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "platform/engine.h"
#include "runner.h"
#include "simulation/dataset.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

// A trace-0 run repeats the workload until --seconds of timed repetitions
// have run, and at least this many, reporting medians over repetitions.
constexpr int kMinTimedReps = 3;
constexpr int kMaxTimedReps = 50;
// --repro-drift runs the pool-* apps for this many HITs.
constexpr int kReproHits = 3000;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Human-readable note printed after the value (share, "n/a", ...).
  std::string note;
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double index = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(index);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = index - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

template <typename T>
std::vector<double> AsDoubles(const std::vector<T>& values) {
  return std::vector<double>(values.begin(), values.end());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string Fmt(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

// The peak resident set of this process image. getrusage's ru_maxrss is
// not used: Linux carries it across execve, so it would report the peak of
// the launching process when that was larger.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Latency samples of app `a`'s timed phase in one rep: a batched request
/// counts the latency of its whole batch call.
void TimedSamples(const App& app, const AppTrace& trace,
                  std::vector<double>* assign_ms,
                  std::vector<double>* complete_ms) {
  for (size_t e = app.warmup_events; e < app.events.size(); ++e) {
    const double ms = trace.event_ms[e];
    switch (app.events[e].kind) {
      case Event::Kind::kRequest:
      case Event::Kind::kBatch:
        assign_ms->insert(assign_ms->end(),
                          static_cast<size_t>(app.events[e].count), ms);
        break;
      case Event::Kind::kComplete:
        complete_ms->push_back(ms);
        break;
      default:
        break;
    }
  }
}

/// Every timed rep must reproduce the check rep's decisions and quality.
void CheckAgainstReference(const RepResult& reference, const RepResult& rep,
                           const Workload& workload, const std::string& what,
                           Tally* tally) {
  for (size_t a = 0; a < workload.apps.size(); ++a) {
    if (!tally->Check(rep.traces[a].hash == reference.traces[a].hash)) {
      tally->Note(workload.apps[a].name + ": " + what +
                  " decision hash differs from the check run");
    }
  }
  if (!tally->Check(rep.quality == reference.quality)) {
    tally->Note(what + " quality differs from the check run");
  }
}

/// One repetition's end-to-end figures.
struct RepFigures {
  double events_per_s = 0.0;
  double assign_p50_ms = 0.0, assign_p95_ms = 0.0;
  double complete_p50_ms = 0.0, complete_p95_ms = 0.0;
  size_t assign_samples = 0, complete_samples = 0;
};

RepFigures FiguresOf(const Workload& workload, const RepResult& rep) {
  RepFigures f;
  f.events_per_s = Ratio(static_cast<double>(rep.timed_events), rep.timed_s);
  // Percentiles are taken per app and averaged over apps: the apps'
  // latencies form separate clusters, and a percentile of the pooled
  // samples can fall in the gap between two of them.
  const double share = 1.0 / static_cast<double>(workload.apps.size());
  for (size_t a = 0; a < workload.apps.size(); ++a) {
    std::vector<double> assign_ms, complete_ms;
    TimedSamples(workload.apps[a], rep.traces[a], &assign_ms, &complete_ms);
    f.assign_samples += assign_ms.size();
    f.complete_samples += complete_ms.size();
    f.assign_p50_ms += share * Percentile(assign_ms, 0.50);
    f.assign_p95_ms += share * Percentile(assign_ms, 0.95);
    f.complete_p50_ms += share * Percentile(complete_ms, 0.50);
    f.complete_p95_ms += share * Percentile(complete_ms, 0.95);
  }
  return f;
}

/// The end-to-end metrics over `reps`; `recoveries` holds every app's
/// CrashAndRecoverApp time in every recovery round, and recovery_s is left
/// out when it is empty.
std::vector<Metric> EndToEnd(const Workload& workload,
                             const std::vector<RepResult>& reps,
                             const std::vector<double>& recoveries,
                             const RepResult& reference) {
  std::vector<double> rates, setups, a50, a95, c50, c95;
  double loop_s = 0.0, busy_s = 0.0;
  size_t assign_samples = 0, complete_samples = 0;
  for (const RepResult& rep : reps) {
    const RepFigures f = FiguresOf(workload, rep);
    rates.push_back(f.events_per_s);
    a50.push_back(f.assign_p50_ms);
    a95.push_back(f.assign_p95_ms);
    c50.push_back(f.complete_p50_ms);
    c95.push_back(f.complete_p95_ms);
    assign_samples += f.assign_samples;
    complete_samples += f.complete_samples;
    setups.push_back(rep.setup_s);
    loop_s += rep.loop_s;
    busy_s += rep.busy_s;
  }
  const std::string reps_note = "median of " + std::to_string(reps.size()) +
                                " repetitions";
  std::vector<Metric> metrics = {
      {"events_per_s", Median(rates), "events/s",
       reps_note + "; client share of the timed loop " +
           Fmt("%.2f%%", 100.0 * Ratio(loop_s - busy_s, loop_s))},
      {"assign_p50_ms", Median(a50), "ms",
       std::to_string(assign_samples) + " samples"},
      {"assign_p95_ms", Median(a95), "ms",
       std::to_string(assign_samples) + " samples"},
      {"complete_p50_ms", Median(c50), "ms",
       std::to_string(complete_samples) + " samples"},
      {"complete_p95_ms", Median(c95), "ms",
       std::to_string(complete_samples) + " samples"},
      {"quality", reference.quality, "fraction",
       "deterministic for the seed"},
      {"setup_s", Median(setups), "s", reps_note},
  };
  if (!recoveries.empty()) {
    metrics.push_back({"recovery_s", Median(recoveries), "s",
                       "CrashAndRecoverApp, all apps at once; median of " +
                           std::to_string(recoveries.size()) + " recoveries"});
  }
  metrics.push_back({"rss_peak_mb", PeakRssMiB(), "MiB", "whole process"});
  return metrics;
}

/// A layer's self time over the events a selector accepts: the median and
/// the total of the paired differences upper[e] - lower[e]. A median within
/// two standard errors of zero (robust, from the quartiles) is unresolved.
struct SelfTime {
  double median_ms = 0.0;
  double total_ms = 0.0;
  bool resolved = false;
};

template <typename Select>
SelfTime PairedSelf(const Workload& workload,
                    const std::vector<AppTrace>& upper,
                    const std::vector<AppTrace>& lower, Select select) {
  std::vector<double> diffs;
  SelfTime self;
  for (size_t a = 0; a < workload.apps.size(); ++a) {
    const App& app = workload.apps[a];
    int completion = 0;
    for (size_t e = 0; e < app.events.size(); ++e) {
      const bool is_completion = app.events[e].kind == Event::Kind::kComplete;
      if (select(app.events[e], a, completion)) {
        const double d = upper[a].event_ms[e] - lower[a].event_ms[e];
        diffs.push_back(d);
        self.total_ms += d;
      }
      completion += is_completion ? 1 : 0;
    }
  }
  if (diffs.empty()) return self;
  self.median_ms = Median(diffs);
  const double sigma =
      (Percentile(diffs, 0.75) - Percentile(diffs, 0.25)) / 1.349;
  const double stderr_median =
      1.2533 * sigma / std::sqrt(static_cast<double>(diffs.size()));
  self.resolved = std::fabs(self.median_ms) > 2.0 * stderr_median;
  return self;
}

double TotalMs(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

std::vector<Metric> PerLayer(const Workload& workload,
                             const std::vector<RepResult>& untraced,
                             const LadderResult& ladder,
                             std::vector<std::string>* notes) {
  using Kind = Event::Kind;
  const LeafTimes& leaf = ladder.leaf_times;
  // Completion index -> refit flag, per app, in completion order.
  std::vector<size_t> completion_base(workload.apps.size(), 0);
  for (size_t a = 1; a < workload.apps.size(); ++a) {
    completion_base[a] =
        completion_base[a - 1] +
        static_cast<size_t>(workload.apps[a - 1].completions);
  }
  const auto requests = [](const Event& e, size_t, int) {
    return e.kind == Kind::kRequest;
  };
  const auto completions = [](const Event& e, size_t, int) {
    return e.kind == Kind::kComplete;
  };
  const auto refit_completions = [&](const Event& e, size_t a, int c) {
    return e.kind == Kind::kComplete &&
           leaf.refit_flags[completion_base[a] + static_cast<size_t>(c)] != 0;
  };

  // Path totals at rung 1, the denominators of every share.
  double request_path_ms = 0.0, complete_path_ms = 0.0;
  double refit_path_ms = 0.0;
  for (size_t a = 0; a < workload.apps.size(); ++a) {
    const App& app = workload.apps[a];
    int c = 0;
    for (size_t e = 0; e < app.events.size(); ++e) {
      const Event& event = app.events[e];
      const double ms = ladder.manager[a].event_ms[e];
      if (requests(event, a, c)) request_path_ms += ms;
      if (completions(event, a, c)) complete_path_ms += ms;
      if (refit_completions(event, a, c)) refit_path_ms += ms;
      if (event.kind == Kind::kComplete) ++c;
    }
  }
  std::vector<Metric> metrics;
  const auto share = [](double part, double path) {
    return Fmt("%.1f%% of its path", 100.0 * Ratio(part, path));
  };
  const auto add_self = [&](const std::string& name, const SelfTime& self,
                            double path_ms) {
    metrics.push_back({name, self.median_ms, "ms",
                       share(self.total_ms, path_ms) +
                           (self.resolved ? "" : "; unresolved")});
  };
  add_self("app_manager.request_self_ms",
           PairedSelf(workload, ladder.manager, ladder.engine, requests),
           request_path_ms);
  add_self("app_manager.complete_self_ms",
           PairedSelf(workload, ladder.manager, ladder.engine, completions),
           complete_path_ms);
  add_self("engine.request_self_ms",
           PairedSelf(workload, ladder.engine, ladder.core, requests),
           request_path_ms);
  add_self("engine.complete_self_ms",
           PairedSelf(workload, ladder.engine, ladder.core, completions),
           complete_path_ms);
  add_self("core.decide_self_ms",
           PairedSelf(workload, ladder.core, ladder.leaf, requests),
           request_path_ms);
  add_self("core.complete_self_ms",
           PairedSelf(workload, ladder.core, ladder.leaf, refit_completions),
           refit_path_ms);

  // app_manager.scaling: the timed phase's events/s against the sum of the
  // apps' serial rung-2 rates over the same events.
  double ideal_rate = 0.0;
  for (size_t a = 0; a < workload.apps.size(); ++a) {
    const App& app = workload.apps[a];
    double engine_s = 0.0;
    for (size_t e = app.warmup_events; e < app.events.size(); ++e) {
      engine_s += ladder.engine[a].event_ms[e] * 1e-3;
    }
    ideal_rate += Ratio(static_cast<double>(ServedEvents(
                            app, app.warmup_events, app.events.size())),
                        engine_s);
  }
  std::vector<double> rates;
  for (const RepResult& rep : untraced) {
    rates.push_back(Ratio(static_cast<double>(rep.timed_events), rep.timed_s));
  }
  const double events_per_s = Median(rates);
  metrics.push_back({"app_manager.scaling", Ratio(events_per_s, ideal_rate),
                     "ratio",
                     Fmt("%.1f events/s over ", events_per_s) +
                         Fmt("%.1f summed serial engine events/s",
                             ideal_rate)});

  // A leaf call this workload never makes reports its what-if probe (the
  // same inputs through that call), so every metric is a measured time.
  const auto leaf_metric = [&](const std::string& name,
                               const std::vector<double>& ms,
                               const std::vector<double>& whatif,
                               double path_ms, double scale,
                               const std::string& unit) {
    if (ms.empty()) {
      metrics.push_back({name, Median(whatif) * scale, unit,
                         "what-if probe, " + std::to_string(whatif.size()) +
                             " calls: the workload makes no such call"});
      return;
    }
    metrics.push_back({name, Median(ms) * scale, unit,
                       share(TotalMs(ms), path_ms) + ", " +
                           std::to_string(ms.size()) + " calls"});
  };
  leaf_metric("database.candidates_ms", leaf.candidates_ms, {},
              request_path_ms, 1.0, "ms");
  metrics.push_back({"database.candidates_per_request",
                     Median(AsDoubles(leaf.candidates)), "count", ""});
  leaf_metric("posterior.qw_ms", leaf.qw_ms, {}, request_path_ms, 1.0, "ms");
  leaf_metric("posterior.refresh_us", leaf.refresh_ms, leaf.whatif_refresh_ms,
              complete_path_ms, 1e3, "us");
  leaf_metric("assignment.topk_ms", leaf.topk_ms, leaf.whatif_topk_ms,
              request_path_ms, 1.0, "ms");
  leaf_metric("assignment.dinkelbach_ms", leaf.dinkelbach_ms,
              leaf.whatif_dinkelbach_ms, request_path_ms, 1.0, "ms");
  const bool dinkelbach_ran = !leaf.dinkelbach_iters.empty();
  metrics.push_back(
      {"assignment.dinkelbach_iters",
       Median(AsDoubles(dinkelbach_ran ? leaf.dinkelbach_iters
                                       : leaf.whatif_dinkelbach_iters)),
       "count",
       dinkelbach_ran ? "inner, per call" : "inner, what-if probe"});
  leaf_metric("em.refit_ms", leaf.refit_ms, {}, complete_path_ms, 1.0, "ms");
  metrics.push_back({"em.iterations", Median(AsDoubles(leaf.em_iterations)),
                     "count", "per refit"});
  metrics.push_back(
      {"em.refits_per_completion",
       Ratio(static_cast<double>(leaf.refit_ms.size()),
             static_cast<double>(leaf.refit_flags.size())),
       "ratio", ""});

  const auto speedup = [&](const std::string& name,
                           const std::vector<double>& serial,
                           const std::vector<double>& pooled) {
    metrics.push_back(
        {name, Ratio(Median(serial), Median(pooled)), "ratio",
         serial.empty() ? "n/a: no such calls on this workload"
                        : std::to_string(serial.size()) +
                              " paired calls, serial ÷ 4-thread pool"});
  };
  speedup("thread_pool.qw_speedup", leaf.qw_serial_ms, leaf.qw_pooled_ms);
  speedup("thread_pool.topk_speedup", leaf.topk_serial_ms, leaf.topk_pooled_ms);
  speedup("thread_pool.em_speedup", leaf.em_serial_ms, leaf.em_pooled_ms);

  metrics.push_back({"journal.append_us", Median(ladder.append_us), "us",
                     workload.persistence
                         ? "scratch journal, the engine's appends"
                         : "scratch journal (this workload runs without one)"});
  metrics.push_back({"journal.bytes_per_event",
                     Ratio(static_cast<double>(ladder.journal_bytes),
                           static_cast<double>(ladder.journal_appends)),
                     "B/event", ""});
  metrics.push_back({"journal.load_ms", Median(ladder.load_ms), "ms",
                     "LifecycleJournal constructor, median per app"});
  metrics.push_back({"engine.replay_events_per_s",
                     Ratio(static_cast<double>(ladder.replayed_events),
                           ladder.replay_s),
                     "events/s", "TaskAssignmentEngine::Recover"});

  // tracing_overhead: the ladder's rung-1 time over the timed events
  // against the untraced repetitions' time over the same events (median).
  const auto timed_ms = [&](const std::vector<AppTrace>& traces) {
    double ms = 0.0;
    for (size_t a = 0; a < workload.apps.size(); ++a) {
      const App& app = workload.apps[a];
      for (size_t e = app.warmup_events; e < app.events.size(); ++e) {
        ms += traces[a].event_ms[e];
      }
    }
    return ms;
  };
  std::vector<double> untraced_ms;
  for (const RepResult& rep : untraced) {
    untraced_ms.push_back(timed_ms(rep.traces));
  }
  const double traced_ms = timed_ms(ladder.manager);
  metrics.push_back(
      {"tracing_overhead", Ratio(traced_ms, Median(untraced_ms)) - 1.0,
       "ratio",
       Fmt("ladder rung 1 %.1f ms ÷ ", traced_ms) +
           Fmt("untraced %.1f ms − 1, timed events", Median(untraced_ms))});
  notes->push_back(Fmt("rung-1 request path %.1f ms", request_path_ms) +
                   Fmt(", completion path %.1f ms in total", complete_path_ms));
  return metrics;
}

void PrintMetrics(const std::string& title,
                  const std::vector<Metric>& metrics) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void PrintJson(bool correct, const Tally& tally,
               const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tally.attempted) +
                     ", \"failed\": " + std::to_string(tally.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value =
        std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            Fmt("%.17g", value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Removes the run's private journal directory however the run ends.
struct PrivateDir {
  std::string path;
  ~PrivateDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
};

int RunWorkload(const std::string& name, uint64_t seed, double seconds,
                bool trace, const std::string& work_dir) {
  Workload workload;
  if (!MakeWorkload(name, seed, &workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 2;
  }
  PrivateDir dir{work_dir + "/qasca-perfbench." + std::to_string(getpid())};
  std::filesystem::create_directories(dir.path);
  std::printf("workload %s  seed %llu  apps %zu  persistence %s\n",
              name.c_str(), static_cast<unsigned long long>(seed),
              workload.apps.size(), workload.persistence ? "on" : "off");
  for (const App& app : workload.apps) {
    std::printf(
        "  %-5s n=%d l=%d k=%d  %d requests (%d in batches), %d completions, "
        "%d abandoned, %d duplicates; warm-up %zu of %zu events\n",
        app.name.c_str(), app.config.num_questions, app.config.num_labels,
        app.config.questions_per_hit, app.requests, app.batches * 4,
        app.completions, app.abandons, app.duplicates, app.warmup_events,
        app.events.size());
  }

  Tally tally;
  int rep_index = 0;
  const auto rep_dir = [&] {
    return dir.path + "/rep" + std::to_string(rep_index++);
  };
  // The untimed check run: the reference every later run must reproduce.
  // Under --trace 0 its apps journal, even on a workload without
  // persistence, and stay hosted: every timed repetition is followed by a
  // round that crash-recovers them all at once from their whole histories.
  Hosted recovering;
  const RepResult reference =
      RunRep(workload, rep_dir(), trace ? nullptr : &recovering, &tally);
  for (size_t a = 0; a < workload.apps.size(); ++a) {
    std::printf("  %-5s decision hash %016llx\n",
                workload.apps[a].name.c_str(),
                static_cast<unsigned long long>(reference.traces[a].hash));
  }

  std::vector<Metric> metrics;
  if (!trace) {
    std::vector<RepResult> reps;
    std::vector<double> recoveries;
    const Clock::time_point start = Clock::now();
    while (recovering.manager != nullptr &&
           static_cast<int>(reps.size()) < kMaxTimedReps &&
           (static_cast<int>(reps.size()) < kMinTimedReps ||
            MsSince(start) < seconds * 1e3)) {
      reps.push_back(RunRep(workload, rep_dir(), nullptr, &tally));
      const RepResult& rep = reps.back();
      CheckAgainstReference(reference, rep, workload,
                            "timed run " + std::to_string(reps.size()), &tally);
      const std::vector<double> round =
          RecoverRound(workload, recovering, &tally);
      recoveries.insert(recoveries.end(), round.begin(), round.end());
      const RepFigures f = FiguresOf(workload, rep);
      std::printf("  repetition %zu: %.1f events/s over %.3f s; assign p50 "
                  "%.4f p95 %.4f ms; complete p50 %.4f p95 %.4f ms; setup "
                  "%.4f s; recovery %.6f s\n",
                  reps.size(), f.events_per_s, rep.timed_s, f.assign_p50_ms,
                  f.assign_p95_ms, f.complete_p50_ms, f.complete_p95_ms,
                  rep.setup_s, Median(round));
    }
    metrics = EndToEnd(workload, reps, recoveries, reference);
    PrintMetrics("end-to-end", metrics);
  } else {
    // The untraced side of tracing_overhead: one repetition on each side
    // of the ladder, so host drift over the run lands on both sides.
    std::vector<RepResult> untraced;
    const auto untraced_rep = [&] {
      untraced.push_back(RunRep(workload, rep_dir(), nullptr, &tally));
      CheckAgainstReference(reference, untraced.back(), workload,
                            "untraced run " + std::to_string(untraced.size()),
                            &tally);
    };
    untraced_rep();
    const LadderResult ladder =
        RunLadder(workload, dir.path + "/ladder", &tally);
    untraced_rep();
    const auto check_rung = [&](const std::vector<AppTrace>& rung,
                                const std::string& label) {
      for (size_t a = 0; a < workload.apps.size(); ++a) {
        if (!tally.Check(rung[a].hash == reference.traces[a].hash)) {
          tally.Note(workload.apps[a].name + ": " + label +
                     " decision hash differs from the check run");
        }
      }
    };
    check_rung(ladder.manager, "rung 1 (app manager)");
    check_rung(ladder.engine, "rung 2 (engine)");
    check_rung(ladder.core, "rung 3 (core)");
    check_rung(ladder.leaf, "rung 4 (leaf calls)");
    PrintMetrics("end-to-end (untraced repetitions, no recovery rounds)",
                 EndToEnd(workload, untraced, {}, reference));
    std::vector<std::string> notes;
    metrics = PerLayer(workload, untraced, ladder, &notes);
    PrintMetrics("per layer (per-call medians; share = the layer's total "
                 "time on the path ÷ the path's rung-1 total)",
                 metrics);
    for (const std::string& note : notes) std::printf("  %s\n", note.c_str());
  }
  const bool correct = tally.failed == 0;
  std::printf("operations attempted %lld, failed %lld\n",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed));
  for (const std::string& error : tally.errors) {
    std::printf("  FAILED: %s\n", error.c_str());
  }
  PrintJson(correct, tally, metrics);
  return correct ? 0 : 1;
}

// Reproduces the incremental-refresh drift abort (README.md, "Known
// defect"): runs one app alone on a standalone engine with
// em_refresh_interval > 1 until the budget is spent or the drift invariant
// aborts the process. A paper app is built as in er_fscore and serve_4app,
// and its workers arrive at random; the pool-* apps are pool_1e5's, with
// `questions` questions and kReproHits HITs, and their workers take turns.
int ReproDrift(const std::string& app_name, int interval, int questions,
               uint64_t seed) {
  const bool pool = app_name == "pool-accuracy" || app_name == "pool-fscore";
  App app;
  if (pool) {
    app = PoolApp(questions, kReproHits,
                  app_name == "pool-fscore" ? qasca::MetricSpec::FScore(0.5)
                                            : qasca::MetricSpec::Accuracy(),
                  seed);
  } else {
    const std::vector<qasca::ApplicationSpec> paper =
        qasca::PaperApplications();
    const auto spec = std::find_if(
        paper.begin(), paper.end(),
        [&](const qasca::ApplicationSpec& s) { return s.name == app_name; });
    if (spec == paper.end()) {
      std::fprintf(stderr, "unknown app '%s'\n", app_name.c_str());
      return 2;
    }
    app = PaperApp(*spec, seed, 0);
  }
  app.config.em_refresh_interval = interval;
  const qasca::AppConfig& config = app.config;
  const std::vector<qasca::SimulatedWorker>& crowd = app.crowd;
  std::printf("%s: n=%d, em_refresh_interval %d, %d HITs, %zu workers\n",
              app_name.c_str(), config.num_questions, interval,
              config.TotalHits(), crowd.size());
  std::fflush(stdout);
  qasca::TaskAssignmentEngine engine(config, MakeStrategy(config), app.seed);
  qasca::util::Rng arrivals(MixSeed(app.seed, 1));
  int hit = 0;
  while (!engine.BudgetExhausted()) {
    const WorkerId worker =
        pool ? hit % static_cast<int>(crowd.size())
             : arrivals.UniformInt(static_cast<int>(crowd.size()));
    auto questions_or = engine.RequestHit(worker);
    if (!questions_or.ok()) {
      std::printf("request failed: %s\n",
                  questions_or.status().ToString().c_str());
      return 1;
    }
    qasca::util::Status status =
        engine.CompleteHit(worker, Answers(app, worker, *questions_or));
    if (!status.ok()) {
      std::printf("completion failed: %s\n", status.ToString().c_str());
      return 1;
    }
    if (++hit % 100 == 0) {
      std::printf("  %d HITs, max drift so far %.3f\n", hit,
                  engine.max_refresh_drift());
      std::fflush(stdout);
    }
  }
  std::printf("no abort: %d HITs, max drift %.3f (tolerance %.2f)\n", hit,
              engine.max_refresh_drift(), config.em_drift_tolerance);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "usage: see the header of perfbench/src/main.cc\n");
      return 2;
    }
    args[key.substr(2)] = argv[++i];
  }
  const auto get = [&](const std::string& key, const std::string& fallback) {
    auto it = args.find(key);
    return it == args.end() ? fallback : it->second;
  };
  const uint64_t seed = std::strtoull(get("seed", "1").c_str(), nullptr, 10);
  if (args.count("repro-drift") != 0) {
    return perfbench::ReproDrift(
        args["repro-drift"], std::atoi(get("interval", "2").c_str()),
        std::atoi(get("questions", "3000").c_str()), seed);
  }
  if (args.count("workload") == 0) {
    std::fprintf(stderr, "--workload is required\n");
    return 2;
  }
  return perfbench::RunWorkload(args["workload"], seed,
                                std::atof(get("seconds", "10").c_str()),
                                get("trace", "0") == "1",
                                get("work-dir", ".bench_build/tmp"));
}
