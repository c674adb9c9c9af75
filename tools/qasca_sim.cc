// qasca_sim — command-line driver for the simulated end-to-end comparison.
//
// Usage:
//   qasca_sim [--app FS|SA|ER|PSA|NSA|CompanyLogo] [--seeds N]
//             [--checkpoints N] [--systems a,b,...] [--csv] [--scale F]
//
//   --app          application to run (default FS)
//   --seeds        number of independent simulated worlds to average
//                  (default 3)
//   --checkpoints  quality samples along the HIT axis (default 10)
//   --systems      comma-separated subset of
//                  Baseline,CDAS,AskIt!,QASCA,MaxMargin,ExpLoss
//                  (default: all six)
//   --scale        shrink factor in (0,1] applied to n and the worker pool
//                  for quick runs (default 1.0)
//   --csv          emit CSV instead of an aligned table
//   --telemetry    instead of the comparison, run one instrumented QASCA
//                  engine under each assignment algorithm (Accuracy* and
//                  F-score*) and print the per-stage telemetry report
//                  (span latencies p50/p95/p99, counters, gauges)
//   --trace-out FILE
//                  run one flight-recorder-instrumented QASCA engine and
//                  write its span timeline as Chrome/Perfetto trace-event
//                  JSON (load in chrome://tracing or https://ui.perfetto.dev)
//   --provenance-out FILE
//                  with the same instrumented run, write one JSONL decision
//                  provenance record per assignment (chosen questions +
//                  benefit scores, EM generation, journal sequencing);
//                  combine with --trace-out to get both from a
//                  single run
//   --apps N       serving mode (DESIGN.md §14): host N QASCA apps in one
//                  AppManager and storm them with a seeded interleaved
//                  multi-app workload, then print per-app serving stats
//   --worker-threads M
//                  worker threads for the serving storm (default 4); the
//                  run re-executes the identical schedule single-threaded
//                  and verifies per-app decisions were bit-identical
//
// Examples:
//   qasca_sim --app ER --seeds 5
//   qasca_sim --app NSA --systems Baseline,QASCA --scale 0.25 --csv
//   qasca_sim --telemetry
//   qasca_sim --trace-out trace.json --provenance-out decisions.jsonl
//   qasca_sim --apps 8 --worker-threads 4

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/experiment_driver.h"
#include "platform/app_manager.h"
#include "platform/engine.h"
#include "platform/qasca_strategy.h"
#include "simulation/serving_driver.h"
#include "util/table.h"

namespace qasca {
namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--app NAME] [--seeds N] [--checkpoints N] "
               "[--systems a,b,...] [--scale F] [--csv] [--telemetry] "
               "[--trace-out FILE] [--provenance-out FILE] "
               "[--apps N [--worker-threads M]]\n",
               argv0);
  std::exit(2);
}

ApplicationSpec AppByName(const std::string& name) {
  for (const ApplicationSpec& spec : PaperApplications()) {
    if (spec.name == name) return spec;
  }
  if (name == "CompanyLogo") return CompanyLogoApp();
  std::fprintf(stderr, "unknown app '%s' (try FS SA ER PSA NSA CompanyLogo)\n",
               name.c_str());
  std::exit(2);
}

std::vector<std::string> SplitCommas(const std::string& value) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : value) {
    if (c == ',') {
      if (!current.empty()) parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) parts.push_back(current);
  return parts;
}

// Deterministic pseudo-noisy worker for the telemetry demo runs: the answer
// depends only on (worker, question, truth), so the printed counters are
// reproducible run to run. ~25% of answers are wrong.
LabelIndex SimulatedAnswer(WorkerId worker, QuestionIndex question,
                           LabelIndex truth, int num_labels) {
  uint64_t h = (static_cast<uint64_t>(worker) * 1000003u +
                static_cast<uint64_t>(question) + 1) *
               0x9e3779b97f4a7c15ull;
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  if (h % 100 < 25) {
    return static_cast<LabelIndex>(
        (static_cast<uint64_t>(truth) + 1 + h % (num_labels - 1)) %
        num_labels);
  }
  return truth;
}

// Drives one fully instrumented QASCA engine to budget exhaustion and
// prints its per-stage telemetry report.
void RunInstrumented(const char* title, const MetricSpec& metric) {
  AppConfig config;
  config.name = "telemetry-demo";
  config.num_questions = 200;
  config.num_labels = 2;
  config.questions_per_hit = 5;
  config.pay_per_hit = 0.02;
  config.budget = 0.02 * 60;  // 60 HITs
  config.metric = metric;
  config.em_refresh_interval = 4;
  config.telemetry_enabled = true;

  GroundTruthVector truth(config.num_questions);
  for (int q = 0; q < config.num_questions; ++q) {
    truth[q] = q % config.num_labels;
  }

  TaskAssignmentEngine engine(config, std::make_unique<QascaStrategy>(),
                              /*seed=*/7);
  int round = 0;
  while (!engine.BudgetExhausted()) {
    const WorkerId worker = round++ % 8;
    auto hit = engine.RequestHit(worker);
    if (!hit.ok()) break;
    std::vector<LabelIndex> labels;
    labels.reserve(hit->size());
    for (QuestionIndex q : *hit) {
      labels.push_back(SimulatedAnswer(worker, q, truth[q],
                                       config.num_labels));
    }
    util::Status done = engine.CompleteHit(worker, labels);
    if (!done.ok()) break;
  }

  std::printf("=== %s: %d HITs assigned, quality %.4f ===\n", title,
              engine.assigned_hits(), engine.QualityAgainstTruth(truth));
  std::fputs(engine.telemetry().ToReport().c_str(), stdout);
  std::printf("\n");
}

int RunTelemetry() {
  RunInstrumented("Accuracy* (Top-K Benefit)", MetricSpec::Accuracy());
  RunInstrumented("F-score* (Dinkelbach online)", MetricSpec::FScore(0.5, 0));
  return 0;
}

// Writes `contents` to `path`, replacing any existing file.
int WriteFileOrDie(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", path.c_str());
    return 1;
  }
  size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  int close_err = std::fclose(f);
  if (written != contents.size() || close_err != 0) {
    std::fprintf(stderr, "short write to '%s'\n", path.c_str());
    return 1;
  }
  return 0;
}

// Drives one observability-instrumented QASCA engine (flight recorder +
// decision provenance + assignment SLO tracker all on) to budget exhaustion,
// then exports the requested artifacts. Same deterministic workload as the
// --telemetry demo, so traces are reproducible run to run.
int RunObservabilityExport(const std::string& trace_path,
                           const std::string& provenance_path) {
  AppConfig config;
  config.name = "trace-demo";
  config.num_questions = 200;
  config.num_labels = 2;
  config.questions_per_hit = 5;
  config.pay_per_hit = 0.02;
  config.budget = 0.02 * 60;  // 60 HITs
  config.metric = MetricSpec::Accuracy();
  config.em_refresh_interval = 4;
  config.flight_recorder_enabled = true;
  config.provenance_enabled = true;
  config.slo_p95_assign_ms = 5.0;
  config.latency_window_samples = 64;

  GroundTruthVector truth(config.num_questions);
  for (int q = 0; q < config.num_questions; ++q) {
    truth[q] = q % config.num_labels;
  }

  TaskAssignmentEngine engine(config, std::make_unique<QascaStrategy>(),
                              /*seed=*/7);
  int round = 0;
  while (!engine.BudgetExhausted()) {
    const WorkerId worker = round++ % 8;
    auto hit = engine.RequestHit(worker);
    if (!hit.ok()) break;
    std::vector<LabelIndex> labels;
    labels.reserve(hit->size());
    for (QuestionIndex q : *hit) {
      labels.push_back(SimulatedAnswer(worker, q, truth[q],
                                       config.num_labels));
    }
    util::Status done = engine.CompleteHit(worker, labels);
    if (!done.ok()) break;
  }

  std::fprintf(stderr, "observability run: %d HITs assigned, quality %.4f\n",
               engine.assigned_hits(), engine.QualityAgainstTruth(truth));
  if (!trace_path.empty()) {
    const util::FlightRecorder* recorder = engine.flight_recorder();
    if (recorder == nullptr) {
      std::fprintf(stderr, "flight recorder unexpectedly absent\n");
      return 1;
    }
    if (int rc = WriteFileOrDie(trace_path, recorder->ToChromeJson())) {
      return rc;
    }
    std::fprintf(stderr, "wrote %s (%lld events recorded)\n",
                 trace_path.c_str(),
                 static_cast<long long>(recorder->total_events()));
  }
  if (!provenance_path.empty()) {
    const ProvenanceLog* provenance = engine.provenance();
    if (provenance == nullptr) {
      std::fprintf(stderr, "provenance log unexpectedly absent\n");
      return 1;
    }
    if (int rc =
            WriteFileOrDie(provenance_path, provenance->ToJsonLines())) {
      return rc;
    }
    std::fprintf(stderr, "wrote %s (%lld decision records)\n",
                 provenance_path.c_str(),
                 static_cast<long long>(provenance->total_appended()));
  }
  return 0;
}

// Serving mode (DESIGN.md §14): one AppManager hosting `apps` QASCA apps,
// stormed by `worker_threads` racing threads executing a seeded interleaved
// multi-app schedule, with per-app SLO trackers live. The identical
// schedule is then replayed single-threaded as the determinism oracle.
int RunServing(int apps, int worker_threads) {
  ServingWorkloadOptions options;
  options.apps = apps;
  options.workers_per_app = 8;
  options.events_per_app = 200;
  options.num_questions = 50;
  options.questions_per_hit = 3;
  options.em_refresh_interval = 4;
  options.lease_timeout_ticks = 6;
  options.slo_p95_assign_ms = 5.0;
  const uint64_t seed = 20100;

  const ServingSchedule schedule = ServingSchedule::Generate(options, seed);
  std::fprintf(stderr,
               "serving storm: %d apps x %d events, %d worker thread(s), "
               "%zu interleaved events\n",
               options.apps, options.events_per_app, worker_threads,
               schedule.events().size());

  AppManager manager;
  util::Status built = BuildServingApps(manager, options, seed);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.ToString().c_str());
    return 1;
  }
  const ServingRunResult storm =
      RunServingSchedule(manager, schedule, options, worker_threads);

  AppManager oracle;
  built = BuildServingApps(oracle, options, seed);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.ToString().c_str());
    return 1;
  }
  const ServingRunResult serial =
      RunServingSchedule(oracle, schedule, options, 1);
  const bool identical = storm.decision_hashes == serial.decision_hashes &&
                         storm.fingerprints == serial.fingerprints;

  util::Table table({"app", "assigned", "completed", "open", "expired",
                     "p95 assign (ms)", "decision hash"});
  for (int app = 0; app < options.apps; ++app) {
    auto stats = manager.StatsFor(app);
    if (!stats.ok()) {
      std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
      return 1;
    }
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(
                      storm.decision_hashes[static_cast<size_t>(app)]));
    table.AddRow()
        .Cell(int64_t{app})
        .Cell(int64_t{stats->assigned_hits})
        .Cell(int64_t{stats->completed_hits})
        .Cell(int64_t{stats->open_hits})
        .Cell(int64_t{stats->leases_expired})
        .Cell(stats->window_p95_seconds * 1e3, 4)
        .Cell(hash);
  }
  table.Print();
  std::printf(
      "%lld events/s (%lld assignments, %lld completions, %lld batches); "
      "decisions identical to the serial replay: %s\n",
      static_cast<long long>(
          storm.elapsed_seconds > 0
              ? static_cast<double>(options.apps) * options.events_per_app /
                    storm.elapsed_seconds
              : 0.0),
      static_cast<long long>(storm.assignments),
      static_cast<long long>(storm.completions),
      static_cast<long long>(storm.batches), identical ? "yes" : "NO");
  return identical ? 0 : 1;
}

int Run(int argc, char** argv) {
  std::string app_name = "FS";
  int seeds = 3;
  int checkpoints = 10;
  double scale = 1.0;
  bool csv = false;
  int serving_apps = 0;
  int worker_threads = 4;
  std::string trace_out;
  std::string provenance_out;
  std::vector<std::string> system_names;

  for (int a = 1; a < argc; ++a) {
    std::string flag = argv[a];
    // Accept both `--flag value` and `--flag=value`.
    std::string inline_value;
    bool has_inline_value = false;
    if (size_t eq = flag.find('='); eq != std::string::npos) {
      inline_value = flag.substr(eq + 1);
      flag.resize(eq);
      has_inline_value = true;
    }
    auto next_value = [&]() -> std::string {
      if (has_inline_value) return inline_value;
      if (a + 1 >= argc) Usage(argv[0]);
      return argv[++a];
    };
    if (flag == "--app") {
      app_name = next_value();
    } else if (flag == "--seeds") {
      seeds = std::atoi(next_value().c_str());
      if (seeds <= 0) Usage(argv[0]);
    } else if (flag == "--checkpoints") {
      checkpoints = std::atoi(next_value().c_str());
      if (checkpoints <= 0) Usage(argv[0]);
    } else if (flag == "--systems") {
      system_names = SplitCommas(next_value());
    } else if (flag == "--scale") {
      scale = std::atof(next_value().c_str());
      if (scale <= 0.0 || scale > 1.0) Usage(argv[0]);
    } else if (flag == "--csv") {
      csv = true;
    } else if (flag == "--telemetry") {
      return RunTelemetry();
    } else if (flag == "--trace-out") {
      trace_out = next_value();
    } else if (flag == "--provenance-out") {
      provenance_out = next_value();
    } else if (flag == "--apps") {
      serving_apps = std::atoi(next_value().c_str());
      if (serving_apps <= 0) Usage(argv[0]);
    } else if (flag == "--worker-threads") {
      worker_threads = std::atoi(next_value().c_str());
      if (worker_threads <= 0) Usage(argv[0]);
    } else {
      Usage(argv[0]);
    }
  }

  if (serving_apps > 0) {
    return RunServing(serving_apps, worker_threads);
  }

  if (!trace_out.empty() || !provenance_out.empty()) {
    return RunObservabilityExport(trace_out, provenance_out);
  }

  ApplicationSpec spec = AppByName(app_name);
  if (scale < 1.0) {
    spec.num_questions =
        std::max(spec.questions_per_hit * 4,
                 static_cast<int>(spec.num_questions * scale));
    spec.workers.num_workers =
        std::max(4, static_cast<int>(spec.workers.num_workers * scale));
  }

  std::vector<SystemFactory> all = DefaultSystems();
  std::vector<SystemFactory> systems;
  if (system_names.empty()) {
    systems = all;
  } else {
    for (const std::string& name : system_names) {
      bool found = false;
      for (const SystemFactory& factory : all) {
        if (factory.name == name) {
          systems.push_back(factory);
          found = true;
          break;
        }
      }
      if (!found) {
        std::fprintf(stderr, "unknown system '%s'\n", name.c_str());
        return 2;
      }
    }
  }

  std::fprintf(stderr,
               "running %s: n=%d, k=%d, %d HITs, %d worker(s) pool, %d "
               "seed(s), metric=%s\n",
               spec.name.c_str(), spec.num_questions, spec.questions_per_hit,
               spec.TotalHits(), spec.workers.num_workers, seeds,
               spec.metric.Make()->name().c_str());

  bench::AveragedTraces traces = bench::RunAveraged(
      spec, systems, seeds, checkpoints, /*track_estimation_deviation=*/false);

  std::vector<std::string> header = {"HITs"};
  for (const std::string& name : traces.system_names) header.push_back(name);
  util::Table table(header);
  for (size_t c = 0; c < traces.completed_hits.size(); ++c) {
    table.AddRow().Cell(int64_t{traces.completed_hits[c]});
    for (size_t s = 0; s < traces.system_names.size(); ++s) {
      table.Percent(traces.quality[s][c], 2);
    }
  }
  if (csv) {
    std::fputs(table.ToCsv().c_str(), stdout);
  } else {
    table.Print();
  }
  return 0;
}

}  // namespace
}  // namespace qasca

int main(int argc, char** argv) { return qasca::Run(argc, argv); }
