// PR 2 hot-path scaling benchmark: end-to-end HIT request/complete cycles
// on the engine while sweeping AppConfig::num_threads and
// AppConfig::em_refresh_interval.
//
// Measures, per (n, threads) configuration:
//   * p50 / p95 assignment latency (the strategy call inside RequestHit),
//   * completions per second (EM refresh is the dominant completion cost),
//   * a decision hash over every selected question index, in order — equal
//     hashes across thread counts prove the determinism contract end to end,
//   * speedup vs the 1-thread run of the same n.
//
// Also measures the algorithmic speedup of the incremental Qc refresh:
// em_refresh_interval 1 (the paper's refit-every-completion engine) vs 8,
// and (PR 3) a per-stage breakdown from the engine's telemetry registry:
// where each HIT cycle's time goes (EM refit, Qw estimation, Top-K scan /
// Dinkelbach solves), with the full MetricRegistry::ToJson() embedded.
//
// (PR 5) adds a fault-tolerance section: the same workload with 5% of HIT
// requests abandoned — the lease expires, the questions requeue, the
// budget refunds — reporting completion throughput against the fault-free
// run plus the robustness layer's lease/requeue counters (schema v3).
//
// (PR 7, schema v4) adds the "kernels" section: the runtime-dispatched
// SIMD ISA the host resolved, the likelihood-cache hit rate, and the
// overlay / closed-form row counts from one telemetry-enabled run.
//
// Emits a single JSON document (schema documented in README.md; written to
// --out, default stdout). tools/run_bench.sh drives this binary and places
// BENCH_PR7.json at the repo root.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/kernels/kernels.h"
#include "platform/engine.h"
#include "platform/qasca_strategy.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/telemetry_names.h"

namespace qasca {
namespace {

// Deterministic pseudo-noisy worker (~25% wrong): the answer depends only
// on (worker, question, truth), so every configuration replays the same
// answer stream and decision hashes are comparable.
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

struct RunResult {
  double p50_assignment_seconds = 0.0;
  double p95_assignment_seconds = 0.0;
  double completions_per_second = 0.0;
  double total_seconds = 0.0;
  uint64_t decision_hash = 0;
  int full_em_refits = 0;
  int incremental_refreshes = 0;
  int completed_hits = 0;
  int leases_expired = 0;
  int questions_requeued = 0;
  // Filled only when CycleOptions::telemetry is set.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t overlay_rows = 0;
  int64_t closed_form_rows = 0;
};

struct CycleOptions {
  int abandon_permille = 0;
  bool telemetry = false;
};

// Deterministic per-round abandonment decision (same mixing as
// SimulatedAnswer): true on ~abandon_permille/1000 of rounds.
bool AbandonsRound(int round, int abandon_permille) {
  if (abandon_permille == 0) return false;
  uint64_t h = (static_cast<uint64_t>(round) + 1) * 0x9e3779b97f4a7c15ull;
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  return h % 1000 < static_cast<uint64_t>(abandon_permille);
}

double PercentileOfSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double index = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(index);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = index - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

RunResult RunHitCycles(int n, int num_threads, int em_refresh_interval,
                       int hits, CycleOptions options = {}) {
  const int abandon_permille = options.abandon_permille;
  AppConfig config;
  config.name = "hotpath";
  config.num_questions = n;
  config.num_labels = 2;
  config.questions_per_hit = 20;
  config.pay_per_hit = 0.02;
  config.budget = 0.02 * hits;
  config.metric = MetricSpec::Accuracy();
  config.worker_kind = WorkerModel::Kind::kWorkerProbability;
  config.em.max_iterations = 15;
  config.num_threads = num_threads;
  config.em_refresh_interval = em_refresh_interval;
  config.telemetry_enabled = options.telemetry;
  // Abandoned HITs expire on the next Tick; the questions requeue and the
  // budget refunds, so the run still completes `hits` HITs total.
  if (abandon_permille > 0) config.lease_timeout_ticks = 1;

  GroundTruthVector truth(n);
  for (int q = 0; q < n; ++q) truth[q] = q % 2;

  TaskAssignmentEngine engine(config, std::make_unique<QascaStrategy>(),
                              /*seed=*/11);
  RunResult result;
  std::vector<double> request_seconds;
  request_seconds.reserve(static_cast<size_t>(hits));
  uint64_t hash = 1469598103934665603ull;  // FNV-1a
  double completion_seconds = 0.0;

  util::Stopwatch total;
  int round = 0;
  while (!engine.BudgetExhausted()) {
    const WorkerId worker = round++ % 30;
    util::Stopwatch stopwatch;
    auto hit = engine.RequestHit(worker);
    request_seconds.push_back(stopwatch.ElapsedSeconds());
    QASCA_CHECK(hit.ok()) << hit.status().ToString();
    if (AbandonsRound(round - 1, abandon_permille)) {
      // The worker walks away; the lease (timeout 1) expires on this tick,
      // requeueing the questions and refunding the HIT.
      engine.Tick(1);
      continue;
    }
    std::vector<LabelIndex> labels;
    labels.reserve(hit->size());
    for (QuestionIndex q : *hit) {
      hash ^= static_cast<uint64_t>(q) + 1;
      hash *= 1099511628211ull;
      labels.push_back(SimulatedAnswer(worker, q, truth[q], 2));
    }
    stopwatch.Reset();
    QASCA_CHECK(engine.CompleteHit(worker, labels).ok());
    completion_seconds += stopwatch.ElapsedSeconds();
  }
  result.total_seconds = total.ElapsedSeconds();

  std::sort(request_seconds.begin(), request_seconds.end());
  result.p50_assignment_seconds = PercentileOfSorted(request_seconds, 0.50);
  result.p95_assignment_seconds = PercentileOfSorted(request_seconds, 0.95);
  result.completions_per_second =
      completion_seconds > 0.0
          ? static_cast<double>(engine.completed_hits()) / completion_seconds
          : 0.0;
  result.decision_hash = hash;
  result.full_em_refits = engine.full_em_refits();
  result.incremental_refreshes = engine.incremental_refreshes();
  result.completed_hits = engine.completed_hits();
  result.leases_expired = engine.leases_expired();
  result.questions_requeued = engine.questions_requeued();
  if (options.telemetry) {
    const util::TelemetrySnapshot snapshot = engine.TelemetrySnapshot();
    for (const util::CounterSnapshot& counter : snapshot.counters) {
      if (counter.name == util::tnames::kQwLikelihoodCacheHits) {
        result.cache_hits = counter.value;
      }
      if (counter.name == util::tnames::kQwLikelihoodCacheMisses) {
        result.cache_misses = counter.value;
      }
      if (counter.name == util::tnames::kQwOverlayRows) {
        result.overlay_rows = counter.value;
      }
      if (counter.name == util::tnames::kQwClosedFormRows) {
        result.closed_form_rows = counter.value;
      }
    }
  }
  return result;
}

// One fully instrumented engine run; returns the telemetry registry's JSON
// plus the headline per-stage numbers tools/run_bench.sh summarises.
struct StageBreakdown {
  double em_refit_ms = 0.0;
  double qw_estimate_ms = 0.0;
  double topk_scan_ms = 0.0;
  double fscore_online_ms = 0.0;
  int64_t dinkelbach_iters = 0;
  std::string telemetry_json;
};

StageBreakdown RunStageBreakdown(const MetricSpec& metric, int n, int hits) {
  AppConfig config;
  config.name = "hotpath-breakdown";
  config.num_questions = n;
  config.num_labels = 2;
  config.questions_per_hit = 20;
  config.pay_per_hit = 0.02;
  config.budget = 0.02 * hits;
  config.metric = metric;
  config.worker_kind = WorkerModel::Kind::kWorkerProbability;
  config.em.max_iterations = 15;
  config.em_refresh_interval = 4;
  config.telemetry_enabled = true;

  GroundTruthVector truth(n);
  for (int q = 0; q < n; ++q) truth[q] = q % 2;

  TaskAssignmentEngine engine(config, std::make_unique<QascaStrategy>(),
                              /*seed=*/11);
  int round = 0;
  while (!engine.BudgetExhausted()) {
    const WorkerId worker = round++ % 30;
    auto hit = engine.RequestHit(worker);
    QASCA_CHECK(hit.ok()) << hit.status().ToString();
    std::vector<LabelIndex> labels;
    labels.reserve(hit->size());
    for (QuestionIndex q : *hit) {
      labels.push_back(SimulatedAnswer(worker, q, truth[q], 2));
    }
    QASCA_CHECK(engine.CompleteHit(worker, labels).ok());
  }

  StageBreakdown breakdown;
  const util::TelemetrySnapshot snapshot = engine.TelemetrySnapshot();
  for (const util::LatencySnapshot& latency : snapshot.latencies) {
    const double total_ms = latency.total_seconds * 1e3;
    if (latency.name == "em_full_refit") breakdown.em_refit_ms = total_ms;
    if (latency.name == "estimate_qw") breakdown.qw_estimate_ms = total_ms;
    if (latency.name == "topk_scan") breakdown.topk_scan_ms = total_ms;
    if (latency.name == "fscore_online") {
      breakdown.fscore_online_ms = total_ms;
    }
  }
  for (const util::CounterSnapshot& counter : snapshot.counters) {
    if (counter.name == "dinkelbach.inner_iterations") {
      breakdown.dinkelbach_iters = counter.value;
    }
  }
  breakdown.telemetry_json = engine.telemetry().ToJson();
  return breakdown;
}

int Main(int argc, char** argv) {
  std::string commit = "unknown";
  std::string date = "unknown";
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      QASCA_CHECK(i + 1 < argc) << "missing value for" << arg;
      return argv[++i];
    };
    if (arg == "--commit") {
      commit = value();
    } else if (arg == "--date") {
      date = value();
    } else if (arg == "--out") {
      out_path = value();
    } else {
      std::fprintf(stderr,
                   "usage: bench_hotpath_scaling [--commit SHA] [--date D] "
                   "[--out FILE]\n");
      return 2;
    }
  }

  const std::vector<int> sizes = {2000, 10000};
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  const int kHits = 30;

  std::FILE* out = out_path.empty() ? stdout : std::fopen(out_path.c_str(), "w");
  QASCA_CHECK(out != nullptr) << "cannot open" << out_path;

  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"bench_hotpath_scaling\",\n");
  std::fprintf(out, "  \"schema_version\": 4,\n");
  std::fprintf(out, "  \"commit\": \"%s\",\n", commit.c_str());
  std::fprintf(out, "  \"date\": \"%s\",\n", date.c_str());
  std::fprintf(out, "  \"machine\": { \"hardware_threads\": %u },\n",
               std::thread::hardware_concurrency());
  std::fprintf(out,
               "  \"workload\": { \"metric\": \"accuracy\", \"worker_kind\": "
               "\"wp\", \"num_labels\": 2, \"k\": 20, \"hits\": %d, "
               "\"workers\": 30 },\n",
               kHits);

  // --- thread scaling ---------------------------------------------------
  bool identical = true;
  std::fprintf(out, "  \"thread_scaling\": [\n");
  bool first = true;
  for (int n : sizes) {
    double serial_total = 0.0;
    uint64_t serial_hash = 0;
    for (int threads : thread_counts) {
      std::fprintf(stderr, "[bench] n=%d threads=%d ...\n", n, threads);
      const RunResult r = RunHitCycles(n, threads, /*interval=*/1, kHits);
      if (threads == 1) {
        serial_total = r.total_seconds;
        serial_hash = r.decision_hash;
      }
      identical = identical && r.decision_hash == serial_hash;
      if (!first) std::fprintf(out, ",\n");
      first = false;
      std::fprintf(
          out,
          "    { \"n\": %d, \"threads\": %d, "
          "\"p50_assignment_seconds\": %.6g, "
          "\"p95_assignment_seconds\": %.6g, "
          "\"completions_per_second\": %.6g, "
          "\"total_seconds\": %.6g, "
          "\"speedup_vs_1_thread\": %.4g, "
          "\"decision_hash\": \"%016llx\" }",
          n, threads, r.p50_assignment_seconds, r.p95_assignment_seconds,
          r.completions_per_second, r.total_seconds,
          serial_total > 0.0 ? serial_total / r.total_seconds : 1.0,
          static_cast<unsigned long long>(r.decision_hash));
    }
  }
  std::fprintf(out, "\n  ],\n");
  std::fprintf(out,
               "  \"determinism\": { "
               "\"identical_decisions_across_thread_counts\": %s },\n",
               identical ? "true" : "false");

  // --- incremental Qc refresh (em_refresh_interval) ---------------------
  std::fprintf(out, "  \"em_refresh\": [\n");
  first = true;
  for (int n : sizes) {
    double full_total = 0.0;
    for (int interval : {1, 8}) {
      std::fprintf(stderr, "[bench] n=%d interval=%d ...\n", n, interval);
      const RunResult r = RunHitCycles(n, /*threads=*/1, interval, kHits);
      if (interval == 1) full_total = r.total_seconds;
      if (!first) std::fprintf(out, ",\n");
      first = false;
      std::fprintf(
          out,
          "    { \"n\": %d, \"em_refresh_interval\": %d, "
          "\"completions_per_second\": %.6g, "
          "\"total_seconds\": %.6g, "
          "\"speedup_vs_interval_1\": %.4g, "
          "\"full_em_refits\": %d, \"incremental_refreshes\": %d }",
          n, interval, r.completions_per_second, r.total_seconds,
          full_total > 0.0 ? full_total / r.total_seconds : 1.0,
          r.full_em_refits, r.incremental_refreshes);
    }
  }
  std::fprintf(out, "\n  ],\n");

  // --- fault tolerance: abandonment overhead (PR 5) ----------------------
  // 5% of HIT requests are abandoned (the worker never answers; the lease
  // expires, the questions requeue, the budget refunds) and the run still
  // has to complete the full budget. Reports the completion throughput
  // against the fault-free run of the same n, plus the lease/requeue
  // counters the robustness layer maintains.
  std::fprintf(out, "  \"fault_tolerance\": [\n");
  first = true;
  for (int n : sizes) {
    std::fprintf(stderr, "[bench] n=%d fault-free vs 5%% abandonment ...\n",
                 n);
    const RunResult clean =
        RunHitCycles(n, /*threads=*/1, /*interval=*/1, kHits);
    const RunResult faulty = RunHitCycles(n, /*threads=*/1, /*interval=*/1,
                                          kHits, {.abandon_permille = 50});
    QASCA_CHECK(faulty.completed_hits == clean.completed_hits)
        << "abandonment must not change the completed budget";
    QASCA_CHECK(faulty.leases_expired > 0)
        << "the 5% abandonment plan never fired";
    if (!first) std::fprintf(out, ",\n");
    first = false;
    std::fprintf(
        out,
        "    { \"n\": %d, \"abandon_rate\": 0.05, "
        "\"completed_hits\": %d, "
        "\"leases_expired\": %d, \"questions_requeued\": %d, "
        "\"completions_per_second\": %.6g, "
        "\"fault_free_completions_per_second\": %.6g, "
        "\"throughput_vs_fault_free\": %.4g }",
        n, faulty.completed_hits, faulty.leases_expired,
        faulty.questions_requeued, faulty.completions_per_second,
        clean.completions_per_second,
        clean.completions_per_second > 0.0
            ? faulty.completions_per_second / clean.completions_per_second
            : 1.0);
  }
  std::fprintf(out, "\n  ],\n");

  // --- kernel layer configuration + counters (PR 7) ---------------------
  // One telemetry-enabled run at the largest n, with incremental refreshes
  // between refits so the likelihood cache serves both Qw and refreshes.
  std::fprintf(stderr, "[bench] n=%d kernel counters ...\n", sizes.back());
  const RunResult counted =
      RunHitCycles(sizes.back(), /*threads=*/1, /*interval=*/8, kHits,
                   {.telemetry = true});
  const int64_t cache_lookups = counted.cache_hits + counted.cache_misses;
  std::fprintf(
      out,
      "  \"kernels\": { \"isa\": \"%s\", "
      "\"cache_hits\": %lld, \"cache_misses\": %lld, "
      "\"cache_hit_rate\": %.4g, "
      "\"overlay_rows\": %lld, \"closed_form_rows\": %lld },\n",
      kernels::IsaName(kernels::ActiveIsa()),
      static_cast<long long>(counted.cache_hits),
      static_cast<long long>(counted.cache_misses),
      cache_lookups > 0
          ? static_cast<double>(counted.cache_hits) /
                static_cast<double>(cache_lookups)
          : 0.0,
      static_cast<long long>(counted.overlay_rows),
      static_cast<long long>(counted.closed_form_rows));

  // --- per-stage telemetry breakdown (PR 3) -----------------------------
  std::fprintf(out, "  \"stage_breakdown\": [\n");
  struct BreakdownSpec {
    const char* name;
    MetricSpec metric;
  };
  const BreakdownSpec breakdown_specs[] = {
      {"accuracy", MetricSpec::Accuracy()},
      {"fscore", MetricSpec::FScore(0.5, 0)},
  };
  // Denser coverage than the scaling sweeps (30 HITs x k=20 over n=1000 is
  // ~0.6 answers/question): with coverage much below that, a sparsely
  // answered contested row can legitimately flip by more than the drift
  // tolerance between an incremental refresh and the next full refit.
  const int breakdown_n = 1000;
  first = true;
  for (const BreakdownSpec& spec : breakdown_specs) {
    std::fprintf(stderr, "[bench] stage breakdown metric=%s ...\n",
                 spec.name);
    const StageBreakdown b =
        RunStageBreakdown(spec.metric, breakdown_n, kHits);
    if (!first) std::fprintf(out, ",\n");
    first = false;
    std::fprintf(out,
                 "    { \"metric\": \"%s\", \"n\": %d, "
                 "\"em_refit_ms\": %.6g, \"qw_estimate_ms\": %.6g, "
                 "\"topk_scan_ms\": %.6g, \"fscore_online_ms\": %.6g, "
                 "\"dinkelbach_iters\": %lld,\n      \"telemetry\": %s }",
                 spec.name, breakdown_n, b.em_refit_ms, b.qw_estimate_ms,
                 b.topk_scan_ms, b.fscore_online_ms,
                 static_cast<long long>(b.dinkelbach_iters),
                 b.telemetry_json.c_str());
  }
  std::fprintf(out, "\n  ]\n");
  std::fprintf(out, "}\n");
  if (out != stdout) std::fclose(out);
  QASCA_CHECK(identical)
      << "decision hashes diverged across thread counts";
  return 0;
}

}  // namespace
}  // namespace qasca

int main(int argc, char** argv) { return qasca::Main(argc, argv); }
