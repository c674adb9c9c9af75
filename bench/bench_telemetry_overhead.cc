// Telemetry-overhead smoke check: proves that DISABLED telemetry is
// effectively free on a hot path. The engine's kernels are instrumented
// unconditionally — a disabled registry hands out spans that read no clock
// and latency instruments that stay empty, while its counters still count
// (one relaxed atomic add: they are the engine's only record of its
// events) — so the cost of compiling telemetry into the tree must be
// measurable as ~zero.
//
// Method: a benefit-scan-like work loop (fold of x*log(x) over a row, the
// granularity of one Top-K candidate evaluation) is timed bare and with
// exactly the instrument calls the real hot path makes per candidate (one
// Counter::Add on the disabled registry) plus one disabled Span per row
// sweep. The two run
// as a pair of ~1 ms trials, back to back, kPairs times, alternating which
// side runs first; the overhead is the median of the pairs' ratios. Host
// speed drifts over milliseconds on a shared machine, so only trials run
// side by side are comparable, and the median ignores the pairs a
// scheduler burst hit. The check fails (exit 1) if that median exceeds the
// threshold.
//
// The same pairing measures the ENABLED registry with an attached flight
// recorder (util/flight_recorder.h): every span then also appends two ring
// events. That cost is informational — tracing is an opt-in debugging mode
// with its own budget (DESIGN.md §13) — but the trial proves the recorder
// records under load and keeps its cost observable release to release.
//
// The disabled registry must also have timed nothing (its span histogram
// is empty) and counted every instrumented row, warm-up included.
//
// tools/run_checks.sh runs this as its telemetry-overhead stage with the
// default 2% threshold.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "util/flight_recorder.h"
#include "util/stats.h"
#include "util/telemetry.h"
#include "util/telemetry_names.h"

namespace qasca {
namespace {

constexpr int kRowLength = 64;
// About 1 ms of work per trial.
constexpr int kRowsPerTrial = 2500;
// Odd, so the median is one pair's ratio.
constexpr int kPairs = 101;

// One candidate-evaluation-sized unit of work. Kept out of line so both
// trials run the same machine code for the work and differ only by the
// instrument calls: inlined, each trial compiled its own copy of the loop,
// and where the two copies landed moved the paired ratio by up to 2%.
__attribute__((noinline)) double ScanRow(const std::vector<double>& row) {
  double acc = 0.0;
  for (double x : row) acc += x * std::log(x);
  return acc;
}

double BareTrial(const std::vector<double>& row) {
  util::Stopwatch stopwatch;
  double acc = 0.0;
  for (int i = 0; i < kRowsPerTrial; ++i) acc += ScanRow(row);
  const double seconds = stopwatch.ElapsedSeconds();
  // Defeat dead-code elimination.
  if (acc == 0.12345) std::fprintf(stderr, "%f\n", acc);
  return seconds;
}

double InstrumentedTrial(const std::vector<double>& row,
                         util::MetricRegistry* registry) {
  util::Counter* scanned =
      registry->GetCounter(util::tnames::kTopkCandidatesScanned);
  util::Stopwatch stopwatch;
  double acc = 0.0;
  for (int i = 0; i < kRowsPerTrial; ++i) {
    util::Span span(registry, util::tnames::kSpanTopkScan);
    acc += ScanRow(row);
    scanned->Add(1);
  }
  const double seconds = stopwatch.ElapsedSeconds();
  if (acc == 0.12345) std::fprintf(stderr, "%f\n", acc);
  return seconds;
}

double Median(std::vector<double> values) {
  const auto middle = values.begin() + values.size() / 2;
  std::nth_element(values.begin(), middle, values.end());
  return *middle;
}

struct PairedResult {
  double bare_ms = 0.0;  // median bare trial
  double overhead = 0.0;  // median of instrumented / bare - 1 per pair
};

// Times kPairs (bare, instrumented) pairs; odd pairs run the instrumented
// trial first, so neither side always inherits the other's cache state.
PairedResult MeasurePairs(const std::vector<double>& row,
                          util::MetricRegistry* registry) {
  std::vector<double> bare(kPairs), ratios(kPairs);
  for (int pair = 0; pair < kPairs; ++pair) {
    double instrumented = 0.0;
    if (pair % 2 == 0) {
      bare[pair] = BareTrial(row);
      instrumented = InstrumentedTrial(row, registry);
    } else {
      instrumented = InstrumentedTrial(row, registry);
      bare[pair] = BareTrial(row);
    }
    ratios[pair] = instrumented / bare[pair] - 1.0;
  }
  return {Median(bare) * 1e3, Median(ratios)};
}

int Main(int argc, char** argv) {
  double threshold = 0.02;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      threshold = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_telemetry_overhead [--threshold FRACTION]\n");
      return 2;
    }
  }

  std::vector<double> row(kRowLength);
  for (int i = 0; i < kRowLength; ++i) {
    row[static_cast<size_t>(i)] = 0.25 + 0.5 * (i % 3) / 2.0;
  }

  util::MetricRegistry disabled(false);
  util::MetricRegistry recording(true);
  util::FlightRecorder recorder(1 << 16);
  recording.AttachFlightRecorder(&recorder);

  // Warm up all paths once before timing.
  BareTrial(row);
  InstrumentedTrial(row, &disabled);
  InstrumentedTrial(row, &recording);

  const PairedResult off = MeasurePairs(row, &disabled);
  const PairedResult on = MeasurePairs(row, &recording);
  const double overhead = off.overhead;
  std::printf(
      "telemetry-overhead: %d pairs, bare %.3f ms, instrumented(disabled) "
      "overhead %+.2f%% paired median (threshold %.1f%%)\n",
      kPairs, off.bare_ms, overhead * 100.0, threshold * 100.0);
  // Informational: enabled registry + flight recorder (per-span ring
  // appends). Not thresholded — tracing is opt-in — but the recorder must
  // actually have recorded, else the "cost" was measuring a dead branch.
  std::printf(
      "telemetry-overhead: instrumented(recording) overhead %+.2f%% paired "
      "median (informational), %lld ring events\n",
      on.overhead * 100.0, static_cast<long long>(recorder.total_events()));
  if (recorder.total_events() <= 0) {
    std::fprintf(stderr,
                 "FAIL: attached flight recorder captured no events\n");
    return 1;
  }

  // The disabled registry read no clock, and its counter counted every
  // instrumented row: the warm-up trial plus one trial per pair.
  if (disabled.GetLatency(util::tnames::kSpanTopkScan)->count() != 0) {
    std::fprintf(stderr,
                 "FAIL: disabled registry timed spans — clock gate broken\n");
    return 1;
  }
  const int64_t expected_rows = int64_t{kPairs + 1} * kRowsPerTrial;
  const int64_t counted =
      disabled.GetCounter(util::tnames::kTopkCandidatesScanned)->value();
  if (counted != expected_rows) {
    std::fprintf(stderr,
                 "FAIL: disabled registry counted %lld rows, expected %lld — "
                 "counters must always count\n",
                 static_cast<long long>(counted),
                 static_cast<long long>(expected_rows));
    return 1;
  }
  if (overhead > threshold) {
    std::fprintf(stderr, "FAIL: disabled-telemetry overhead %.2f%% > %.1f%%\n",
                 overhead * 100.0, threshold * 100.0);
    return 1;
  }
  std::puts("telemetry-overhead: OK");
  return 0;
}

}  // namespace
}  // namespace qasca

int main(int argc, char** argv) { return qasca::Main(argc, argv); }
