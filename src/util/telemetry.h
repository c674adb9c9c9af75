#ifndef QASCA_UTIL_TELEMETRY_H_
#define QASCA_UTIL_TELEMETRY_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/lock_ranks.h"
#include "util/mutex.h"
#include "util/stats.h"
#include "util/thread_annotations.h"

namespace qasca::util {

class FlightRecorder;
class MetricRegistry;

/// Shared bucketing for every latency instrument: buckets indexed by
/// bit_width(nanoseconds), so bucket b holds durations in [2^(b-1), 2^b) ns
/// and bucket 0 holds sub-nanosecond (clock-resolution) samples. 65 buckets
/// cover the full uint64 nanosecond range.
inline constexpr int kLog2LatencyBuckets = 65;

/// Monotone event counter. Add() is wait-free (one relaxed fetch_add) and
/// records whether or not the owning registry is enabled: a counter is the
/// one count of its event (engine accessors such as completed_hits() read
/// it), so it must not depend on configuration. Only instruments that read
/// a clock are gated by the registry flag.
class Counter {
 public:
  void Add(int64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  const std::string& name() const noexcept { return name_; }

 private:
  friend class MetricRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<int64_t> value_{0};
};

/// Last-value-wins gauge (e.g. open HITs, latest refresh drift). Set()
/// records whether or not the registry is enabled, like Counter::Add().
class Gauge {
 public:
  void Set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  const std::string& name() const noexcept { return name_; }

 private:
  friend class MetricRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Latency distribution of one stage: exact count / mean / min / max via
/// RunningStats plus a log2-of-nanoseconds bucket Histogram for quantile
/// estimates (p50/p95/p99). Thread-safe; each Record takes one short
/// mutex-guarded update, which is negligible against the stages measured
/// (every span covers at least a full kernel sweep).
class LatencyHistogram {
 public:
  void RecordSeconds(double seconds) noexcept QASCA_EXCLUDES(mutex_);

  int64_t count() const QASCA_EXCLUDES(mutex_);
  double total_seconds() const QASCA_EXCLUDES(mutex_);
  double mean_seconds() const QASCA_EXCLUDES(mutex_);
  double max_seconds() const QASCA_EXCLUDES(mutex_);
  /// Quantile estimate in seconds: exact min/max at p<=0 / p>=1, otherwise
  /// linear interpolation of the rank's position within the log2 bucket
  /// that holds it (error bounded by the bucket width), clamped to the
  /// observed [min, max].
  double Percentile(double p) const QASCA_EXCLUDES(mutex_);

  const std::string& name() const noexcept { return name_; }

 private:
  friend class MetricRegistry;
  LatencyHistogram(std::string name, bool enabled)
      : name_(std::move(name)),
        enabled_(enabled),
        log2_ns_(0.0, kLog2LatencyBuckets, kLog2LatencyBuckets) {}

  double PercentileLocked(double p) const QASCA_REQUIRES(mutex_);

  const std::string name_;
  const bool enabled_;
  mutable Mutex mutex_{lock_ranks::kLatencyHistogram};
  RunningStats stats_ QASCA_GUARDED_BY(mutex_);  // seconds
  Histogram log2_ns_ QASCA_GUARDED_BY(mutex_);
};

/// Sliding-window latency percentiles: the last `window` samples as log2-ns
/// bucket indices in a ring, plus an incrementally maintained bucket-count
/// array — O(1) per record, O(kLog2LatencyBuckets) per percentile query.
/// Lifetime aggregates answer "how fast is this stage overall"; this
/// answers "how fast is it *right now*", which is what an SLO needs
/// (DESIGN.md §13). One byte per window slot, so a 512-sample window costs
/// 512 bytes.
///
/// Thread-safe like LatencyHistogram: one short mutex-guarded update per
/// record.
class WindowedLatency {
 public:
  void RecordSeconds(double seconds) noexcept QASCA_EXCLUDES(mutex_);

  /// Samples ever recorded (not just those still in the window).
  int64_t count() const QASCA_EXCLUDES(mutex_);
  /// Window size in samples.
  int window() const noexcept { return window_; }
  /// Quantile estimate in seconds over the samples currently in the window
  /// (linear interpolation inside the holding log2 bucket, like
  /// LatencyHistogram::Percentile). 0 when the window is empty.
  double Percentile(double p) const QASCA_EXCLUDES(mutex_);

  const std::string& name() const noexcept { return name_; }

 private:
  friend class MetricRegistry;
  WindowedLatency(std::string name, bool enabled, int window);

  const std::string name_;
  const bool enabled_;
  const int window_;
  mutable Mutex mutex_{lock_ranks::kWindowedLatency};
  /// Ring of log2 bucket indices, one per retained sample.
  std::vector<uint8_t> ring_ QASCA_GUARDED_BY(mutex_);
  int64_t total_ QASCA_GUARDED_BY(mutex_) = 0;
  /// Bucket counts over the samples currently in the ring.
  std::array<int32_t, kLog2LatencyBuckets> buckets_ QASCA_GUARDED_BY(mutex_);
};

/// Snapshot structs: the stable, lock-free-to-read view the exporters and
/// Engine::TelemetrySnapshot() hand out.
struct CounterSnapshot {
  std::string name;
  int64_t value = 0;
};
struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};
struct LatencySnapshot {
  std::string name;
  int64_t count = 0;
  double total_seconds = 0.0;
  double mean_seconds = 0.0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
  double max_seconds = 0.0;
};
struct WindowSnapshot {
  std::string name;
  int window = 0;
  int64_t count = 0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
};
struct TelemetrySnapshot {
  bool enabled = false;
  std::vector<CounterSnapshot> counters;   // name-sorted
  std::vector<GaugeSnapshot> gauges;       // name-sorted
  std::vector<LatencySnapshot> latencies;  // name-sorted
  std::vector<WindowSnapshot> windows;     // name-sorted
};

/// Process- or engine-scoped registry of named instruments. Get* is
/// get-or-create (mutex-guarded map lookup; hot paths resolve instruments
/// once and keep the pointer — returned pointers are stable for the
/// registry's lifetime). The enabled flag gates only what reads a clock:
/// a disabled registry's spans read none, and its latency histograms and
/// windows stay empty, while its counters and gauges record as always.
/// Instrumented code never branches on telemetry configuration itself.
///
/// Instrument names must come from util/telemetry_names.h (span names are
/// lint-enforced; see tools/lint_invariants.py).
class MetricRegistry {
 public:
  explicit MetricRegistry(bool enabled = true) : enabled_(enabled) {}

  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  bool enabled() const noexcept { return enabled_; }

  Counter* GetCounter(std::string_view name) QASCA_EXCLUDES(mutex_);
  Gauge* GetGauge(std::string_view name) QASCA_EXCLUDES(mutex_);
  LatencyHistogram* GetLatency(std::string_view name) QASCA_EXCLUDES(mutex_);
  /// Get-or-create a sliding-window latency instrument. `window` applies on
  /// creation only; later calls return the existing instrument regardless.
  WindowedLatency* GetWindowed(std::string_view name, int window)
      QASCA_EXCLUDES(mutex_);

  /// Attaches a flight recorder: every enabled Span additionally appends
  /// begin/end events to it (util/flight_recorder.h). Must be called before
  /// the registry is shared across threads (the engine attaches in its
  /// constructor); pass nullptr to detach. The registry does not own the
  /// recorder.
  void AttachFlightRecorder(FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }
  FlightRecorder* flight_recorder() const noexcept { return recorder_; }

  TelemetrySnapshot Snapshot() const QASCA_EXCLUDES(mutex_);

  /// One JSON object: {"enabled":..,"counters":{..},"gauges":{..},
  /// "latencies":{"name":{"count":..,"p50_ms":..,...},..}}. Served per app
  /// by AppManager::AppTelemetryJson.
  std::string ToJson() const;

  /// Human-readable per-stage report (aligned tables) for CLI output
  /// (tools/qasca_sim --telemetry).
  std::string ToReport() const;

 private:
  /// `args` follow the name into T's constructor on creation only.
  template <typename T, typename... Args>
  T* GetOrCreate(std::map<std::string, std::unique_ptr<T>, std::less<>>* map,
                 std::string_view name, Args... args) QASCA_EXCLUDES(mutex_);

  const bool enabled_;
  // Written once before the registry goes concurrent (see
  // AttachFlightRecorder), read on every enabled span.
  FlightRecorder* recorder_ = nullptr;
  mutable Mutex mutex_{lock_ranks::kMetricRegistry};
  // std::map keeps exports deterministically name-sorted. The pointed-to
  // instruments are internally synchronised (atomics / their own mutex_),
  // so only the maps themselves are guarded.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      QASCA_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      QASCA_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      latencies_ QASCA_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<WindowedLatency>, std::less<>>
      windows_ QASCA_GUARDED_BY(mutex_);
};

/// RAII scoped timer in the spirit of Dapper-style span tracing: on
/// destruction records the elapsed wall time into the registry's latency
/// histogram of the same name. Spans nest — each thread tracks its active
/// span, so a span opened inside another (assign_hit -> estimate_qw ->
/// dinkelbach_inner) knows its parent and depth. With a null or disabled
/// registry construction is two branches and no clock read.
///
/// The `name` argument must be a tnames::kSpan* constant from
/// util/telemetry_names.h (lint-enforced).
class Span {
 public:
  // The disabled path is fully inline — two predictable branches, no clock
  // read, no out-of-line call — so instrumented hot loops cost nothing when
  // telemetry is off (bench_telemetry_overhead enforces < 2%).
  Span(MetricRegistry* registry, const char* name) noexcept : name_(name) {
    if (registry != nullptr && registry->enabled()) Start(registry);
  }
  ~Span() {
    if (histogram_ != nullptr) Finish();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  const char* name() const noexcept { return name_; }
  /// Nesting depth: 0 for a root span. 0 when disabled.
  int depth() const noexcept { return depth_; }
  const Span* parent() const noexcept { return parent_; }

  /// The innermost span currently active on this thread (nullptr outside
  /// any enabled span).
  static const Span* current() noexcept;

 private:
  void Start(MetricRegistry* registry) noexcept;
  void Finish() noexcept;

  const char* name_;
  LatencyHistogram* histogram_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
  const Span* parent_ = nullptr;
  int depth_ = 0;
  std::chrono::steady_clock::time_point start_{};
};

/// Tracks one stage against a p95 latency target over a sliding window:
/// records every sample into a WindowedLatency, counts samples over the
/// target, publishes the window p95 as a gauge, and counts *breach
/// transitions* (window p95 crossing from <= target to > target), so
/// "how many times did we blow the SLO" is one counter read rather than a
/// log dive. All instruments live in the owning registry under the caller's
/// registered names, so they ride the existing exports; the accessors read
/// those instruments. The window is a clock instrument, so on a disabled
/// registry it stays empty and its p95 reads 0 (the engine keeps the
/// registry enabled whenever it builds a tracker).
///
/// RecordSeconds must be called from one thread at a time (the engine's
/// external-synchronization contract); reads are safe from anywhere via the
/// registry instruments.
class SloTracker {
 public:
  struct Options {
    /// The p95 target in seconds; samples and the window p95 are judged
    /// against this.
    double target_p95_seconds = 0.0;
    /// Sliding-window size in samples for the p95 estimate.
    int window = 512;
  };
  /// Instrument names (tnames constants) the tracker publishes under.
  struct Instruments {
    const char* window_name;        // WindowedLatency
    const char* over_target_name;   // Counter: samples over target
    const char* breaches_name;      // Counter: breach transitions
    const char* window_p95_name;    // Gauge: current window p95, in ms
  };

  SloTracker(MetricRegistry* registry, const Instruments& instruments,
             const Options& options);

  void RecordSeconds(double seconds) noexcept;

  /// Current window p95 in seconds.
  double WindowP95() const { return window_->Percentile(0.95); }
  bool in_breach() const noexcept { return in_breach_; }
  int64_t breaches() const noexcept { return breach_counter_->value(); }
  int64_t samples_over_target() const noexcept {
    return over_target_->value();
  }
  double target_p95_seconds() const noexcept {
    return options_.target_p95_seconds;
  }

 private:
  Options options_;
  WindowedLatency* window_;
  Counter* over_target_;
  Counter* breach_counter_;
  Gauge* window_p95_gauge_;
  bool in_breach_ = false;
};

}  // namespace qasca::util

#endif  // QASCA_UTIL_TELEMETRY_H_
