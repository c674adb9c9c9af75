#include "util/telemetry.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "util/flight_recorder.h"
#include "util/json.h"
#include "util/mutex.h"

namespace qasca::util {
namespace {

// Innermost enabled span on this thread; spans form an intrusive stack.
thread_local const Span* g_current_span = nullptr;

double MsFromSeconds(double seconds) { return seconds * 1e3; }

// Log2 bucket index of a duration, shared by both latency instruments:
// bit_width(ns), so bucket b holds [2^(b-1), 2^b) ns and bucket 0 holds
// sub-nanosecond samples.
int Log2BucketOfSeconds(double seconds) noexcept {
  seconds = std::max(seconds, 0.0);
  const auto ns = static_cast<uint64_t>(seconds * 1e9);
  return std::bit_width(ns);
}

// Linear interpolation inside log2 bucket b at fraction f in [0, 1): the
// bucket spans [2^(b-1), 2^b) ns (bucket 0: [0, 1) ns), so any returned
// value is within one bucket width of the true sample — the error bound
// the percentile unit test pins.
double InterpolateLog2BucketNs(int b, double f) {
  const double lo = b == 0 ? 0.0 : std::ldexp(1.0, b - 1);
  const double hi = std::ldexp(1.0, b == 0 ? 0 : b);
  return lo + (hi - lo) * f;
}

// Rank walk shared by both latency instruments: finds the bucket holding
// `rank` (0-based over the sorted samples) and interpolates the rank's
// position within it. Returns nanoseconds.
double PercentileNsFromBuckets(const int64_t* counts, int num_buckets,
                               int64_t rank) {
  int64_t cumulative = 0;
  for (int b = 0; b < num_buckets; ++b) {
    const int64_t in_bucket = counts[b];
    if (cumulative + in_bucket > rank) {
      const double f = static_cast<double>(rank - cumulative) /
                       static_cast<double>(in_bucket);
      return InterpolateLog2BucketNs(b, f);
    }
    cumulative += in_bucket;
  }
  return InterpolateLog2BucketNs(num_buckets - 1, 1.0);
}

}  // namespace

void LatencyHistogram::RecordSeconds(double seconds) noexcept {
  if (!enabled_) return;
  seconds = std::max(seconds, 0.0);
  const auto log2_bucket = static_cast<double>(Log2BucketOfSeconds(seconds));
  MutexLock lock(mutex_);
  stats_.Add(seconds);
  log2_ns_.Add(log2_bucket);
}

int64_t LatencyHistogram::count() const {
  MutexLock lock(mutex_);
  return stats_.count();
}

double LatencyHistogram::total_seconds() const {
  MutexLock lock(mutex_);
  return stats_.mean() * static_cast<double>(stats_.count());
}

double LatencyHistogram::mean_seconds() const {
  MutexLock lock(mutex_);
  return stats_.mean();
}

double LatencyHistogram::max_seconds() const {
  MutexLock lock(mutex_);
  return stats_.count() > 0 ? stats_.max() : 0.0;
}

double LatencyHistogram::PercentileLocked(double p) const {
  const int64_t total = stats_.count();
  if (total == 0) return 0.0;
  if (p <= 0.0) return stats_.min();
  if (p >= 1.0) return stats_.max();
  // Rank of the requested quantile among the sorted samples, then linear
  // interpolation of the rank's position within the log2 bucket holding it.
  const auto rank = static_cast<int64_t>(p * static_cast<double>(total - 1));
  std::array<int64_t, kLog2LatencyBuckets> counts{};
  for (int b = 0; b < log2_ns_.buckets(); ++b) counts[b] = log2_ns_.count(b);
  const double ns =
      PercentileNsFromBuckets(counts.data(), log2_ns_.buckets(), rank);
  return std::clamp(ns * 1e-9, stats_.min(), stats_.max());
}

WindowedLatency::WindowedLatency(std::string name, bool enabled, int window)
    : name_(std::move(name)), enabled_(enabled), window_(std::max(1, window)) {
  MutexLock lock(mutex_);
  ring_.reserve(static_cast<size_t>(window_));
  buckets_.fill(0);
}

void WindowedLatency::RecordSeconds(double seconds) noexcept {
  if (!enabled_) return;
  const auto bucket = static_cast<uint8_t>(Log2BucketOfSeconds(seconds));
  MutexLock lock(mutex_);
  if (static_cast<int>(ring_.size()) < window_) {
    ring_.push_back(bucket);
  } else {
    // Overwrite the oldest sample, retiring its bucket count.
    uint8_t& slot = ring_[static_cast<size_t>(total_ % window_)];
    --buckets_[slot];
    slot = bucket;
  }
  ++buckets_[bucket];
  ++total_;
}

int64_t WindowedLatency::count() const {
  MutexLock lock(mutex_);
  return total_;
}

double WindowedLatency::Percentile(double p) const {
  MutexLock lock(mutex_);
  const auto in_window = static_cast<int64_t>(ring_.size());
  if (in_window == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const auto rank =
      static_cast<int64_t>(p * static_cast<double>(in_window - 1));
  std::array<int64_t, kLog2LatencyBuckets> counts{};
  for (int b = 0; b < kLog2LatencyBuckets; ++b) counts[b] = buckets_[b];
  return PercentileNsFromBuckets(counts.data(), kLog2LatencyBuckets, rank) *
         1e-9;
}

double LatencyHistogram::Percentile(double p) const {
  MutexLock lock(mutex_);
  return PercentileLocked(p);
}

template <typename T, typename... Args>
T* MetricRegistry::GetOrCreate(
    std::map<std::string, std::unique_ptr<T>, std::less<>>* map,
    std::string_view name, Args... args) {
  MutexLock lock(mutex_);
  auto it = map->find(name);
  if (it == map->end()) {
    it = map->emplace(std::string(name),
                      std::unique_ptr<T>(new T(std::string(name), args...)))
             .first;
  }
  return it->second.get();
}

Counter* MetricRegistry::GetCounter(std::string_view name) {
  return GetOrCreate(&counters_, name);
}

Gauge* MetricRegistry::GetGauge(std::string_view name) {
  return GetOrCreate(&gauges_, name);
}

LatencyHistogram* MetricRegistry::GetLatency(std::string_view name) {
  return GetOrCreate(&latencies_, name, enabled_);
}

WindowedLatency* MetricRegistry::GetWindowed(std::string_view name,
                                             int window) {
  return GetOrCreate(&windows_, name, enabled_, window);
}

TelemetrySnapshot MetricRegistry::Snapshot() const {
  TelemetrySnapshot snapshot;
  snapshot.enabled = enabled_;
  MutexLock lock(mutex_);
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, gauge->value()});
  }
  snapshot.latencies.reserve(latencies_.size());
  for (const auto& [name, latency] : latencies_) {
    LatencySnapshot entry;
    entry.name = name;
    MutexLock latency_lock(latency->mutex_);
    entry.count = latency->stats_.count();
    entry.mean_seconds = latency->stats_.mean();
    entry.total_seconds =
        entry.mean_seconds * static_cast<double>(entry.count);
    entry.p50_seconds = latency->PercentileLocked(0.50);
    entry.p95_seconds = latency->PercentileLocked(0.95);
    entry.p99_seconds = latency->PercentileLocked(0.99);
    entry.max_seconds = entry.count > 0 ? latency->stats_.max() : 0.0;
    snapshot.latencies.push_back(std::move(entry));
  }
  snapshot.windows.reserve(windows_.size());
  for (const auto& [name, window] : windows_) {
    WindowSnapshot entry;
    entry.name = name;
    entry.window = window->window();
    entry.count = window->count();
    entry.p50_seconds = window->Percentile(0.50);
    entry.p95_seconds = window->Percentile(0.95);
    entry.p99_seconds = window->Percentile(0.99);
    snapshot.windows.push_back(std::move(entry));
  }
  return snapshot;
}

std::string MetricRegistry::ToJson() const {
  const TelemetrySnapshot snapshot = Snapshot();
  std::string out = "{\"enabled\":";
  out += snapshot.enabled ? "true" : "false";
  out += ",\"counters\":{";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i > 0) out += ',';
    AppendJsonString(out, snapshot.counters[i].name);
    out += ':';
    out += std::to_string(snapshot.counters[i].value);
  }
  out += "},\"gauges\":{";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    if (i > 0) out += ',';
    AppendJsonString(out, snapshot.gauges[i].name);
    out += ':';
    AppendJsonNumber(out, snapshot.gauges[i].value);
  }
  out += "},\"latencies\":{";
  for (size_t i = 0; i < snapshot.latencies.size(); ++i) {
    const LatencySnapshot& latency = snapshot.latencies[i];
    if (i > 0) out += ',';
    AppendJsonString(out, latency.name);
    out += ":{\"count\":";
    out += std::to_string(latency.count);
    const std::pair<const char*, double> fields[] = {
        {"p50_ms", latency.p50_seconds},   {"p95_ms", latency.p95_seconds},
        {"p99_ms", latency.p99_seconds},   {"max_ms", latency.max_seconds},
        {"mean_ms", latency.mean_seconds}, {"total_ms", latency.total_seconds},
    };
    for (const auto& [key, seconds] : fields) {
      out += ",\"";
      out += key;
      out += "\":";
      AppendJsonNumber(out, MsFromSeconds(seconds));
    }
    out += '}';
  }
  out += "},\"windows\":{";
  for (size_t i = 0; i < snapshot.windows.size(); ++i) {
    const WindowSnapshot& window = snapshot.windows[i];
    if (i > 0) out += ',';
    AppendJsonString(out, window.name);
    out += ":{\"window\":";
    out += std::to_string(window.window);
    out += ",\"count\":";
    out += std::to_string(window.count);
    const std::pair<const char*, double> fields[] = {
        {"p50_ms", window.p50_seconds},
        {"p95_ms", window.p95_seconds},
        {"p99_ms", window.p99_seconds},
    };
    for (const auto& [key, seconds] : fields) {
      out += ",\"";
      out += key;
      out += "\":";
      AppendJsonNumber(out, MsFromSeconds(seconds));
    }
    out += '}';
  }
  out += "}}";
  return out;
}

std::string MetricRegistry::ToReport() const {
  const TelemetrySnapshot snapshot = Snapshot();
  if (!snapshot.enabled) {
    return "telemetry disabled (AppConfig::telemetry_enabled = false)\n";
  }
  std::string out;
  char line[256];
  out += "-- stage latencies (ms) --\n";
  std::snprintf(line, sizeof(line), "%-20s %8s %10s %10s %10s %10s %12s\n",
                "span", "count", "p50", "p95", "p99", "max", "total");
  out += line;
  for (const LatencySnapshot& latency : snapshot.latencies) {
    std::snprintf(line, sizeof(line),
                  "%-20s %8lld %10.4f %10.4f %10.4f %10.4f %12.4f\n",
                  latency.name.c_str(),
                  static_cast<long long>(latency.count),
                  MsFromSeconds(latency.p50_seconds),
                  MsFromSeconds(latency.p95_seconds),
                  MsFromSeconds(latency.p99_seconds),
                  MsFromSeconds(latency.max_seconds),
                  MsFromSeconds(latency.total_seconds));
    out += line;
  }
  out += "-- counters --\n";
  for (const CounterSnapshot& counter : snapshot.counters) {
    std::snprintf(line, sizeof(line), "%-28s %12lld\n",
                  counter.name.c_str(),
                  static_cast<long long>(counter.value));
    out += line;
  }
  if (!snapshot.gauges.empty()) {
    out += "-- gauges --\n";
    for (const GaugeSnapshot& gauge : snapshot.gauges) {
      std::snprintf(line, sizeof(line), "%-28s %12.6f\n",
                    gauge.name.c_str(), gauge.value);
      out += line;
    }
  }
  if (!snapshot.windows.empty()) {
    out += "-- sliding windows (ms) --\n";
    std::snprintf(line, sizeof(line), "%-20s %8s %8s %10s %10s %10s\n",
                  "window", "size", "count", "p50", "p95", "p99");
    out += line;
    for (const WindowSnapshot& window : snapshot.windows) {
      std::snprintf(line, sizeof(line),
                    "%-20s %8d %8lld %10.4f %10.4f %10.4f\n",
                    window.name.c_str(), window.window,
                    static_cast<long long>(window.count),
                    MsFromSeconds(window.p50_seconds),
                    MsFromSeconds(window.p95_seconds),
                    MsFromSeconds(window.p99_seconds));
      out += line;
    }
  }
  return out;
}

void Span::Start(MetricRegistry* registry) noexcept {
  histogram_ = registry->GetLatency(name_);
  recorder_ = registry->flight_recorder();
  parent_ = g_current_span;
  depth_ = parent_ != nullptr ? parent_->depth_ + 1 : 0;
  g_current_span = this;
  // Flight-recorder begin event before the histogram clock read so the
  // recorded interval nests strictly inside the B/E pair.
  if (recorder_ != nullptr) recorder_->RecordBegin(name_);
  start_ = std::chrono::steady_clock::now();
}

void Span::Finish() noexcept {
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  if (recorder_ != nullptr) recorder_->RecordEnd(name_);
  g_current_span = parent_;
  histogram_->RecordSeconds(seconds);
}

const Span* Span::current() noexcept { return g_current_span; }

SloTracker::SloTracker(MetricRegistry* registry,
                       const Instruments& instruments, const Options& options)
    : options_(options),
      window_(registry->GetWindowed(instruments.window_name, options.window)),
      over_target_(registry->GetCounter(instruments.over_target_name)),
      breach_counter_(registry->GetCounter(instruments.breaches_name)),
      window_p95_gauge_(registry->GetGauge(instruments.window_p95_name)) {}

void SloTracker::RecordSeconds(double seconds) noexcept {
  window_->RecordSeconds(seconds);
  if (seconds > options_.target_p95_seconds) over_target_->Add(1);
  const double p95 = window_->Percentile(0.95);
  window_p95_gauge_->Set(MsFromSeconds(p95));
  if (p95 > options_.target_p95_seconds) {
    if (!in_breach_) {
      in_breach_ = true;
      breach_counter_->Add(1);
    }
  } else {
    in_breach_ = false;
  }
}

}  // namespace qasca::util
