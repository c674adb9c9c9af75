#include "util/telemetry.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/telemetry_names.h"

namespace qasca::util {
namespace {

TEST(MetricRegistryTest, GetOrCreateReturnsStablePointers) {
  MetricRegistry registry(true);
  Counter* a = registry.GetCounter("a");
  Counter* again = registry.GetCounter("a");
  EXPECT_EQ(a, again);
  EXPECT_EQ(a->name(), "a");
  Gauge* g = registry.GetGauge("g");
  EXPECT_EQ(registry.GetGauge("g"), g);
  LatencyHistogram* h = registry.GetLatency("h");
  EXPECT_EQ(registry.GetLatency("h"), h);
  // Same name in different instrument kinds is fine: separate maps.
  EXPECT_NE(static_cast<void*>(registry.GetCounter("x")),
            static_cast<void*>(registry.GetGauge("x")));
}

TEST(MetricRegistryTest, CounterAndGaugeRecord) {
  MetricRegistry registry(true);
  Counter* c = registry.GetCounter("c");
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->value(), 42);
  Gauge* g = registry.GetGauge("g");
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(g->value(), 2.5);
}

// The flag gates only the instruments that read a clock: a disabled
// registry still counts and sets gauges (they are the engine's only record
// of its events), while its latency histogram and window stay empty.
TEST(MetricRegistryTest, DisabledInstrumentsAreNoOps) {
  MetricRegistry registry(false);
  EXPECT_FALSE(registry.enabled());
  Counter* c = registry.GetCounter("c");
  c->Add(100);
  EXPECT_EQ(c->value(), 100);
  Gauge* g = registry.GetGauge("g");
  g->Set(3.0);
  EXPECT_DOUBLE_EQ(g->value(), 3.0);
  LatencyHistogram* h = registry.GetLatency("h");
  h->RecordSeconds(1.0);
  EXPECT_EQ(h->count(), 0);
  WindowedLatency* w = registry.GetWindowed("w", 4);
  w->RecordSeconds(1.0);
  EXPECT_EQ(w->count(), 0);
  EXPECT_DOUBLE_EQ(w->Percentile(0.95), 0.0);
  TelemetrySnapshot snapshot = registry.Snapshot();
  EXPECT_FALSE(snapshot.enabled);
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].value, 100);
}

TEST(MetricRegistryTest, SnapshotIsNameSorted) {
  MetricRegistry registry(true);
  registry.GetCounter("zebra")->Add(1);
  registry.GetCounter("apple")->Add(2);
  registry.GetCounter("mango")->Add(3);
  TelemetrySnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].name, "apple");
  EXPECT_EQ(snapshot.counters[1].name, "mango");
  EXPECT_EQ(snapshot.counters[2].name, "zebra");
  EXPECT_EQ(snapshot.counters[0].value, 2);
}

// The concurrency contract: many threads hammering the same instruments
// must lose no increments and produce exact final counts.
TEST(MetricRegistryThreadsTest, ConcurrentCountersAreExact) {
  MetricRegistry registry(true);
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 20000;
  Counter* shared = registry.GetCounter("shared");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, shared, t] {
      // Mix pre-resolved and get-or-create lookups so map access races
      // with recording.
      Counter* own =
          registry.GetCounter("per_thread." + std::to_string(t % 2));
      LatencyHistogram* lat = registry.GetLatency("lat");
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        shared->Add(1);
        own->Add(2);
        lat->RecordSeconds(1e-6);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(shared->value(), kThreads * kIncrementsPerThread);
  EXPECT_EQ(registry.GetCounter("per_thread.0")->value() +
                registry.GetCounter("per_thread.1")->value(),
            int64_t{2} * kThreads * kIncrementsPerThread);
  EXPECT_EQ(registry.GetLatency("lat")->count(),
            int64_t{kThreads} * kIncrementsPerThread);
}

TEST(LatencyHistogramTest, PercentilesAreMonotoneAndBounded) {
  MetricRegistry registry(true);
  LatencyHistogram* h = registry.GetLatency("h");
  // Spread samples over several orders of magnitude.
  for (int i = 0; i < 100; ++i) h->RecordSeconds(1e-6);
  for (int i = 0; i < 10; ++i) h->RecordSeconds(1e-3);
  h->RecordSeconds(1e-1);
  EXPECT_EQ(h->count(), 111);
  const double p50 = h->Percentile(0.50);
  const double p95 = h->Percentile(0.95);
  const double p99 = h->Percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // All quantiles clamp to the observed range.
  EXPECT_GE(p50, 1e-6 * 0.9);
  EXPECT_LE(p99, h->max_seconds());
  // The p50 must sit near the dominant 1us mode, far from the 1ms tail.
  EXPECT_LT(p50, 1e-4);
  EXPECT_DOUBLE_EQ(h->Percentile(0.0), 1e-6);
  EXPECT_DOUBLE_EQ(h->Percentile(1.0), 1e-1);
  EXPECT_NEAR(h->total_seconds(), 100 * 1e-6 + 10 * 1e-3 + 1e-1, 1e-9);
}

TEST(SpanTest, NestingTracksDepthAndParent) {
  MetricRegistry registry(true);
  EXPECT_EQ(Span::current(), nullptr);
  {
    Span outer(&registry, tnames::kSpanAssignHit);
    EXPECT_EQ(Span::current(), &outer);
    EXPECT_EQ(outer.depth(), 0);
    EXPECT_EQ(outer.parent(), nullptr);
    {
      Span mid(&registry, tnames::kSpanEstimateQw);
      Span inner(&registry, tnames::kSpanDinkelbachInner);
      EXPECT_EQ(Span::current(), &inner);
      EXPECT_EQ(inner.depth(), 2);
      EXPECT_EQ(inner.parent(), &mid);
      EXPECT_EQ(mid.parent(), &outer);
      EXPECT_STREQ(inner.name(), "dinkelbach_inner");
    }
    EXPECT_EQ(Span::current(), &outer);
  }
  EXPECT_EQ(Span::current(), nullptr);
  // Each span recorded exactly one sample into its histogram.
  EXPECT_EQ(registry.GetLatency(tnames::kSpanAssignHit)->count(), 1);
  EXPECT_EQ(registry.GetLatency(tnames::kSpanEstimateQw)->count(), 1);
  EXPECT_EQ(registry.GetLatency(tnames::kSpanDinkelbachInner)->count(), 1);
  // A child's elapsed time is contained in its parent's.
  EXPECT_LE(registry.GetLatency(tnames::kSpanEstimateQw)->max_seconds(),
            registry.GetLatency(tnames::kSpanAssignHit)->max_seconds());
}

TEST(SpanTest, NullAndDisabledRegistriesRecordNothing) {
  {
    Span span(nullptr, tnames::kSpanAssignHit);
    EXPECT_EQ(Span::current(), nullptr);
    EXPECT_EQ(span.depth(), 0);
  }
  MetricRegistry disabled(false);
  {
    Span span(&disabled, tnames::kSpanAssignHit);
    EXPECT_EQ(Span::current(), nullptr);
  }
  EXPECT_EQ(disabled.GetLatency(tnames::kSpanAssignHit)->count(), 0);
}

TEST(SpanThreadsTest, PerThreadStacksAreIndependent) {
  MetricRegistry registry(true);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span outer(&registry, tnames::kSpanAssignHit);
        Span inner(&registry, tnames::kSpanEstimateQw);
        // The stack is thread-local: this thread's innermost span is its
        // own `inner`, never another thread's.
        ASSERT_EQ(Span::current(), &inner);
        ASSERT_EQ(inner.parent(), &outer);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(Span::current(), nullptr);
  EXPECT_EQ(registry.GetLatency(tnames::kSpanAssignHit)->count(),
            int64_t{kThreads} * kSpansPerThread);
  EXPECT_EQ(registry.GetLatency(tnames::kSpanEstimateQw)->count(),
            int64_t{kThreads} * kSpansPerThread);
}

TEST(MetricRegistryExportTest, ToJsonShape) {
  MetricRegistry registry(true);
  registry.GetCounter("em.iterations")->Add(7);
  registry.GetGauge("open_hits")->Set(3.0);
  registry.GetLatency("assign_hit")->RecordSeconds(0.002);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"em.iterations\":7"), std::string::npos);
  EXPECT_NE(json.find("\"open_hits\":3"), std::string::npos);
  EXPECT_NE(json.find("\"assign_hit\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"p95_ms\":"), std::string::npos);
}

TEST(MetricRegistryExportTest, DisabledReportSaysSo) {
  MetricRegistry registry(false);
  EXPECT_NE(registry.ToReport().find("telemetry disabled"),
            std::string::npos);
}

TEST(LatencyHistogramTest, InterpolatedPercentilesAreMonotone) {
  MetricRegistry registry(true);
  LatencyHistogram* h = registry.GetLatency("h");
  for (int i = 1; i <= 1000; ++i) {
    h->RecordSeconds(static_cast<double>(i) * 1e-6);
  }
  double previous = 0.0;
  for (int step = 0; step <= 100; ++step) {
    const double p = static_cast<double>(step) / 100.0;
    const double value = h->Percentile(p);
    EXPECT_GE(value, previous) << "non-monotone at p=" << p;
    previous = value;
  }
}

TEST(LatencyHistogramTest, InterpolationErrorBoundedByBucketWidth) {
  MetricRegistry registry(true);
  LatencyHistogram* h = registry.GetLatency("h");
  for (int i = 1; i <= 1000; ++i) {
    h->RecordSeconds(static_cast<double>(i) * 1e-6);
  }
  // The interpolated value lies inside the log2 bucket of the true
  // empirical quantile, whose width is at most the quantile itself — so
  // the result is always within a factor of 2 of exact.
  for (double p : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}) {
    const double exact = (1.0 + p * 999.0) * 1e-6;
    const double value = h->Percentile(p);
    EXPECT_GE(value, exact * 0.5) << "p=" << p;
    EXPECT_LE(value, exact * 2.0) << "p=" << p;
  }
}

TEST(LatencyHistogramTest, InterpolatesWithinBucketInsteadOfSnapping) {
  MetricRegistry registry(true);
  LatencyHistogram* h = registry.GetLatency("h");
  // 1024 samples spanning one log2 bucket ([8192, 16384) ns) uniformly:
  // snapping would pin every quantile to a bucket edge; interpolation must
  // place the median near the bucket midpoint.
  for (int i = 0; i < 1024; ++i) {
    h->RecordSeconds((8192.0 + 8.0 * i) * 1e-9);
  }
  const double p50 = h->Percentile(0.50);
  EXPECT_NEAR(p50, 12288e-9, 256e-9);
  // Different quantiles map to different points of the same bucket.
  EXPECT_LT(h->Percentile(0.25), h->Percentile(0.75));
}

TEST(WindowedLatencyTest, SlidingWindowEvictsOldSamples) {
  MetricRegistry registry(true);
  WindowedLatency* window = registry.GetWindowed("w", 4);
  EXPECT_EQ(registry.GetWindowed("w", 4), window);
  EXPECT_EQ(window->window(), 4);
  EXPECT_EQ(window->count(), 0);
  // Fill with 1..4 ms, then push 5..8 ms: the first four must be evicted.
  for (int i = 1; i <= 4; ++i) {
    window->RecordSeconds(static_cast<double>(i) * 1e-3);
  }
  EXPECT_EQ(window->count(), 4);
  const double p0_before = window->Percentile(0.0);
  EXPECT_LT(p0_before, 2e-3);  // the 1ms sample's bucket
  for (int i = 5; i <= 8; ++i) {
    window->RecordSeconds(static_cast<double>(i) * 1e-3);
  }
  EXPECT_EQ(window->count(), 8);  // lifetime count keeps growing
  // Only 5..8 ms remain; every quantile sits in their log2 bucket
  // ([4.19, 8.39] ms), above the evicted 1ms sample.
  EXPECT_GT(window->Percentile(0.0), 4e-3);
  EXPECT_LE(window->Percentile(1.0), 8.4e-3);
}

TEST(WindowedLatencyTest, DisabledRecordsNothing) {
  MetricRegistry registry(false);
  WindowedLatency* window = registry.GetWindowed("w", 4);
  window->RecordSeconds(1e-3);
  EXPECT_EQ(window->count(), 0);
}

TEST(SloTrackerTest, TracksBreachTransitions) {
  MetricRegistry registry(true);
  SloTracker::Instruments instruments;
  instruments.window_name = "slo.test.window";
  instruments.over_target_name = "slo.test.over_target";
  instruments.breaches_name = "slo.test.breaches";
  instruments.window_p95_name = "slo.test.window_p95_ms";
  SloTracker::Options options;
  options.target_p95_seconds = 1e-3;
  options.window = 8;
  SloTracker slo(&registry, instruments, options);
  EXPECT_DOUBLE_EQ(slo.target_p95_seconds(), 1e-3);

  // Fast samples keep the window p95 under target: no breach.
  for (int i = 0; i < 8; ++i) slo.RecordSeconds(1e-4);
  EXPECT_FALSE(slo.in_breach());
  EXPECT_EQ(slo.breaches(), 0);
  EXPECT_EQ(slo.samples_over_target(), 0);
  EXPECT_LT(slo.WindowP95(), 1e-3);

  // A slow burst drives the window p95 over target exactly once.
  for (int i = 0; i < 8; ++i) slo.RecordSeconds(1e-2);
  EXPECT_TRUE(slo.in_breach());
  EXPECT_EQ(slo.breaches(), 1);
  EXPECT_EQ(slo.samples_over_target(), 8);
  EXPECT_GT(slo.WindowP95(), 1e-3);
  EXPECT_EQ(registry.GetCounter("slo.test.breaches")->value(), 1);
  EXPECT_EQ(registry.GetCounter("slo.test.over_target")->value(), 8);
  EXPECT_GT(registry.GetGauge("slo.test.window_p95_ms")->value(), 1.0);

  // Recovery: fast samples wash the slow ones out of the window and close
  // the breach; a second burst counts as a new breach.
  for (int i = 0; i < 8; ++i) slo.RecordSeconds(1e-4);
  EXPECT_FALSE(slo.in_breach());
  EXPECT_EQ(slo.breaches(), 1);
  for (int i = 0; i < 8; ++i) slo.RecordSeconds(1e-2);
  EXPECT_TRUE(slo.in_breach());
  EXPECT_EQ(slo.breaches(), 2);
  EXPECT_EQ(registry.GetCounter("slo.test.breaches")->value(), 2);
}

TEST(MetricRegistryExportTest, WindowsAppearInExports) {
  MetricRegistry registry(true);
  WindowedLatency* window = registry.GetWindowed("assign.window", 16);
  for (int i = 0; i < 16; ++i) window->RecordSeconds(2e-3);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"windows\":{\"assign.window\":{\"window\":16"),
            std::string::npos);
  std::string report = registry.ToReport();
  EXPECT_NE(report.find("sliding windows"), std::string::npos);
}

}  // namespace
}  // namespace qasca::util
