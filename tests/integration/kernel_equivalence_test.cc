// The kernel-equivalence suite (DESIGN.md §12): full engine runs must make
// byte-identical assignment decisions and reach a byte-identical final
// state under every kernel ISA this host supports (scalar / SSE2 / AVX2).
// The decision sequence and Engine::StateFingerprint() are compared EXACTLY
// against a single reference run per scenario — this is the engine-level
// proof behind the per-kernel bitwise tests in tests/core/kernels_test.cc,
// and the reason the golden-trace hashes stay pinned across ISAs.
//
// tools/run_checks.sh additionally replays this binary under asan-ubsan
// with each QASCA_KERNEL_ISA override, covering the env-var dispatch path
// that SetIsaForTesting bypasses.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/kernels/kernels.h"
#include "platform/engine.h"
#include "platform/qasca_strategy.h"
#include "util/telemetry_names.h"

namespace qasca {
namespace {

using kernels::Isa;

// Same deterministic pseudo-noisy worker as the determinism suite: the
// answer depends only on (worker, question, truth), so every configuration
// replays an identical answer stream. ~25% wrong.
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

struct Variant {
  Isa isa = Isa::kScalar;
  bool telemetry = false;
};

struct RunRecord {
  std::vector<QuestionIndex> selections;
  uint64_t fingerprint = 0;
  util::TelemetrySnapshot snapshot;
};

struct Scenario {
  std::string name;
  MetricSpec metric;
  WorkerModel::Kind kind;
};

std::vector<Scenario> Scenarios() {
  // One Top-K Benefit (accuracy) and one Dinkelbach (F-score) engine, with
  // the opposite worker-model kind each, so both assignment algorithms and
  // both model kinds cross the kernels.
  return {
      {"accuracy/cm", MetricSpec::Accuracy(),
       WorkerModel::Kind::kConfusionMatrix},
      {"fscore/wp", MetricSpec::FScore(0.5, 0),
       WorkerModel::Kind::kWorkerProbability},
  };
}

void RunEngine(const Scenario& s, const Variant& v, RunRecord* out) {
  kernels::SetIsaForTesting(v.isa);
  AppConfig config;
  config.name = "kernel-equivalence";
  config.num_questions = 36;
  config.num_labels = 2;
  config.questions_per_hit = 3;
  config.pay_per_hit = 0.02;
  config.budget = 0.02 * 20;  // 20 HITs
  config.metric = s.metric;
  config.worker_kind = s.kind;
  config.em.max_iterations = 15;
  config.em_refresh_interval = 3;
  config.telemetry_enabled = v.telemetry;

  GroundTruthVector truth(config.num_questions);
  for (int q = 0; q < config.num_questions; ++q) {
    truth[q] = q % config.num_labels;
  }

  TaskAssignmentEngine engine(config, std::make_unique<QascaStrategy>(),
                              /*seed=*/7);
  RunRecord record;
  int round = 0;
  while (!engine.BudgetExhausted()) {
    const WorkerId worker = round++ % 6;
    auto hit = engine.RequestHit(worker);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    std::vector<LabelIndex> labels;
    labels.reserve(hit->size());
    for (QuestionIndex q : *hit) {
      record.selections.push_back(q);
      labels.push_back(SimulatedAnswer(worker, q, truth[q],
                                       config.num_labels));
    }
    ASSERT_TRUE(engine.CompleteHit(worker, labels).ok());
  }
  record.fingerprint = engine.StateFingerprint();
  record.snapshot = engine.TelemetrySnapshot();
  *out = std::move(record);
}

int64_t CounterValue(const util::TelemetrySnapshot& snapshot,
                     std::string_view name) {
  for (const util::CounterSnapshot& c : snapshot.counters) {
    if (c.name == name) return c.value;
  }
  return -1;
}

TEST(KernelEquivalenceIntegrationTest, EveryIsaIsByteIdentical) {
  const Isa saved = kernels::ActiveIsa();
  for (const Scenario& s : Scenarios()) {
    // Reference: scalar kernels.
    RunRecord reference;
    RunEngine(s, Variant{Isa::kScalar}, &reference);
    ASSERT_FALSE(reference.selections.empty()) << s.name;
    ASSERT_NE(reference.fingerprint, 0u) << s.name;

    for (Isa isa : {Isa::kScalar, Isa::kSse2, Isa::kAvx2}) {
      if (!kernels::IsaSupported(isa)) continue;
      RunRecord record;
      RunEngine(s, Variant{isa}, &record);
      EXPECT_EQ(record.selections, reference.selections)
          << s.name << " " << kernels::IsaName(isa) << ": selections diverged";
      EXPECT_EQ(record.fingerprint, reference.fingerprint)
          << s.name << " " << kernels::IsaName(isa) << ": state fingerprint "
          << "diverged";
    }
  }
  kernels::SetIsaForTesting(saved);
}

TEST(KernelEquivalenceIntegrationTest, CacheTelemetryShowsHitsAndInvalidation) {
  const Isa saved = kernels::ActiveIsa();
  const Scenario s = Scenarios()[0];
  RunRecord record;
  RunEngine(s, Variant{kernels::ActiveIsa(), /*telemetry=*/true}, &record);
  const int64_t hits =
      CounterValue(record.snapshot, util::tnames::kQwLikelihoodCacheHits);
  const int64_t misses =
      CounterValue(record.snapshot, util::tnames::kQwLikelihoodCacheMisses);
  // 20 HITs from 6 workers with a refit every 3rd completion: every Qw
  // request and incremental posterior refresh resolves through the cache,
  // and invalidation forces fresh misses after each refit — so both
  // counters must be active.
  EXPECT_GE(hits + misses, 20);
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);
  // The overlay materialises exactly the candidate rows each request.
  EXPECT_GT(CounterValue(record.snapshot, util::tnames::kQwOverlayRows), 0);
  kernels::SetIsaForTesting(saved);
}

TEST(KernelEquivalenceIntegrationTest, KernelIsaGaugeReportsActiveDispatch) {
  const Isa saved = kernels::ActiveIsa();
  const Scenario s = Scenarios()[0];
  for (Isa isa : {Isa::kScalar, Isa::kSse2, Isa::kAvx2}) {
    if (!kernels::IsaSupported(isa)) continue;
    RunRecord record;
    RunEngine(s, Variant{isa, /*telemetry=*/true}, &record);
    double gauge = -1.0;
    for (const util::GaugeSnapshot& g : record.snapshot.gauges) {
      if (g.name == util::tnames::kKernelIsa) gauge = g.value;
    }
    EXPECT_EQ(gauge, static_cast<double>(static_cast<int>(isa)))
        << kernels::IsaName(isa);
  }
  kernels::SetIsaForTesting(saved);
}

}  // namespace
}  // namespace qasca
