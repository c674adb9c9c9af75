// Golden-trace regression test (ISSUE 5): pins the end-to-end decision hash
// of the engine — every selected question, the final result vector R*, and
// the bit patterns of every Qc cell — for three seeds under both the
// Accuracy* metric (confusion-matrix workers) and the F-score* metric
// (worker-probability workers) on a 36-question binary app, and for two
// seeds each of two paper-shaped apps: a sentiment-analysis-shaped one
// (three labels, confusion-matrix workers, Accuracy*) and an
// entity-resolution-shaped one (2,100 questions, confusion-matrix workers,
// F-score*; at that size the F-score beta/gamma fold runs one full group of
// four 512-question blocks plus a short group), and for two seeds each of
// two synthetic apps that cover the other Qw row widths and worker shapes:
// four labels with confusion-matrix workers under Accuracy*, and three
// labels with worker-probability workers under F-score*. Any silent
// behavioural drift in the assignment path, EM, the incremental Qc refresh,
// or the result-selection algorithms fails tier-1 here.
//
// The pinned hashes were generated against the pre-lease engine (PR 4
// head), so they additionally prove that the HIT-lifecycle robustness layer
// (leases, duplicate detection, journaling) is byte-identical to the old
// engine while disarmed. The l4_cm and l3_wp hashes were recorded while the
// Qw kernel still composed rows of more than two labels through a scratch
// row and formed a CM worker's answer distribution from a copy of its
// matrix, so they also pin the three-label fixed-width path and the
// table-read CM distribution (DESIGN.md §12) to that kernel.
//
// Regenerating after an INTENDED behaviour change:
//
//   cmake --build build -j --target integration_golden_trace_test
//   ./build/tests/integration_golden_trace_test --update-golden
//
// prints fresh kGoldenCases rows, then fresh kRowWidthCases rows; paste
// each set over its table below and explain the behaviour change in the
// commit message. Never regenerate to silence an unexplained mismatch —
// that is the drift this test exists to catch.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "platform/engine.h"
#include "platform/qasca_strategy.h"

namespace qasca {

// Not in an anonymous namespace: main() below (outside namespace qasca)
// reuses the trace runners and case tables for --update-golden.
uint64_t FnvMix(uint64_t hash, uint64_t value) {
  hash ^= value;
  hash *= 1099511628211ull;
  return hash;
}

uint64_t BitsOf(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Deterministic pseudo-noisy worker (~25% wrong): the answer is a pure
// function of (worker, question, truth), so the trace replays identically
// on every platform and build configuration.
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

// kAccuracy and kFScore are the 36-question binary app; the other two are
// the paper-shaped apps described in the file header.
enum class GoldenApp { kAccuracy, kFScore, kSentiment, kEntityRes };

const char* GoldenAppName(GoldenApp app) {
  switch (app) {
    case GoldenApp::kAccuracy:
      return "kAccuracy";
    case GoldenApp::kFScore:
      return "kFScore";
    case GoldenApp::kSentiment:
      return "kSentiment";
    case GoldenApp::kEntityRes:
      return "kEntityRes";
  }
  return "?";
}

struct GoldenCase {
  const char* name;
  GoldenApp app;
  uint64_t seed;
  uint64_t expected_hash;
};

// The synthetic apps: kSentiment's shape with `num_labels` labels, and with
// worker-probability workers under F-score* in place of confusion-matrix
// workers under Accuracy* when `worker_probability` is set.
//
// They have a type and table of their own because gtest names a GoldenCase
// test after the case's raw bytes, `name` pointer included: string literals
// added ahead of kGoldenCases's would rename those tests. A RowWidthCase
// test is named by PrintTo instead, and this table sits above kGoldenCases
// so that its literals are emitted after that table's.
struct RowWidthCase {
  const char* name;
  int num_labels;
  bool worker_probability;
  uint64_t seed;
  uint64_t expected_hash;
};

void PrintTo(const RowWidthCase& c, std::ostream* os) { *os << c.name; }

constexpr RowWidthCase kRowWidthCases[] = {
    {"l4_cm_seed1", 4, false, 1, 0xf55b500b97d88f1eull},
    {"l4_cm_seed2", 4, false, 2, 0x5f06323c471ffae7ull},
    {"l3_wp_seed1", 3, true, 1, 0xfb24604d3f84dc58ull},
    {"l3_wp_seed2", 3, true, 2, 0x0162af3450a30748ull},
};

// Regenerate with --update-golden (see file header). Hash covers every
// assignment decision, the final R*, and every Qc cell bit pattern.
constexpr GoldenCase kGoldenCases[] = {
    {"accuracy_seed1", GoldenApp::kAccuracy, 1, 0x036b70759255c554ull},
    {"accuracy_seed2", GoldenApp::kAccuracy, 2, 0xb7bb7b48f2ab6adcull},
    {"accuracy_seed3", GoldenApp::kAccuracy, 3, 0x9a05354c2f14bd48ull},
    {"fscore_seed1", GoldenApp::kFScore, 1, 0x238241fc60998c0bull},
    {"fscore_seed2", GoldenApp::kFScore, 2, 0x1fe9d74672674633ull},
    {"fscore_seed3", GoldenApp::kFScore, 3, 0x72a18340e252d8a0ull},
    {"sa_cm_seed1", GoldenApp::kSentiment, 1, 0xf5b5a78040f9c524ull},
    {"sa_cm_seed2", GoldenApp::kSentiment, 2, 0x65a1ce0f9a1d15d9ull},
    {"er_cm_seed1", GoldenApp::kEntityRes, 1, 0x619c78ac9a24ccc1ull},
    {"er_cm_seed2", GoldenApp::kEntityRes, 2, 0x6c6d4637df77d99aull},
};

AppConfig GoldenConfig(GoldenApp app, int* num_workers) {
  AppConfig config;
  config.name = "golden";
  config.num_questions = 36;
  config.num_labels = 2;
  config.questions_per_hit = 3;
  config.pay_per_hit = 0.02;
  config.budget = 0.02 * 20;  // 20 HITs
  config.em.max_iterations = 10;
  config.em_refresh_interval = 3;  // exercise the incremental Qc path
  *num_workers = 6;
  switch (app) {
    case GoldenApp::kAccuracy:
      config.metric = MetricSpec::Accuracy();
      config.worker_kind = WorkerModel::Kind::kConfusionMatrix;
      break;
    case GoldenApp::kFScore:
      config.metric = MetricSpec::FScore(0.6, 0);
      config.worker_kind = WorkerModel::Kind::kWorkerProbability;
      break;
    case GoldenApp::kSentiment:
      // Two 256-row Qw chunks and two 512-candidate benefit-scan chunks.
      config.num_questions = 600;
      config.num_labels = 3;
      config.questions_per_hit = 4;
      config.budget = 0.02 * 40;  // 40 HITs
      config.metric = MetricSpec::Accuracy();
      config.worker_kind = WorkerModel::Kind::kConfusionMatrix;
      *num_workers = 8;
      break;
    case GoldenApp::kEntityRes:
      config.num_questions = 2100;
      config.questions_per_hit = 4;
      config.budget = 0.02 * 40;  // 40 HITs
      config.metric = MetricSpec::FScore(0.5, 0);
      config.worker_kind = WorkerModel::Kind::kConfusionMatrix;
      *num_workers = 8;
      break;
  }
  return config;
}

uint64_t RunTrace(const AppConfig& config, int num_workers, uint64_t seed) {
  GroundTruthVector truth(config.num_questions);
  for (int q = 0; q < config.num_questions; ++q) {
    truth[q] = q % config.num_labels;
  }

  TaskAssignmentEngine engine(config, std::make_unique<QascaStrategy>(),
                              seed);
  uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  int round = 0;
  while (!engine.BudgetExhausted()) {
    const WorkerId worker = round++ % num_workers;
    auto hit = engine.RequestHit(worker);
    if (!hit.ok()) break;  // worker pool exhausted before the budget
    std::vector<LabelIndex> labels;
    labels.reserve(hit->size());
    for (QuestionIndex q : *hit) {
      hash = FnvMix(hash, static_cast<uint64_t>(q) + 1);
      labels.push_back(
          SimulatedAnswer(worker, q, truth[q], config.num_labels));
    }
    EXPECT_TRUE(engine.CompleteHit(worker, labels).ok());
  }
  for (LabelIndex r : engine.CurrentResults()) {
    hash = FnvMix(hash, static_cast<uint64_t>(r) + 1);
  }
  const DistributionMatrix& qc = engine.database().current();
  for (int i = 0; i < qc.num_questions(); ++i) {
    for (int j = 0; j < qc.num_labels(); ++j) {
      hash = FnvMix(hash, BitsOf(qc.At(i, j)));
    }
  }
  return hash;
}

uint64_t RunGoldenTrace(GoldenApp app, uint64_t seed) {
  int num_workers = 0;
  const AppConfig config = GoldenConfig(app, &num_workers);
  return RunTrace(config, num_workers, seed);
}

uint64_t RunRowWidthTrace(const RowWidthCase& c) {
  int num_workers = 0;
  AppConfig config = GoldenConfig(GoldenApp::kSentiment, &num_workers);
  config.num_labels = c.num_labels;
  if (c.worker_probability) {
    config.metric = MetricSpec::FScore(0.5, 0);
    config.worker_kind = WorkerModel::Kind::kWorkerProbability;
  }
  return RunTrace(config, num_workers, c.seed);
}

class GoldenTraceTest : public testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTraceTest, DecisionHashMatchesPinnedValue) {
  const GoldenCase& c = GetParam();
  const uint64_t actual = RunGoldenTrace(c.app, c.seed);
  EXPECT_EQ(actual, c.expected_hash)
      << c.name << ": decision hash drifted — if the behaviour change is "
      << "intended, regenerate with --update-golden (see file header); "
      << "actual 0x" << std::hex << actual;
}

INSTANTIATE_TEST_SUITE_P(
    AllSeeds, GoldenTraceTest, testing::ValuesIn(kGoldenCases),
    [](const testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

class GoldenRowWidthTest : public testing::TestWithParam<RowWidthCase> {};

TEST_P(GoldenRowWidthTest, DecisionHashMatchesPinnedValue) {
  const RowWidthCase& c = GetParam();
  const uint64_t actual = RunRowWidthTrace(c);
  EXPECT_EQ(actual, c.expected_hash)
      << c.name << ": decision hash drifted — if the behaviour change is "
      << "intended, regenerate with --update-golden (see file header); "
      << "actual 0x" << std::hex << actual;
}

INSTANTIATE_TEST_SUITE_P(AllSeeds, GoldenRowWidthTest,
                         testing::ValuesIn(kRowWidthCases),
                         testing::PrintToStringParamName());

}  // namespace qasca

// Custom main so the binary doubles as the golden-table regenerator.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update-golden") == 0) {
      for (const qasca::GoldenCase& c : qasca::kGoldenCases) {
        std::printf(
            "    {\"%s\", GoldenApp::%s, %llu, 0x%016llxull},\n", c.name,
            qasca::GoldenAppName(c.app),
            static_cast<unsigned long long>(c.seed),
            static_cast<unsigned long long>(
                qasca::RunGoldenTrace(c.app, c.seed)));
      }
      for (const qasca::RowWidthCase& c : qasca::kRowWidthCases) {
        std::printf("    {\"%s\", %d, %s, %llu, 0x%016llxull},\n", c.name,
                    c.num_labels, c.worker_probability ? "true" : "false",
                    static_cast<unsigned long long>(c.seed),
                    static_cast<unsigned long long>(
                        qasca::RunRowWidthTrace(c)));
      }
      return 0;
    }
  }
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
