// Allocation guard for the HIT-request path: once its request-scoped
// scratch has grown (DESIGN.md §12), a Decide at n = 2000 allocates less
// than 1 KiB — the k-sized result, not buffers of size n — for an F-score*
// app and an Accuracy* app, and its Qw estimation allocates nothing for rows
// of up to three labels. The executable replaces the global operator new
// with one that counts the bytes requested while a probe is armed, so it is
// a test binary of its own.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/assignment/qw_overlay.h"
#include "core/distribution_matrix.h"
#include "core/kernels/kernels.h"
#include "model/likelihood_cache.h"
#include "model/posterior.h"
#include "platform/assignment_core.h"
#include "platform/qasca_strategy.h"
#include "util/rng.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_bytes{0};
std::atomic<int64_t> g_allocations{0};

void* Allocate(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace qasca {
namespace {

struct Allocations {
  int64_t bytes = 0;
  int64_t count = 0;
};

// Label of a deterministic ~20%-wrong worker.
LabelIndex Answer(WorkerId worker, QuestionIndex question) {
  const uint64_t h = (static_cast<uint64_t>(worker) * 1000003u +
                      static_cast<uint64_t>(question) + 1) *
                     0x9e3779b97f4a7c15ull;
  const LabelIndex truth = question % 2;
  return (h >> 40) % 5 == 0 ? 1 - truth : truth;
}

// Warms a core up — completions by four workers, so EM has fitted models
// and every scratch buffer has grown — then measures one Decide.
Allocations MeasureDecide(const MetricSpec& metric) {
  AppConfig config;
  config.name = "allocation";
  config.num_questions = 2000;
  config.num_labels = 2;
  config.questions_per_hit = 4;
  config.pay_per_hit = 0.02;
  config.budget = 0.02 * 100;
  config.metric = metric;
  config.worker_kind = WorkerModel::Kind::kConfusionMatrix;
  config.em.worker_kind = config.worker_kind;
  EXPECT_TRUE(config.Validate().ok());
  util::MetricRegistry registry(/*enabled=*/false);
  AssignmentCore core(&config, std::make_unique<QascaStrategy>(), /*seed=*/5,
                      &registry);
  for (int round = 0; round < 12; ++round) {
    const WorkerId worker = round % 4;
    auto decision = core.Decide(worker, nullptr);
    EXPECT_TRUE(decision.ok());
    if (!decision.ok()) return {};
    std::vector<LabelIndex> labels;
    for (QuestionIndex q : decision->questions) {
      labels.push_back(Answer(worker, q));
    }
    core.CommitAssignment(worker, decision->questions);
    core.ApplyCompletion(worker, decision->questions, labels);
  }
  (void)core.Decide(/*worker=*/1, nullptr);

  g_bytes = 0;
  g_allocations = 0;
  g_counting = true;
  auto decision = core.Decide(/*worker=*/2, nullptr);
  g_counting = false;
  EXPECT_TRUE(decision.ok());
  return {g_bytes.load(), g_allocations.load()};
}

TEST(DecideAllocationTest, WarmedUpDecideAllocatesUnderOneKiB) {
#if QASCA_ENABLE_DCHECKS
  GTEST_SKIP() << "debug checks allocate on the request path (a fresh "
                  "F-score preparation per request, formatted messages)";
#endif
  for (const MetricSpec& metric :
       {MetricSpec::FScore(0.5, 0), MetricSpec::Accuracy()}) {
    const std::string what =
        metric.kind == MetricSpec::Kind::kFScore ? "F-score" : "Accuracy";
    const Allocations allocations = MeasureDecide(metric);
    EXPECT_LT(allocations.bytes, 1024)
        << what << ": " << allocations.count << " allocations";
    // Nothing of size n: the k-sized selection and its scores remain (the
    // Qw estimation allocates nothing; the case below pins that).
    EXPECT_GT(allocations.count, 0) << what << ": the probe counted nothing";
  }
}

// An Accuracy* Decide does no allocating work that an F-score* one skips:
// its Top-K benefit scan hands util::ParallelFor a closure of several
// references, which the serial path calls without type erasure (a
// std::function parameter would heap-allocate it on every request).
TEST(DecideAllocationTest, AccuracyDecideAllocatesNoMoreThanFScore) {
#if QASCA_ENABLE_DCHECKS
  GTEST_SKIP() << "debug checks allocate on the request path";
#endif
  const Allocations fscore = MeasureDecide(MetricSpec::FScore(0.5, 0));
  const Allocations accuracy = MeasureDecide(MetricSpec::Accuracy());
  EXPECT_LE(accuracy.count, fscore.count)
      << "Accuracy: " << accuracy.bytes << " bytes, F-score: " << fscore.bytes;
  EXPECT_LE(accuracy.bytes, fscore.bytes)
      << "Accuracy: " << accuracy.count << " allocations, F-score: "
      << fscore.count;
}

// The Qw estimation of a request, EstimateWorkerRowsInto, with the overlay
// and likelihood table kept across requests as QascaStrategy keeps them:
// once warmed up it allocates nothing for WP and CM workers on the kernel's
// fixed-width path (l = 2, 3), and only the per-chunk scratch row on its
// composed path (l = 5). Neither copies a CM worker's matrix.
TEST(DecideAllocationTest, WarmedUpQwEstimationAllocatesOnlyWideRowScratch) {
  const int n = 2000;
  for (int l : {2, 3, 5}) {
    util::Rng rng(11);
    DistributionMatrix qc(n, l);
    std::vector<double> weights(static_cast<size_t>(l));
    for (int i = 0; i < n; ++i) {
      for (double& w : weights) w = rng.Uniform(0.05, 1.0);
      qc.SetRowNormalized(i, weights);
    }
    std::vector<double> matrix(static_cast<size_t>(l) * l);
    for (int t = 0; t < l; ++t) {
      for (int a = 0; a < l; ++a) {
        matrix[static_cast<size_t>(t * l + a)] =
            a == t ? 0.6 : 0.4 / static_cast<double>(l - 1);
      }
    }
    // Every question but each seventh: an ascending list of many chunks.
    std::vector<QuestionIndex> candidates;
    for (QuestionIndex i = 0; i < n; ++i) {
      if (i % 7 != 0) candidates.push_back(i);
    }
    for (const WorkerModel& model :
         {WorkerModel::Wp(0.8, l), WorkerModel::Cm(matrix, l)}) {
      const std::string what =
          (model.kind() == WorkerModel::Kind::kWorkerProbability ? "WP"
                                                                 : "CM") +
          std::string(" l=") + std::to_string(l);
      WorkerLikelihoods table;
      table.Rebuild(model);
      QwOverlay overlay;
      for (int request = 0; request < 2; ++request) {
        g_bytes = 0;
        g_allocations = 0;
        g_counting = request == 1;
        table.Rebuild(model);
        EstimateWorkerRowsInto(qc, model, table, candidates, QwMode::kSampled,
                               rng, &overlay, /*pool=*/nullptr,
                               /*telemetry=*/nullptr, /*fuse_row_max=*/true);
        g_counting = false;
      }
      EXPECT_EQ(g_allocations.load(),
                l <= kernels::kMaxFixedWidthLabels ? 0 : 1)
          << what << ": " << g_bytes.load() << " bytes";
    }
  }
}

}  // namespace
}  // namespace qasca
