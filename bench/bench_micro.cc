// Google-benchmark microbenchmarks for the core algorithmic kernels:
// Algorithm 1 (F-score quality via Dinkelbach), the two online assignment
// algorithms, posterior updates, Qw estimation (per row and as the fused
// batch kernel), one EM fit, and the exact expected-F-score DP.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "bench/bench_util.h"
#include "core/assignment/fscore_online.h"
#include "core/assignment/topk_benefit.h"
#include "core/kernels/kernels.h"
#include "core/metrics/accuracy.h"
#include "core/metrics/fscore.h"
#include "model/em.h"
#include "model/likelihood_cache.h"
#include "model/posterior.h"
#include "simulation/dataset.h"
#include "simulation/simulated_worker.h"
#include "util/rng.h"

namespace qasca {
namespace {

void BM_FScoreQuality(benchmark::State& state) {
  util::Rng rng(1);
  DistributionMatrix q =
      bench::RandomBinaryMatrix(static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveFScoreQuality(q, 0.5));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FScoreQuality)->Range(256, 16384)->Complexity(benchmark::oN);

void BM_AccuracyQuality(benchmark::State& state) {
  util::Rng rng(2);
  DistributionMatrix q =
      bench::RandomMatrix(static_cast<int>(state.range(0)), 3, rng);
  AccuracyMetric metric;
  for (auto _ : state) {
    benchmark::DoNotOptimize(metric.Quality(q));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AccuracyQuality)->Range(256, 16384)->Complexity(benchmark::oN);

void BM_TopKBenefitAssignment(benchmark::State& state) {
  util::Rng rng(3);
  const int n = static_cast<int>(state.range(0));
  DistributionMatrix qc = bench::RandomBinaryMatrix(n, rng);
  DistributionMatrix qw = bench::DeriveEstimatedMatrix(qc, rng);
  AssignmentRequest request;
  request.current = &qc;
  request.estimated = &qw;
  request.candidates.resize(n);
  std::iota(request.candidates.begin(), request.candidates.end(), 0);
  request.k = 20;
  for (auto _ : state) {
    benchmark::DoNotOptimize(AssignTopKBenefit(request));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_TopKBenefitAssignment)
    ->Range(256, 16384)
    ->Complexity(benchmark::oN);

void BM_FScoreOnlineAssignment(benchmark::State& state) {
  util::Rng rng(4);
  const int n = static_cast<int>(state.range(0));
  DistributionMatrix qc = bench::RandomBinaryMatrix(n, rng);
  DistributionMatrix qw = bench::DeriveEstimatedMatrix(qc, rng);
  AssignmentRequest request;
  request.current = &qc;
  request.estimated = &qw;
  request.candidates.resize(n);
  std::iota(request.candidates.begin(), request.candidates.end(), 0);
  request.k = 20;
  FScoreAssignmentOptions options;
  options.alpha = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(AssignFScoreOnline(request, options));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_FScoreOnlineAssignment)
    ->Range(256, 16384)
    ->Complexity(benchmark::oN);

void BM_PosteriorRow(benchmark::State& state) {
  const int answers_count = static_cast<int>(state.range(0));
  WorkerModel model = WorkerModel::Cm({0.8, 0.2, 0.3, 0.7}, 2);
  AnswerList answers;
  for (int a = 0; a < answers_count; ++a) {
    answers.push_back(Answer{a, a % 2});
  }
  std::vector<double> prior = {0.5, 0.5};
  WorkerModelLookup lookup = [&model](WorkerId) -> const WorkerModel& {
    return model;
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputePosteriorRow(answers, prior, lookup));
  }
}
BENCHMARK(BM_PosteriorRow)->Arg(3)->Arg(10)->Arg(30);

void BM_EstimateWorkerRow(benchmark::State& state) {
  const int num_labels = static_cast<int>(state.range(0));
  util::Rng rng(5);
  std::vector<double> row(num_labels, 1.0 / num_labels);
  WorkerModel model = WorkerModel::Wp(0.8, num_labels);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateWorkerRow(row, model, rng));
  }
}
BENCHMARK(BM_EstimateWorkerRow)->Arg(2)->Arg(3)->Arg(214);

// The fused Qw batch (kernels::SampledQwRows) over 2,000 candidate rows of
// l labels with the row maxima fused, as an Accuracy* request runs it, for
// a WP worker (cm = 0) and a CM worker (cm = 1). `s_per_row` is the cost
// of one row, the figure DESIGN.md §12 tabulates per width.
void BM_SampledQwRows(benchmark::State& state) {
  const int l = static_cast<int>(state.range(0));
  const bool cm = state.range(1) != 0;
  constexpr int kRows = 2000;
  util::Rng rng(9);
  const DistributionMatrix qc = bench::RandomMatrix(kRows, l, rng);
  // A diagonal-heavy row-stochastic confusion matrix.
  std::vector<double> matrix(static_cast<size_t>(l) * l);
  for (int t = 0; t < l; ++t) {
    double* row = matrix.data() + static_cast<size_t>(t) * l;
    double sum = 0.0;
    for (int a = 0; a < l; ++a) {
      row[a] = rng.Uniform(0.05, 1.0) + (a == t ? l : 0.0);
      sum += row[a];
    }
    for (int a = 0; a < l; ++a) row[a] /= sum;
  }
  const double wp_m = 0.8;
  const WorkerModel model =
      cm ? WorkerModel::Cm(matrix, l) : WorkerModel::Wp(wp_m, l);
  const WorkerLikelihoods table = WorkerLikelihoods::FromModel(model);
  std::vector<int> candidates(kRows);
  std::iota(candidates.begin(), candidates.end(), 0);
  std::vector<double> out(static_cast<size_t>(kRows) * l);
  std::vector<double> row_max(kRows);
  std::vector<double> dist(static_cast<size_t>(l));
  uint64_t base = 0;
  for (auto _ : state) {
    kernels::SampledQwRows(
        qc.Row(0).data(), l, candidates.data(), kRows, ++base,
        cm ? kernels::AnswerModel::kCm : kernels::AnswerModel::kWp, wp_m,
        (1.0 - wp_m) / (l - 1), table.Row(0), out.data(), row_max.data(),
        dist.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["s_per_row"] = benchmark::Counter(
      kRows, benchmark::Counter::kIsIterationInvariantRate |
                 benchmark::Counter::kInvert);
}
BENCHMARK(BM_SampledQwRows)
    ->ArgsProduct({{2, 3, 4, 5, 8}, {0, 1}})
    ->ArgNames({"l", "cm"});

void BM_EmFit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(6);
  ApplicationSpec spec = FilmPostersApp();
  spec.num_questions = n;
  GroundTruthVector truth = GenerateGroundTruth(spec, rng);
  std::vector<SimulatedWorker> pool = GenerateWorkerPool(spec.workers, rng);
  AnswerSet answers(n);
  for (int i = 0; i < n; ++i) {
    for (int w : rng.SampleWithoutReplacement(
             static_cast<int>(pool.size()), 3)) {
      answers[i].push_back(Answer{w, pool[w].AnswerQuestion(truth[i], rng)});
    }
  }
  EmOptions options;
  options.max_iterations = 15;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunEm(answers, 2, options));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_EmFit)->Range(250, 4000)->Complexity(benchmark::oN);

void BM_EmWarmStartRefit(benchmark::State& state) {
  // The HIT-completion path: refit after k new answers arrive, warm-started
  // from the previous fixed point.
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(8);
  ApplicationSpec spec = FilmPostersApp();
  spec.num_questions = n;
  GroundTruthVector truth = GenerateGroundTruth(spec, rng);
  std::vector<SimulatedWorker> pool = GenerateWorkerPool(spec.workers, rng);
  AnswerSet answers(n);
  for (int i = 0; i < n; ++i) {
    for (int w : rng.SampleWithoutReplacement(
             static_cast<int>(pool.size()), 3)) {
      answers[i].push_back(Answer{w, pool[w].AnswerQuestion(truth[i], rng)});
    }
  }
  EmOptions options;
  options.max_iterations = 15;
  EmResult previous = RunEm(answers, 2, options);
  for (int i = 0; i < 4; ++i) answers[i].push_back(Answer{0, truth[i]});
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunEmWarmStart(answers, 2, options, previous));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_EmWarmStartRefit)->Range(250, 4000)->Complexity(benchmark::oN);

void BM_ExactExpectedFScore(benchmark::State& state) {
  util::Rng rng(7);
  const int n = static_cast<int>(state.range(0));
  DistributionMatrix q = bench::RandomBinaryMatrix(n, rng);
  ResultVector r = bench::RandomBinaryResult(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactExpectedFScore(q, r, 0.5));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_ExactExpectedFScore)
    ->Range(64, 2048)
    ->Complexity(benchmark::oNSquared);

}  // namespace
}  // namespace qasca

BENCHMARK_MAIN();
