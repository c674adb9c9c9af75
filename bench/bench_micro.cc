// Google-benchmark microbenchmarks for the core algorithmic kernels:
// Algorithm 1 (F-score quality via Dinkelbach), the two online assignment
// algorithms, posterior updates, Qw estimation, one EM fit, and the exact
// expected-F-score DP.

#include <benchmark/benchmark.h>

#include <numeric>

#include "bench/bench_util.h"
#include "core/assignment/fscore_online.h"
#include "core/assignment/topk_benefit.h"
#include "core/metrics/accuracy.h"
#include "core/metrics/fscore.h"
#include "model/em.h"
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
