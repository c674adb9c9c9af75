#include "bench/bench_util.h"

#include "model/posterior.h"
#include "model/worker_model.h"

namespace qasca::bench {

DistributionMatrix RandomBinaryMatrix(int n, util::Rng& rng) {
  DistributionMatrix q(n, 2);
  for (int i = 0; i < n; ++i) {
    double p = rng.Uniform();
    q.SetRow(i, std::vector<double>{p, 1.0 - p});
  }
  return q;
}

DistributionMatrix RandomMatrix(int n, int num_labels, util::Rng& rng) {
  DistributionMatrix q(n, num_labels);
  std::vector<double> weights(num_labels);
  for (int i = 0; i < n; ++i) {
    for (double& w : weights) w = rng.Uniform(1e-6, 1.0);
    q.SetRowNormalized(i, weights);
  }
  return q;
}

ResultVector RandomBinaryResult(int n, util::Rng& rng) {
  ResultVector result(n);
  for (int i = 0; i < n; ++i) result[i] = rng.UniformInt(2);
  return result;
}

DistributionMatrix DeriveEstimatedMatrix(const DistributionMatrix& current,
                                         util::Rng& rng) {
  // A random two-label confusion matrix with diagonal in [0.55, 0.95].
  double d0 = rng.Uniform(0.55, 0.95);
  double d1 = rng.Uniform(0.55, 0.95);
  WorkerModel model =
      WorkerModel::Cm({d0, 1.0 - d0, 1.0 - d1, d1}, 2);
  std::vector<QuestionIndex> all(current.num_questions());
  for (int i = 0; i < current.num_questions(); ++i) all[i] = i;
  return EstimateWorkerDistribution(current, model, all, rng);
}

}  // namespace qasca::bench
