#include "model/prior.h"

#include "util/logging.h"

namespace qasca {

std::vector<double> UniformPrior(int num_labels) {
  QASCA_CHECK_GT(num_labels, 0);
  return std::vector<double>(num_labels, 1.0 / num_labels);
}

std::vector<double> EstimatePrior(const DistributionMatrix& posterior) {
  QASCA_CHECK_GT(posterior.num_questions(), 0);
  const int num_labels = posterior.num_labels();
  std::vector<double> prior;
  EstimatePriorInto(
      std::span<const double>(posterior.Row(0).data(),
                              static_cast<size_t>(posterior.num_questions()) *
                                  static_cast<size_t>(num_labels)),
      num_labels, &prior);
  return prior;
}

void EstimatePriorInto(std::span<const double> cells, int num_labels,
                       std::vector<double>* prior) {
  QASCA_CHECK_GT(num_labels, 0);
  const int n =
      static_cast<int>(cells.size() / static_cast<size_t>(num_labels));
  QASCA_CHECK_GT(n, 0);
  prior->assign(static_cast<size_t>(num_labels), 0.0);
  for (int i = 0; i < n; ++i) {
    const double* row = cells.data() + static_cast<size_t>(i) * num_labels;
    for (int j = 0; j < num_labels; ++j) (*prior)[j] += row[j];
  }
  for (double& p : *prior) p /= n;
}

}  // namespace qasca
