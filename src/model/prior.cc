#include "model/prior.h"

#include "util/logging.h"

namespace qasca {

std::vector<double> UniformPrior(int num_labels) {
  QASCA_CHECK_GT(num_labels, 0);
  return std::vector<double>(num_labels, 1.0 / num_labels);
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
