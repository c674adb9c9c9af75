#ifndef QASCA_MODEL_PRIOR_H_
#define QASCA_MODEL_PRIOR_H_

#include <span>
#include <vector>

namespace qasca {

/// The uniform prior p_j = 1/l — the paper's initial state.
std::vector<double> UniformPrior(int num_labels);

/// Prior estimated as the expected fraction of questions whose ground truth
/// is each label: p_j = (1/n) * sum_i Q_{i,j} (Section 5.1), over a
/// row-major n-by-`num_labels` posterior held in `cells`, written into
/// `prior` (resized to `num_labels`). Each column is folded in ascending
/// question order. EM calls this once per iteration with a reused `prior`.
void EstimatePriorInto(std::span<const double> cells, int num_labels,
                       std::vector<double>* prior);

}  // namespace qasca

#endif  // QASCA_MODEL_PRIOR_H_
