#ifndef QASCA_MODEL_LIKELIHOOD_CACHE_H_
#define QASCA_MODEL_LIKELIHOOD_CACHE_H_

// Per-worker answer-likelihood tables (DESIGN.md §12). The file keeps its
// name although nothing here caches: perfbench's leaf rung includes it and
// calls WorkerLikelihoods, LikelihoodLookup and
// ComputePosteriorRowWithLikelihoods (model/posterior.h). Each caller builds
// a table where it uses it: at the default em_refresh_interval of 1 every
// HIT completion refits the worker models, so a table kept between requests
// is almost never read again (DESIGN.md §12 has the counts).

#include <functional>
#include <vector>

#include "core/types.h"
#include "model/worker_model.h"

namespace qasca {

/// A worker's answer-likelihood table, transposed for the posterior-weight
/// kernels: an l-by-l row-major matrix whose row `answered` holds
/// L[answered][truth] = P(a = answered | t = truth), i.e. exactly
/// WorkerModel::AnswerProbability(answered, truth) laid out contiguously in
/// `truth`. The Eq. 16 / Eq. 18 inner loops multiply a posterior row by one
/// such likelihood row element-wise (kernels::MulRow), which the native
/// WorkerModel layouts cannot do: the WP model branches per element and the
/// confusion matrix is [truth][answered]-major, i.e. strided in `truth`.
///
/// Values are the AnswerProbability doubles verbatim, so posterior products
/// computed through a table are bit-identical to the model-call loop.
class WorkerLikelihoods {
 public:
  WorkerLikelihoods() = default;

  /// Builds the transposed table for `model`.
  static WorkerLikelihoods FromModel(const WorkerModel& model);

  /// Rebuilds in place, reusing the table's storage (scratch-friendly).
  void Rebuild(const WorkerModel& model);

  /// Row `answered`: L[answered][truth] for truth in [0, num_labels).
  const double* Row(LabelIndex answered) const {
    return table_.data() + static_cast<size_t>(answered) * num_labels_;
  }

  int num_labels() const noexcept { return num_labels_; }

 private:
  std::vector<double> table_;
  int num_labels_ = 0;
};

/// Resolves a worker id to that worker's likelihood table (the table-based
/// counterpart of WorkerModelLookup in posterior.h).
using LikelihoodLookup = std::function<const WorkerLikelihoods&(WorkerId)>;

}  // namespace qasca

#endif  // QASCA_MODEL_LIKELIHOOD_CACHE_H_
