#ifndef QASCA_MODEL_LIKELIHOOD_CACHE_H_
#define QASCA_MODEL_LIKELIHOOD_CACHE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/types.h"
#include "model/worker_model.h"
#include "util/telemetry.h"

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

/// Memoises per-worker likelihood tables between EM refits (DESIGN.md §12;
/// the CAFExp matrix_cache idea). Worker models only change on a full EM
/// refit, so the engine calls Invalidate() there and every HIT request in
/// between reuses the requesting worker's table instead of rebuilding it.
///
/// The cache is pure memoisation: Get() returns exactly
/// WorkerLikelihoods::FromModel(model), so decisions are bit-identical with
/// the cache on or off (the kernel-equivalence suite proves it).
///
/// Threading contract: engine-thread-only mutation (Get / Invalidate);
/// parallel kernel chunks read the returned table strictly const. Returned
/// references stay valid until the next Invalidate().
class LikelihoodCache {
 public:
  /// `hits` and `misses` (tnames::kQwLikelihoodCacheHits/Misses from the
  /// engine's registry) are the cache's only hit/miss counts; neither may
  /// be null, and both must outlive the cache.
  LikelihoodCache(util::Counter* hits, util::Counter* misses);

  /// The memoised table for `worker`, building it from `model` on miss.
  /// `model` must be the worker's current model — the caller's contract is
  /// that models only change across Invalidate() boundaries.
  const WorkerLikelihoods& Get(WorkerId worker, const WorkerModel& model);

  /// Drops every entry and bumps the refit generation. Called by the engine
  /// whenever fitted worker models change (each full EM refit).
  void Invalidate();

  /// Refit generation: how many times Invalidate() has run. Entries never
  /// survive a generation bump (invalidation-on-refit unit tests).
  uint64_t generation() const noexcept { return generation_; }
  int64_t hits() const noexcept { return hits_counter_->value(); }
  int64_t misses() const noexcept { return misses_counter_->value(); }
  int size() const noexcept { return static_cast<int>(entries_.size()); }

 private:
  std::unordered_map<WorkerId, WorkerLikelihoods> entries_;
  util::Counter* hits_counter_;
  util::Counter* misses_counter_;
  uint64_t generation_ = 0;
};

}  // namespace qasca

#endif  // QASCA_MODEL_LIKELIHOOD_CACHE_H_
