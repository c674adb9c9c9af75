#ifndef QASCA_MODEL_POSTERIOR_H_
#define QASCA_MODEL_POSTERIOR_H_

#include <algorithm>
#include <functional>
#include <vector>

#include "core/assignment/qw_overlay.h"
#include "core/distribution_matrix.h"
#include "core/kernels/kernels.h"
#include "core/types.h"
#include "model/likelihood_cache.h"
#include "model/worker_model.h"
#include "util/rng.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace qasca {

/// Scales the `num_labels` weights at `row` to sum to one and returns the
/// pre-normalisation total (for a posterior row, the marginal likelihood of
/// its answers). A non-positive total (all labels ruled out, which degenerate
/// 0/1 worker models with contradictory answers can cause) falls back to
/// uniform rather than abort: the data is inconsistent with the model, not
/// with the caller. Every posterior and Qw row is normalised here.
inline double NormalizePosteriorRow(double* row, int num_labels) {
  const double total = kernels::RowSum(row, num_labels);
  if (total <= 0.0) {
    std::fill(row, row + num_labels, 1.0 / static_cast<double>(num_labels));
    return total;
  }
  kernels::DivRow(row, num_labels, total);
  return total;
}

/// Resolves a worker id to that worker's current model. Supplied by the
/// caller (platform database, EM output, or simulation oracle).
using WorkerModelLookup = std::function<const WorkerModel&(WorkerId)>;

/// Posterior distribution of one question's true label given its answers
/// (Eq. 16): weight_j = p_j * prod_{(w,j') in answers} P(a_w = j' | t = j),
/// normalised. With no answers this returns the prior.
///
/// If `marginal` is non-null it receives the normalisation constant
/// sum_j weight_j, i.e. the marginal likelihood P(D_i) of this question's
/// answers under the prior and worker models. EM uses it to track the
/// observed-data log-likelihood (and to assert its monotone ascent). A
/// non-positive marginal means the answers are inconsistent with degenerate
/// 0/1 models; the returned row falls back to uniform in that case.
std::vector<double> ComputePosteriorRow(const AnswerList& answers,
                                        const std::vector<double>& prior,
                                        const WorkerModelLookup& models,
                                        double* marginal = nullptr);

/// Out-parameter variant of ComputePosteriorRow: writes the posterior into
/// `*out` (resized to the label count), so a caller-owned buffer is reused
/// instead of allocating a fresh return vector per row. Identical results
/// bit-for-bit.
void ComputePosteriorRowInto(const AnswerList& answers,
                             const std::vector<double>& prior,
                             const WorkerModelLookup& models,
                             std::vector<double>* out,
                             double* marginal = nullptr);

/// Table-based variant: resolves each answering worker to a transposed
/// likelihood table (model/likelihood_cache.h) instead of a WorkerModel, so
/// the per-answer weight update is one contiguous kernels::MulRowInPlace
/// rather than l strided AnswerProbability calls. Tables hold the exact
/// AnswerProbability doubles, so results match the model-lookup variants
/// bit-for-bit. (Named separately from ComputePosteriorRowInto because both
/// lookups are std::functions and a lambda would convert to either.)
void ComputePosteriorRowWithLikelihoods(const AnswerList& answers,
                                        const std::vector<double>& prior,
                                        const LikelihoodLookup& likelihoods,
                                        std::vector<double>* out,
                                        double* marginal = nullptr);

/// The current distribution matrix Qc over all questions (Section 5.1).
DistributionMatrix ComputeCurrentDistribution(const AnswerSet& answers,
                                              const std::vector<double>& prior,
                                              const WorkerModelLookup& models);

/// How the estimated row Qw_i is derived from the predicted answer
/// distribution (Section 5.3). The paper's sampled estimator is the only
/// one; the type stays because AppConfig::qw_mode, QascaStrategy and
/// EstimateWorkerRowsInto carry it, and perfbench passes it through them.
enum class QwMode {
  /// Sample the label the worker would answer by weighted random sampling
  /// over P(a = j' | D_i) (Eq. 17), then condition on it (Eq. 18).
  kSampled,
};

/// Estimates row i of Qw for a worker with model `model`, given the current
/// row Qc_i and the uniform variate `u01` in [0, 1) that drives the
/// weighted draw of the answered label. This is the deterministic core of
/// Qw estimation: given identical inputs it returns an identical row on any
/// thread.
std::vector<double> EstimateWorkerRowAt(std::span<const double> current_row,
                                        const WorkerModel& model, double u01);

/// Estimates row i of Qw for a worker with model `model`, given the current
/// row Qc_i, drawing the variate from `rng` (exactly one draw).
std::vector<double> EstimateWorkerRow(std::span<const double> current_row,
                                      const WorkerModel& model,
                                      util::Rng& rng);

/// The estimated distribution matrix Qw for a worker (Section 5.3). Only
/// rows in `candidates` are estimated; all other rows are copied from
/// `current` (they are never read by the assignment algorithms, but copying
/// keeps the matrix fully normalised).
///
/// Randomness contract: exactly one 64-bit base draw is taken from `rng`
/// per call, and each candidate row samples from its own SplitMix64 stream
/// seeded by (base, question index). Row values therefore depend only on
/// the base draw and the question, not on candidate order.
///
/// A serial, row-at-a-time reference (an O(n*l) copy per call): the serving
/// path uses EstimateWorkerRowsInto + QwOverlay, which the overlay tests
/// hold bit-identical to this.
DistributionMatrix EstimateWorkerDistribution(
    const DistributionMatrix& current, const WorkerModel& model,
    const std::vector<QuestionIndex>& candidates, util::Rng& rng);

/// Zero-copy Qw estimation (DESIGN.md §12): materialises only the candidate
/// rows into `overlay` (reusable per-strategy scratch), slot c holding
/// candidates[c]'s row, and runs the answer-distribution / posterior-weight
/// inner loops through the row kernels (core/kernels/kernels.h). Once the
/// overlay's buffers have grown to the request's size, it allocates nothing
/// for rows of two or three labels; other widths allocate one per-chunk
/// scratch vector. `candidates` must be distinct questions of `current`
/// (checked, always on).
/// `likelihoods` must be the transposed table for `model`
/// (WorkerLikelihoods::Rebuild on the strategy's scratch table): every row
/// is conditioned through it, and a confusion-matrix worker's answer
/// distribution is formed from it.
///
/// Same randomness contract as EstimateWorkerDistribution, and bit-identical
/// overlay rows: for every position c, overlay->SlotRow(c) holds exactly
/// the doubles EstimateWorkerDistribution's row candidates[c] would hold
/// (EstimateWorkerRowsIntoTest pins this). `mode` is always
/// QwMode::kSampled (see QwMode for why the parameter stays).
/// When `fuse_row_max` is set, the overlay's quality channel is armed and
/// each materialised row's maximum — the Accuracy* row quality — is written
/// alongside the row while it is still hot (QwOverlay::ArmQualities), so
/// the Top-K benefit scan reads one contiguous double per candidate instead
/// of re-reducing the row. The fused maxima are exactly kernels::RowMax of
/// the materialised rows; they never change which rows are produced.
/// `telemetry` (optional) times the row batch; the caller counts the
/// samples drawn, one per candidate.
void EstimateWorkerRowsInto(const DistributionMatrix& current,
                            const WorkerModel& model,
                            const WorkerLikelihoods& likelihoods,
                            const std::vector<QuestionIndex>& candidates,
                            QwMode mode, util::Rng& rng, QwOverlay* overlay,
                            util::ThreadPool* pool = nullptr,
                            util::MetricRegistry* telemetry = nullptr,
                            bool fuse_row_max = false);

}  // namespace qasca

#endif  // QASCA_MODEL_POSTERIOR_H_
