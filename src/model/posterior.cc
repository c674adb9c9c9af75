#include "model/posterior.h"

#include "core/kernels/kernels.h"
#include "util/fold.h"
#include "util/invariants.h"
#include "util/logging.h"
#include "util/telemetry.h"
#include "util/telemetry_names.h"

namespace qasca {
namespace {

double NormalizeInPlace(std::vector<double>& weights) {
  return NormalizePosteriorRow(weights.data(),
                               static_cast<int>(weights.size()));
}

}  // namespace

void ComputePosteriorRowInto(const AnswerList& answers,
                             const std::vector<double>& prior,
                             const WorkerModelLookup& models,
                             std::vector<double>* out, double* marginal) {
  const int num_labels = static_cast<int>(prior.size());
  QASCA_CHECK_GT(num_labels, 0);
  QASCA_CHECK(out != nullptr);
  out->assign(prior.begin(), prior.end());
  std::vector<double>& weights = *out;
  for (const Answer& answer : answers) {
    const WorkerModel& model = models(answer.worker);
    QASCA_CHECK_EQ(model.num_labels(), num_labels);
    for (int j = 0; j < num_labels; ++j) {
      weights[j] *= model.AnswerProbability(answer.label, j);
    }
  }
  double total = NormalizeInPlace(weights);
  if (marginal != nullptr) *marginal = total;
  QASCA_DCHECK_OK(invariants::CheckDistributionRow(weights));
}

void ComputePosteriorRowWithLikelihoods(const AnswerList& answers,
                                        const std::vector<double>& prior,
                                        const LikelihoodLookup& likelihoods,
                                        std::vector<double>* out,
                                        double* marginal) {
  const int num_labels = static_cast<int>(prior.size());
  QASCA_CHECK_GT(num_labels, 0);
  QASCA_CHECK(out != nullptr);
  out->assign(prior.begin(), prior.end());
  for (const Answer& answer : answers) {
    const WorkerLikelihoods& table = likelihoods(answer.worker);
    QASCA_CHECK_EQ(table.num_labels(), num_labels);
    // Table row `answered` holds the same AnswerProbability doubles the
    // model-lookup loop multiplies by, contiguously in truth — one
    // elementwise kernel per answer, bitwise-equal product.
    kernels::MulRowInPlace(out->data(), table.Row(answer.label), num_labels);
  }
  double total = NormalizeInPlace(*out);
  if (marginal != nullptr) *marginal = total;
  QASCA_DCHECK_OK(invariants::CheckDistributionRow(*out));
}

std::vector<double> ComputePosteriorRow(const AnswerList& answers,
                                        const std::vector<double>& prior,
                                        const WorkerModelLookup& models,
                                        double* marginal) {
  std::vector<double> weights;
  ComputePosteriorRowInto(answers, prior, models, &weights, marginal);
  return weights;
}

DistributionMatrix ComputeCurrentDistribution(
    const AnswerSet& answers, const std::vector<double>& prior,
    const WorkerModelLookup& models) {
  const int n = static_cast<int>(answers.size());
  const int num_labels = static_cast<int>(prior.size());
  DistributionMatrix qc(n, num_labels);
  std::vector<double> row;
  row.reserve(static_cast<size_t>(num_labels));
  for (int i = 0; i < n; ++i) {
    ComputePosteriorRowInto(answers[i], prior, models, &row);
    qc.SetRow(i, row);
  }
  return qc;
}

std::vector<double> EstimateWorkerRowAt(std::span<const double> current_row,
                                        const WorkerModel& model, double u01) {
  const int num_labels = static_cast<int>(current_row.size());
  QASCA_CHECK_EQ(model.num_labels(), num_labels);

  // Predicted answer distribution P(a = j' | D_i) (Eq. 17). For WP models
  // the double sum collapses to a closed form — O(l) instead of O(l^2),
  // which matters for many-label applications like CompanyLogo (l = 214).
  std::vector<double> answer_distribution(num_labels, 0.0);
  if (model.kind() == WorkerModel::Kind::kWorkerProbability &&
      num_labels > 1) {
    double m = model.worker_probability();
    double off = (1.0 - m) / (num_labels - 1);
    for (int answered = 0; answered < num_labels; ++answered) {
      answer_distribution[answered] =
          m * current_row[answered] + off * (1.0 - current_row[answered]);
    }
  } else {
    for (int answered = 0; answered < num_labels; ++answered) {
      for (int truth = 0; truth < num_labels; ++truth) {
        answer_distribution[answered] +=
            model.AnswerProbability(answered, truth) * current_row[truth];
      }
    }
  }

  // Sample the answered label, then Qw_{i,j} proportional to
  // Qc_{i,j} * P(a = answered | t = j) (Eq. 18).
  const LabelIndex sampled = util::SampleWeightedAt(answer_distribution, u01);
  std::vector<double> weights(num_labels);
  for (int j = 0; j < num_labels; ++j) {
    weights[j] = current_row[j] * model.AnswerProbability(sampled, j);
  }
  NormalizeInPlace(weights);
  return weights;
}

std::vector<double> EstimateWorkerRow(std::span<const double> current_row,
                                      const WorkerModel& model,
                                      util::Rng& rng) {
  return EstimateWorkerRowAt(current_row, model, rng.Uniform());
}

DistributionMatrix EstimateWorkerDistribution(
    const DistributionMatrix& current, const WorkerModel& model,
    const std::vector<QuestionIndex>& candidates, util::Rng& rng) {
  DistributionMatrix qw = current;
  // One base draw per call keeps the caller's Rng stream advanced the same
  // way regardless of candidate count; every candidate then derives its own
  // counter-based stream from (base, question index).
  const uint64_t base = rng.engine()();
  for (QuestionIndex i : candidates) {
    util::SplitMix64 stream(
        util::SplitMix64::MixSeed(base, static_cast<uint64_t>(i)));
    qw.SetRow(i, EstimateWorkerRowAt(current.Row(i), model,
                                     stream.NextDouble()));
  }
  return qw;
}

// Candidate rows are independent, so the scan parallelises by chunk; the
// grain is fixed (never derived from the pool size) to keep the chunk
// decomposition — and with it any scheduling-sensitive behaviour —
// identical across thread counts.
namespace {
constexpr int kQwScanGrain = 256;
}  // namespace

void EstimateWorkerRowsInto(const DistributionMatrix& current,
                            const WorkerModel& model,
                            const WorkerLikelihoods& likelihoods,
                            const std::vector<QuestionIndex>& candidates,
                            QwMode /*mode*/, util::Rng& rng,
                            QwOverlay* overlay, util::ThreadPool* pool,
                            util::MetricRegistry* telemetry,
                            bool fuse_row_max) {
  QASCA_CHECK(overlay != nullptr);
  const int num_labels = current.num_labels();
  QASCA_CHECK_EQ(model.num_labels(), num_labels);
  QASCA_CHECK_EQ(likelihoods.num_labels(), num_labels);
  const int count = static_cast<int>(candidates.size());
  {
    // Arming the overlay (slot table reset + candidate stamping) is the
    // serial prefix of every estimation; traced separately so a trace shows
    // how much of estimate_qw is setup vs. row kernels.
    util::Span overlay_span(telemetry, util::tnames::kSpanQwOverlayFill);
    overlay->Begin(current.num_questions(), num_labels, count);
    for (int c = 0; c < count; ++c) {
      overlay->Stamp(candidates[static_cast<size_t>(c)], c);
    }
  }

  if (telemetry != nullptr) {
    telemetry->GetCounter(util::tnames::kQwSamplesDrawn)
        ->Add(static_cast<int64_t>(count));
    telemetry->GetCounter(util::tnames::kQwOverlayRows)
        ->Add(static_cast<int64_t>(count));
  }

  // Same base-draw discipline as EstimateWorkerDistribution: exactly one
  // engine draw, from which every candidate derives its own SplitMix64
  // stream seeded by (base, question).
  const uint64_t base = rng.engine()();

  if (count == 0) return;
  double* row_max = fuse_row_max ? overlay->ArmQualities() : nullptr;

  // WP answer distributions come from the O(l) closed-form kernel; every
  // other model shape goes through the confusion-matrix kernel against one
  // hoisted row-major copy of the matrix (AsConfusionMatrix materialises the
  // same AnswerProbability doubles, so the products match
  // EstimateWorkerRowAt's model-call loop bitwise).
  const bool use_wp_kernel =
      model.kind() == WorkerModel::Kind::kWorkerProbability && num_labels > 1;
  const double wp_m = use_wp_kernel ? model.worker_probability() : 0.0;
  const double wp_off =
      use_wp_kernel ? (1.0 - wp_m) / (num_labels - 1) : 0.0;
  std::vector<double> cm;
  if (!use_wp_kernel) cm = model.AsConfusionMatrix();

  // Per-chunk kernel scratch: one l-sized row per chunk (the predicted
  // answer distribution), addressed by the canonical chunk index so
  // parallel chunks never share.
  std::vector<double> scratch(
      static_cast<size_t>(util::NumChunks(0, count, kQwScanGrain)) *
      num_labels);

  // Fused batch kernel (kernels::SampledQwRows): answer distribution,
  // per-candidate SplitMix64 variate, weighted draw, conditioning and
  // normalisation in one dispatch per chunk. Overlay slots are
  // slot-contiguous per chunk (slot == candidate position), so the chunk
  // writes one dense [cb, ce) block of rows — and of fused row maxima.
  const double* qc_base = current.Row(0).data();
  util::Span batch_span(telemetry, util::tnames::kSpanQwSampledBatch);
  util::ParallelFor(pool, 0, count, kQwScanGrain, [&](int cb, int ce) {
    const int chunk = util::ChunkIndex(0, cb, kQwScanGrain);
    double* dist = scratch.data() + static_cast<size_t>(chunk) * num_labels;
    kernels::SampledQwRows(
        qc_base, num_labels, candidates.data() + cb, ce - cb, base, wp_m,
        wp_off, use_wp_kernel ? nullptr : cm.data(), likelihoods.Row(0),
        overlay->MutableRow(cb), row_max != nullptr ? row_max + cb : nullptr,
        dist);
#if QASCA_ENABLE_DCHECKS
    for (int c = cb; c < ce; ++c) {
      QASCA_DCHECK_OK(invariants::CheckDistributionRow(
          std::span<const double>(overlay->MutableRow(c),
                                  static_cast<size_t>(num_labels))));
    }
#endif
  });
}

}  // namespace qasca
