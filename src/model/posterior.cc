#include "model/posterior.h"

#include <algorithm>

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
                                        const WorkerModel& model, QwMode mode,
                                        double u01) {
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

  // Qw_{i,j} proportional to Qc_{i,j} * P(a = answered | t = j) (Eq. 18),
  // written into `out`.
  auto conditioned_into = [&](LabelIndex answered, std::vector<double>& out) {
    for (int j = 0; j < num_labels; ++j) {
      out[j] = current_row[j] * model.AnswerProbability(answered, j);
    }
    NormalizeInPlace(out);
  };

  if (mode == QwMode::kSampled) {
    LabelIndex sampled = util::SampleWeightedAt(answer_distribution, u01);
    std::vector<double> weights(num_labels);
    conditioned_into(sampled, weights);
    return weights;
  }

  // kExpected: mixture of the conditioned posteriors weighted by the
  // predicted answer distribution. One conditioned-row buffer is reused
  // across the mixture terms.
  std::vector<double> expected(num_labels, 0.0);
  std::vector<double> weights(num_labels);
  for (int answered = 0; answered < num_labels; ++answered) {
    if (answer_distribution[answered] <= 0.0) continue;
    conditioned_into(answered, weights);
    for (int j = 0; j < num_labels; ++j) {
      expected[j] += answer_distribution[answered] * weights[j];
    }
  }
  NormalizeInPlace(expected);
  QASCA_DCHECK_OK(invariants::CheckDistributionRow(expected));
  return expected;
}

std::vector<double> EstimateWorkerRow(std::span<const double> current_row,
                                      const WorkerModel& model, QwMode mode,
                                      util::Rng& rng) {
  return EstimateWorkerRowAt(current_row, model, mode,
                             mode == QwMode::kSampled ? rng.Uniform() : 0.0);
}

DistributionMatrix EstimateWorkerDistribution(
    const DistributionMatrix& current, const WorkerModel& model,
    const std::vector<QuestionIndex>& candidates, QwMode mode,
    util::Rng& rng) {
  DistributionMatrix qw = current;
  // One base draw per call keeps the caller's Rng stream advanced the same
  // way regardless of candidate count; every candidate then derives its own
  // counter-based stream from (base, question index).
  const uint64_t base = mode == QwMode::kSampled ? rng.engine()() : 0;
  for (QuestionIndex i : candidates) {
    double u01 = 0.0;
    if (mode == QwMode::kSampled) {
      util::SplitMix64 stream(
          util::SplitMix64::MixSeed(base, static_cast<uint64_t>(i)));
      u01 = stream.NextDouble();
    }
    qw.SetRow(i, EstimateWorkerRowAt(current.Row(i), model, mode, u01));
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
                            QwMode mode, util::Rng& rng, QwOverlay* overlay,
                            util::ThreadPool* pool,
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

  const bool wp_closed_form =
      mode == QwMode::kExpected &&
      model.kind() == WorkerModel::Kind::kWorkerProbability && num_labels > 1;

  if (telemetry != nullptr) {
    if (mode == QwMode::kSampled) {
      telemetry->GetCounter(util::tnames::kQwSamplesDrawn)
          ->Add(static_cast<int64_t>(count));
    }
    if (wp_closed_form) {
      telemetry->GetCounter(util::tnames::kQwClosedFormRows)
          ->Add(static_cast<int64_t>(count));
    }
    telemetry->GetCounter(util::tnames::kQwOverlayRows)
        ->Add(static_cast<int64_t>(count));
  }

  // Same base-draw discipline as EstimateWorkerDistribution: kExpected
  // consumes no randomness at all, kSampled takes exactly one engine draw
  // and derives per-candidate SplitMix64 streams from (base, question).
  const uint64_t base = mode == QwMode::kSampled ? rng.engine()() : 0;

  if (count == 0) return;
  double* row_max = fuse_row_max ? overlay->ArmQualities() : nullptr;

  if (wp_closed_form) {
    // E[Qw_i] = sum_a P(a | D_i) * conditioned(a) = Qc_i exactly (law of
    // total probability over Eqs. 17-18; the per-answer normalisers are the
    // mixture weights). Copy the current rows instead of materialising and
    // re-normalising the mixture.
    const kernels::RowMaxFn fused_max = kernels::ActiveRowMax();
    util::ParallelFor(pool, 0, count, kQwScanGrain, [&](int cb, int ce) {
      for (int c = cb; c < ce; ++c) {
        QuestionIndex i = candidates[static_cast<size_t>(c)];
        std::span<const double> cur = current.Row(i);
        std::copy(cur.begin(), cur.end(), overlay->MutableRow(c));
        if (row_max != nullptr) {
          row_max[c] = fused_max(cur.data(), num_labels);
        }
      }
    });
    return;
  }

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

  // Per-chunk kernel scratch: two l-sized rows per chunk (the predicted
  // answer distribution and, for kExpected mixtures, one conditioned row),
  // addressed by the canonical chunk index so parallel chunks never share.
  std::vector<double> scratch(
      static_cast<size_t>(util::NumChunks(0, count, kQwScanGrain)) * 2 *
      num_labels);

  if (mode == QwMode::kSampled) {
    // Fused batch kernel (kernels::SampledQwRows): answer distribution,
    // per-candidate SplitMix64 variate, weighted draw, conditioning and
    // normalisation in one dispatch per chunk. Overlay slots are
    // slot-contiguous per chunk (slot == candidate position), so the chunk
    // writes one dense [cb, ce) block of rows — and of fused row maxima.
    const double* qc_base = current.Row(0).data();
    util::Span batch_span(telemetry, util::tnames::kSpanQwSampledBatch);
    util::ParallelFor(pool, 0, count, kQwScanGrain, [&](int cb, int ce) {
      const int chunk = util::ChunkIndex(0, cb, kQwScanGrain);
      double* dist =
          scratch.data() + static_cast<size_t>(chunk) * 2 * num_labels;
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
    return;
  }

  util::ParallelFor(pool, 0, count, kQwScanGrain, [&](int cb, int ce) {
    const int chunk = util::ChunkIndex(0, cb, kQwScanGrain);
    double* dist =
        scratch.data() + static_cast<size_t>(chunk) * 2 * num_labels;
    double* mix = dist + num_labels;
    for (int c = cb; c < ce; ++c) {
      QuestionIndex i = candidates[static_cast<size_t>(c)];
      std::span<const double> cur = current.Row(i);
      // Predicted answer distribution P(a = j' | D_i) (Eq. 17).
      if (use_wp_kernel) {
        kernels::WpAnswerDistribution(cur.data(), num_labels, wp_m, wp_off,
                                      dist);
      } else {
        kernels::CmAnswerDistribution(cm.data(), cur.data(), num_labels,
                                      dist);
      }
      double* out = overlay->MutableRow(c);
      // kExpected mixture (non-WP models): accumulate the conditioned
      // posteriors weighted by the predicted answer distribution.
      std::fill(out, out + num_labels, 0.0);
      for (int answered = 0; answered < num_labels; ++answered) {
        if (dist[answered] <= 0.0) continue;
        kernels::MulRow(mix, cur.data(), likelihoods.Row(answered),
                        num_labels);
        NormalizePosteriorRow(mix, num_labels);
        kernels::AxpyRow(out, dist[answered], mix, num_labels);
      }
      NormalizePosteriorRow(out, num_labels);
      if (row_max != nullptr) {
        row_max[c] = kernels::RowMax(out, num_labels);
      }
      QASCA_DCHECK_OK(invariants::CheckDistributionRow(
          std::span<const double>(out, static_cast<size_t>(num_labels))));
    }
  });
}

}  // namespace qasca
