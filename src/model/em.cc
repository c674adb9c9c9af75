#include "model/em.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/kernels/kernels.h"
#include "model/posterior.h"
#include "model/prior.h"
#include "util/fold.h"
#include "util/invariants.h"
#include "util/logging.h"

namespace qasca {

const WorkerModel& EmResult::WorkerFor(WorkerId worker) const {
  auto it = workers.find(worker);
  return it != workers.end() ? it->second : fallback;
}

namespace {

// The answer set D laid out flat for one refit (DESIGN.md §8). Workers get
// dense slots in ascending id order, so every fold over workers runs in the
// ascending-id order the fitted models are pinned to, independent of
// unordered_map bucket layout (the determinism pass of tools/analyze.py).
// Each answer's slot is stored once, in question order beside D itself;
// its label is read from D.
struct AnswerLayout {
  // Slot -> worker id, ascending.
  std::vector<WorkerId> workers;
  // Slot -> how many answers the worker gave.
  std::vector<int> slot_answers;
  // Question i's answers have slots slots[question_begin[i],
  // question_begin[i + 1]), in D_i's order.
  std::vector<int> question_begin;
  std::vector<int> slots;
};

AnswerLayout BuildLayout(const AnswerSet& answers, int num_labels) {
  AnswerLayout layout;
  const int n = static_cast<int>(answers.size());
  layout.question_begin.resize(static_cast<size_t>(n) + 1);
  int total = 0;
  for (int i = 0; i < n; ++i) {
    layout.question_begin[static_cast<size_t>(i)] = total;
    total += static_cast<int>(answers[static_cast<size_t>(i)].size());
  }
  layout.question_begin[static_cast<size_t>(n)] = total;

  // One hash lookup per answer for the whole refit: slots are first
  // numbered in order of first appearance, then renumbered by id below.
  std::unordered_map<WorkerId, int> first_seen;
  layout.slots.resize(static_cast<size_t>(total));
  size_t next = 0;
  for (const AnswerList& list : answers) {
    for (const Answer& answer : list) {
      QASCA_CHECK(answer.label >= 0 && answer.label < num_labels)
          << "answer label" << answer.label << "out of range";
      layout.slots[next++] =
          first_seen
              .try_emplace(answer.worker, static_cast<int>(first_seen.size()))
              .first->second;
    }
  }
  // Copy order is irrelevant: the pairs are sorted by id right below.
  std::vector<std::pair<WorkerId, int>> by_id(first_seen.begin(),
                                              first_seen.end());
  std::sort(by_id.begin(), by_id.end());
  const size_t num_slots = by_id.size();
  layout.workers.resize(num_slots);
  std::vector<int> slot_of_provisional(num_slots);
  for (size_t s = 0; s < num_slots; ++s) {
    layout.workers[s] = by_id[s].first;
    slot_of_provisional[static_cast<size_t>(by_id[s].second)] =
        static_cast<int>(s);
  }
  layout.slot_answers.assign(num_slots, 0);
  for (int& slot : layout.slots) {
    slot = slot_of_provisional[static_cast<size_t>(slot)];
    ++layout.slot_answers[static_cast<size_t>(slot)];
  }
  return layout;
}

#if QASCA_ENABLE_DCHECKS
// Log Dirichlet/Beta penalty the smoothed M-step implicitly maximises:
// smoothing * sum(log theta) over one worker's fitted parameters (`params`
// holds m for WP, the row-major confusion matrix otherwise). Adding it to
// the data log-likelihood gives the objective MAP-EM ascends, which is the
// quantity the monotonicity DCHECK tracks (the raw likelihood alone may
// legitimately dip when smoothing > 0). Returns false if any parameter sits
// on the boundary (log would be -inf; only possible with smoothing == 0,
// where the penalty is zero anyway and the caller passes over it).
bool AccumulateLogPenalty(bool wp, std::span<const double> params,
                          double smoothing, double* penalty) {
  if (smoothing <= 0.0) return true;
  if (wp) {
    const double m = params[0];
    if (m <= 0.0 || m >= 1.0) return false;
    *penalty += smoothing * (std::log(m) + std::log(1.0 - m));
    return true;
  }
  for (double entry : params) {
    if (entry <= 0.0) return false;
    *penalty += smoothing * std::log(entry);
  }
  return true;
}
#endif

// One refit's working state: the flat answer layout, the flat n-by-l
// posterior, and per slot its fitted parameters (m for WP, the row-major
// confusion matrix for CM) and its l-by-l likelihood table (row `answered`
// holds P(a = answered | t = truth) over truth, the WorkerLikelihoods
// layout), refilled after every M-step.
class Refit {
 public:
  Refit(const AnswerSet& answers, int num_labels, const EmOptions& options)
      : answers_(answers),
        layout_(BuildLayout(answers, num_labels)),
        n_(static_cast<int>(answers.size())),
        l_(num_labels),
        cells_(static_cast<size_t>(num_labels) * num_labels),
        options_(options),
        wp_(options.worker_kind == WorkerModel::Kind::kWorkerProbability),
        posterior_(static_cast<size_t>(n_) * num_labels),
        row_(static_cast<size_t>(num_labels)),
        tables_(layout_.workers.size() * cells_),
        params_(layout_.workers.size() * (wp_ ? 1 : cells_)) {
    if (wp_) {
      // The WP M-step's denominator, 2 * smoothing plus one per answer
      // folded left to right, depends only on the answer count.
      wp_total_.resize(layout_.workers.size());
      for (size_t s = 0; s < wp_total_.size(); ++s) {
        wp_total_[s] = util::DeterministicFold(
            2.0 * options_.smoothing, 0, layout_.slot_answers[s],
            [](double acc, int) { return acc + 1.0; });
      }
    }
  }

  // Dawid–Skene bootstrap: every row from smoothed vote counts.
  void SeedFromVotes() {
    for (int i = 0; i < n_; ++i) {
      double* row = Row(i);
      std::fill(row, row + l_, 1.0);
      for (const Answer& answer : answers_[static_cast<size_t>(i)]) {
        row[answer.label] += 1.0;
      }
      const double total =
          util::DeterministicSum(0, l_, [row](int j) { return row[j]; });
      for (int j = 0; j < l_; ++j) row[j] /= total;
    }
  }

  // Warm start: one E-step under `previous`'s models (its fallback for
  // workers it never fitted).
  void SeedFromModels(const EmResult& previous,
                      const std::vector<double>& prior) {
    for (size_t s = 0; s < layout_.workers.size(); ++s) {
      const WorkerModel& model = previous.WorkerFor(layout_.workers[s]);
      QASCA_CHECK_EQ(model.num_labels(), l_);
      double* table = Table(s);
      for (int answered = 0; answered < l_; ++answered, table += l_) {
        for (int truth = 0; truth < l_; ++truth) {
          table[truth] = model.AnswerProbability(answered, truth);
        }
      }
    }
    EStep(prior);
  }

  // The E/M loop from the seeded posterior. Leaves the models, prior and
  // iteration count in `result` and moves the posterior there, so it runs
  // once per Refit.
  void Run(EmResult* result, util::Counter* iterations) {
#if QASCA_ENABLE_DCHECKS
    // MAP objective (data log-likelihood + log penalty) of the previous
    // iteration's parameters; EM theory guarantees it never decreases.
    double previous_objective = 0.0;
    bool have_previous_objective = false;
#endif
    for (int iteration = 1; iteration <= options_.max_iterations;
         ++iteration) {
      result->iterations = iteration;

      // M-step: worker models and prior from posteriors.
      FitSlots();
      if (options_.estimate_prior) {
        EstimatePriorInto(posterior_, l_, &result->prior);
      }

#if QASCA_ENABLE_DCHECKS
      double objective = 0.0;
      bool objective_valid = true;
      // Ascending-slot (= ascending-id) order, so the objective is
      // bit-stable across runs.
      for (size_t s = 0; s < layout_.workers.size(); ++s) {
        objective_valid =
            objective_valid && AccumulateLogPenalty(wp_, Params(s),
                                                    options_.smoothing,
                                                    &objective);
      }
#endif

      const double max_change = EStep(result->prior);

#if QASCA_ENABLE_DCHECKS
      // Data log-likelihood: the rows' log marginals in question order. A
      // non-positive marginal (contradictory answers under degenerate 0/1
      // models) means the fallback row is not a true posterior, so the
      // ascent guarantee lapses.
      objective = util::DeterministicFold(
          objective, 0, n_, [&](double acc, int i) {
            const double marginal = marginals_[static_cast<size_t>(i)];
            if (marginal > 0.0) return acc + std::log(marginal);
            objective_valid = false;
            return acc;
          });
      if (have_previous_objective && objective_valid) {
        QASCA_DCHECK_OK(invariants::CheckLogLikelihoodMonotone(
            previous_objective, objective,
            /*tolerance=*/1e-8 * (1.0 + std::fabs(previous_objective))));
      }
      previous_objective = objective;
      have_previous_objective = objective_valid;
#endif

      if (max_change <= options_.tolerance) break;
    }
    if (iterations != nullptr) {
      // Iterations-to-convergence of this fit (Section 5.2's EM loop).
      iterations->Add(result->iterations);
    }

    result->posterior = DistributionMatrix(n_, l_, std::move(posterior_));
    if (result->iterations > 0) {
      result->workers.reserve(layout_.workers.size());
      for (size_t s = 0; s < layout_.workers.size(); ++s) {
        const std::span<const double> params = Params(s);
        result->workers.emplace(
            layout_.workers[s],
            wp_ ? WorkerModel::Wp(params[0], l_)
                : WorkerModel::Cm({params.begin(), params.end()}, l_));
      }
    }
  }

 private:
  const int* Slots(int question) const {
    return layout_.slots.data() +
           layout_.question_begin[static_cast<size_t>(question)];
  }
  double* Row(int question) {
    return posterior_.data() + static_cast<size_t>(question) * l_;
  }
  double* Table(size_t slot) { return tables_.data() + slot * cells_; }
  std::span<double> Params(size_t slot) {
    const size_t size = wp_ ? 1 : cells_;
    return {params_.data() + slot * size, size};
  }

  // M-step: re-fits every slot from the flat posterior, runs the checks
  // WorkerModel::Wp / Cm apply to a model on each fit, and refills the
  // slot's likelihood table.
  void FitSlots() {
    // Expected counts, seeded with the smoothing pseudo-counts: per WP slot
    // the answers that match the true label, per CM slot the (true j,
    // answered j') pairs. One sweep over D in question order hands every
    // slot its answers' terms in question order, the order of a per-worker
    // left-to-right fold.
    std::fill(params_.begin(), params_.end(), options_.smoothing);
    for (int i = 0; i < n_; ++i) {
      const double* row = Row(i);
      const int* slot = Slots(i);
      for (const Answer& answer : answers_[static_cast<size_t>(i)]) {
        double* counts = Params(static_cast<size_t>(*slot++)).data();
        if (wp_) {
          counts[0] += row[answer.label];
          continue;
        }
        for (int j = 0; j < l_; ++j) {
          counts[static_cast<size_t>(j) * l_ + answer.label] += row[j];
        }
      }
    }
    for (size_t s = 0; s < layout_.workers.size(); ++s) {
      double* table = Table(s);
      if (wp_) {
        // m_w = expected fraction of this worker's answers that match the
        // true label.
        const double m = std::clamp(params_[s] / wp_total_[s], 0.0, 1.0);
        QASCA_CHECK_GE(m, 0.0);
        QASCA_CHECK_LE(m, 1.0);
        params_[s] = m;
        // The WorkerModel::AnswerProbability doubles verbatim.
        const double off = l_ > 1 ? (1.0 - m) / (l_ - 1) : 0.0;
        for (int answered = 0; answered < l_; ++answered, table += l_) {
          for (int truth = 0; truth < l_; ++truth) {
            table[truth] = answered == truth ? m : off;
          }
        }
        continue;
      }
      // Confusion matrix: M[j][j'] = expected count of (true j, answered j')
      // over expected count of true j among this worker's answers.
      double* counts = Params(s).data();
      for (int j = 0; j < l_; ++j) {
        double* truth_row = counts + static_cast<size_t>(j) * l_;
        const double row_total = util::DeterministicSum(
            0, l_, [truth_row](int j2) { return truth_row[j2]; });
        for (int j2 = 0; j2 < l_; ++j2) truth_row[j2] /= row_total;
      }
      QASCA_CHECK_OK(invariants::CheckConfusionMatrix(Params(s), l_));
      for (int answered = 0; answered < l_; ++answered, table += l_) {
        for (int truth = 0; truth < l_; ++truth) {
          table[truth] = counts[static_cast<size_t>(truth) * l_ + answered];
        }
      }
    }
  }

  // E-step: every posterior row from the prior and the slot tables
  // (Eq. 16), in one pass over the rows. Returns the largest cell change
  // (the convergence test); with DCHECKs on, also keeps each row's
  // marginal likelihood for the objective check.
  double EStep(const std::vector<double>& prior) {
    double* row = row_.data();
    double max_change = 0.0;
    for (int i = 0; i < n_; ++i) {
      std::copy(prior.begin(), prior.end(), row);
      const int* slot = Slots(i);
      for (const Answer& answer : answers_[static_cast<size_t>(i)]) {
        const double* likelihood = Table(static_cast<size_t>(*slot++)) +
                                   static_cast<size_t>(answer.label) * l_;
        kernels::MulRowInPlace(row, likelihood, l_);
      }
      const double marginal = NormalizePosteriorRow(row, l_);
      QASCA_DCHECK_OK(invariants::CheckDistributionRow(
          std::span<const double>(row, static_cast<size_t>(l_))));
      double* cell = Row(i);
      for (int j = 0; j < l_; ++j) {
        max_change = std::max(max_change, std::fabs(row[j] - cell[j]));
        cell[j] = row[j];
      }
#if QASCA_ENABLE_DCHECKS
      marginals_[static_cast<size_t>(i)] = marginal;
#else
      (void)marginal;
#endif
    }
    return max_change;
  }

  const AnswerSet& answers_;
  const AnswerLayout layout_;
  const int n_;
  const int l_;
  const size_t cells_;
  const EmOptions& options_;
  const bool wp_;
  std::vector<double> posterior_;
  // The E-step's scratch row.
  std::vector<double> row_;
#if QASCA_ENABLE_DCHECKS
  // Each row's marginal likelihood from the last E-step.
  std::vector<double> marginals_ =
      std::vector<double>(static_cast<size_t>(n_));
#endif
  std::vector<double> tables_;
  std::vector<double> params_;
  // Per slot, the WP M-step's smoothed answer count.
  std::vector<double> wp_total_;
};

WorkerModel PerfectModel(const EmOptions& options, int num_labels) {
  return options.worker_kind == WorkerModel::Kind::kConfusionMatrix
             ? WorkerModel::PerfectCm(num_labels)
             : WorkerModel::PerfectWp(num_labels);
}

}  // namespace

EmResult RunEm(const AnswerSet& answers, int num_labels,
               const EmOptions& options, util::ThreadPool* /*pool*/,
               util::Counter* iterations) {
  QASCA_CHECK_GT(num_labels, 0);
  EmResult result;
  result.prior = UniformPrior(num_labels);
  result.fallback = PerfectModel(options, num_labels);
  Refit refit(answers, num_labels, options);
  refit.SeedFromVotes();
  refit.Run(&result, iterations);
  return result;
}

EmResult RunEmWarmStart(const AnswerSet& answers, int num_labels,
                        const EmOptions& options, const EmResult& previous,
                        util::ThreadPool* /*pool*/,
                        util::Counter* iterations) {
  QASCA_CHECK_GT(num_labels, 0);
  const int n = static_cast<int>(answers.size());
  if (previous.posterior.num_questions() != n ||
      previous.posterior.num_labels() != num_labels ||
      previous.workers.empty()) {
    // Shape changed (different question pool) or nothing was ever fitted.
    // The second case matters: an all-uniform posterior is a *fixed point*
    // of the EM update (the symmetric saddle), so warm-starting from a
    // blank state would never leave it — bootstrap from votes instead.
    return RunEm(answers, num_labels, options, nullptr, iterations);
  }
  EmResult result;
  result.prior = previous.prior.size() == static_cast<size_t>(num_labels)
                     ? previous.prior
                     : UniformPrior(num_labels);
  result.fallback = PerfectModel(options, num_labels);
  // Seed from the previous *worker models*, not the previous posteriors: an
  // initial E-step against the full (old + new) answer set re-anchors every
  // posterior to the data, so stale per-question beliefs cannot persist and
  // the label-flip degeneracies a posterior-seeded restart can drift into
  // are avoided.
  Refit refit(answers, num_labels, options);
  refit.SeedFromModels(previous, result.prior);
  refit.Run(&result, iterations);
  return result;
}

}  // namespace qasca
