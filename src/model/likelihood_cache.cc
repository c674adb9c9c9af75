#include "model/likelihood_cache.h"

#include "util/logging.h"

namespace qasca {

WorkerLikelihoods WorkerLikelihoods::FromModel(const WorkerModel& model) {
  WorkerLikelihoods likelihoods;
  likelihoods.Rebuild(model);
  return likelihoods;
}

void WorkerLikelihoods::Rebuild(const WorkerModel& model) {
  num_labels_ = model.num_labels();
  table_.resize(static_cast<size_t>(num_labels_) * num_labels_);
  // Filled through AnswerProbability so the table holds the exact doubles
  // the model-call loops multiply by (the bit-identity contract above).
  for (int answered = 0; answered < num_labels_; ++answered) {
    double* row = table_.data() + static_cast<size_t>(answered) * num_labels_;
    for (int truth = 0; truth < num_labels_; ++truth) {
      row[truth] = model.AnswerProbability(answered, truth);
    }
  }
}

LikelihoodCache::LikelihoodCache(util::Counter* hits, util::Counter* misses)
    : hits_counter_(hits), misses_counter_(misses) {
  QASCA_CHECK(hits_counter_ != nullptr && misses_counter_ != nullptr);
}

const WorkerLikelihoods& LikelihoodCache::Get(WorkerId worker,
                                              const WorkerModel& model) {
  auto it = entries_.find(worker);
  if (it != entries_.end()) {
    QASCA_DCHECK_EQ(it->second.num_labels(), model.num_labels());
    hits_counter_->Add(1);
    return it->second;
  }
  misses_counter_->Add(1);
  return entries_.emplace(worker, WorkerLikelihoods::FromModel(model))
      .first->second;
}

void LikelihoodCache::Invalidate() {
  entries_.clear();
  ++generation_;
}

}  // namespace qasca
