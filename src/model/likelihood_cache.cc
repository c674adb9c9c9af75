#include "model/likelihood_cache.h"

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

}  // namespace qasca
