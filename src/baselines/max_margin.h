#ifndef QASCA_BASELINES_MAX_MARGIN_H_
#define QASCA_BASELINES_MAX_MARGIN_H_

#include <string>
#include <vector>

#include "platform/strategy.h"

namespace qasca {

/// MaxMargin (Section 6.2.1): selects the questions with the highest
/// expected marginal improvement, disregarding the characteristics of the
/// requesting worker.
///
/// The marginal improvement of question i is the expected increase of its
/// top posterior probability if one more answer arrives from a *typical*
/// worker (the average-quality WP model in the context): each possible
/// answer j' has probability sum_j P(a=j'|t=j) * Qc_{i,j}; conditioning on
/// it yields a new row whose maximum is averaged over j'.
class MaxMarginStrategy final : public AssignmentStrategy {
 public:
  std::string name() const override { return "MaxMargin"; }
  bool ReadsTypicalWorker() const override { return true; }

  std::vector<QuestionIndex> SelectQuestions(
      const StrategyContext& context,
      const std::vector<QuestionIndex>& candidates, int k) override;
};

}  // namespace qasca

#endif  // QASCA_BASELINES_MAX_MARGIN_H_
