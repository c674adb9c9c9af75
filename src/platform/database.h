#ifndef QASCA_PLATFORM_DATABASE_H_
#define QASCA_PLATFORM_DATABASE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/distribution_matrix.h"
#include "core/types.h"
#include "model/em.h"

namespace qasca {

/// The Database component of QASCA (Appendix A): stores the answer set D,
/// the per-worker assignment history that defines each candidate set S^w,
/// and the model parameters (worker models, prior, current distribution
/// matrix Qc) refreshed on every HIT completion.
///
/// Purely in-memory; the real system backs this with an RDBMS, but nothing
/// in the paper's algorithms depends on persistence.
///
/// Threading contract: single-writer, engine-thread-only — no internal
/// locking, deliberately. All mutators (MarkAssigned, Unassign,
/// RecordAnswer, SetParameters, UpdatePosteriorRow) run on the engine
/// thread between kernel dispatches; ThreadPool chunks only ever see const
/// references to `answers()`, `parameters()` and `current()` while no
/// mutator can run (ParallelFor blocks the engine thread until every chunk
/// finishes). This contract is what lets the hot kernels skip locks
/// entirely; the lock-annotations pass of tools/analyze.py requires the
/// contract to be (re)stated here whenever this header grows shared state.
class Database {
 public:
  Database(int num_questions, int num_labels);

  int num_questions() const { return num_questions_; }
  int num_labels() const { return num_labels_; }

  /// Marks `questions` as assigned to `worker`; they leave S^w immediately
  /// so the worker can never receive duplicates, even across open HITs.
  void MarkAssigned(WorkerId worker, const std::vector<QuestionIndex>& questions);

  /// Reverses MarkAssigned for an expired lease: `questions` re-enter the
  /// worker's candidate set S^w. Each must currently be assigned to
  /// `worker` and must not have an answer recorded from them (requeue
  /// happens only for HITs that never completed).
  void Unassign(WorkerId worker, const std::vector<QuestionIndex>& questions);

  /// Appends one answer to D_i.
  void RecordAnswer(QuestionIndex question, WorkerId worker, LabelIndex label);

  /// The candidate set S^w: all questions never assigned to `worker`,
  /// ascending.
  std::vector<QuestionIndex> CandidatesFor(WorkerId worker) const;
  /// The same set written into `*out`, whose storage a server keeps across
  /// requests.
  void CandidatesFor(WorkerId worker, std::vector<QuestionIndex>* out) const;

  /// Number of answers collected for `question`.
  int AnswerCount(QuestionIndex question) const;

  const AnswerSet& answers() const { return answers_; }

  /// Replaces the cached model parameters (worker models + prior +
  /// posterior Qc) with a fresh EM fit. Bumps qc_version().
  void SetParameters(EmResult parameters);
  const EmResult& parameters() const { return parameters_; }

  /// Incremental Qc refresh: overwrites one posterior row of the cached
  /// parameters (and with it current()), leaving worker models and prior
  /// untouched. Used between full EM refits, when a HIT completion changed
  /// only the answer sets of its k questions (the posterior update of Eq. 5
  /// touches exactly those rows). `row` must be a normalised distribution
  /// of num_labels() entries. Bumps qc_version().
  void UpdatePosteriorRow(QuestionIndex question,
                          std::span<const double> row);

  /// Counts the writes to Qc (SetParameters, UpdatePosteriorRow), so a
  /// reader holding values derived from Qc can tell whether they are still
  /// current: equal versions mean an unchanged Qc.
  uint64_t qc_version() const { return qc_version_; }

  /// The current distribution matrix Qc: the cached parameters' posterior.
  /// Before any HIT completes this is the uniform prior (Section 5.1).
  const DistributionMatrix& current() const { return parameters_.posterior; }

 private:
  int num_questions_;
  int num_labels_;
  AnswerSet answers_;
  /// Each worker's assigned questions, ascending.
  std::unordered_map<WorkerId, std::vector<QuestionIndex>> assigned_;
  EmResult parameters_;
  uint64_t qc_version_ = 0;
};

}  // namespace qasca

#endif  // QASCA_PLATFORM_DATABASE_H_
