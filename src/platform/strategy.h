#ifndef QASCA_PLATFORM_STRATEGY_H_
#define QASCA_PLATFORM_STRATEGY_H_

#include <string>
#include <vector>

#include "core/distribution_matrix.h"
#include "core/metrics/metric.h"
#include "core/types.h"
#include "model/worker_model.h"
#include "util/rng.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace qasca {

class Database;
struct DecisionProvenance;

/// Everything a task-assignment policy may inspect when a worker requests a
/// HIT. All pointers are non-owning and valid only for the duration of the
/// SelectQuestions call.
///
/// Threading contract: built and consumed on the engine thread.
/// `database`, `metric` and the worker models are const views that kernel
/// chunks dispatched onto `pool` may read concurrently; `rng` is
/// engine-thread-only (kernels derive counter-based per-question streams
/// instead of sharing it); `telemetry` instruments are internally
/// synchronised.
struct StrategyContext {
  /// The system state (answer set, Qc, fitted parameters).
  const Database* database = nullptr;
  /// The application's evaluation metric.
  const MetricSpec* metric = nullptr;
  /// The requesting worker's fitted model (perfect for new workers).
  const WorkerModel* worker_model = nullptr;
  /// A representative "average worker" model fitted over all workers —
  /// used by policies that disregard who is asking (MaxMargin). Set only
  /// for strategies whose ReadsTypicalWorker() is true; nullptr otherwise.
  const WorkerModel* typical_worker = nullptr;
  /// Randomness source for tie-breaking and sampling.
  util::Rng* rng = nullptr;
  /// Optional worker pool for parallel per-candidate kernels (Qw
  /// estimation, benefit scans); nullptr runs serial. Selections are
  /// byte-identical either way.
  util::ThreadPool* pool = nullptr;
  /// Optional engine telemetry registry for stage spans and hot-path
  /// counters; nullptr records nothing, and a disabled registry reads no
  /// clock (its counters still count). Never influences decisions.
  util::MetricRegistry* telemetry = nullptr;
  /// Optional out-record for decision provenance (platform/provenance.h).
  /// When non-null, strategies that can explain their choice fill the
  /// selection scores and optimizer diagnostics; the engine fills the
  /// identity fields (ids, ticks, journal seq) and appends the record.
  /// Purely write-only diagnostics — never read back, never influences the
  /// selection.
  DecisionProvenance* provenance = nullptr;
};

/// A task-assignment policy: given the candidate set S^w, choose the k
/// questions to put in the worker's HIT. Implemented by QASCA itself and by
/// the five comparison systems of Section 6.2.1.
///
/// Threading contract: SelectQuestions runs on the engine thread only.
/// Implementations may parallelise internally through `context.pool`
/// (ParallelFor bodies limited to const reads of context state plus writes
/// to their own pre-sized chunk slots) but must not retain `context`
/// pointers past the call.
class AssignmentStrategy {
 public:
  virtual ~AssignmentStrategy() = default;

  /// Name used in experiment reports ("QASCA", "CDAS", ...).
  virtual std::string name() const = 0;

  /// Whether SelectQuestions reads StrategyContext::typical_worker. The
  /// core builds that model only for strategies that do.
  virtual bool ReadsTypicalWorker() const { return false; }

  /// Selects exactly `k` distinct questions from `candidates`.
  /// `candidates` is non-empty and has at least k elements.
  virtual std::vector<QuestionIndex> SelectQuestions(
      const StrategyContext& context,
      const std::vector<QuestionIndex>& candidates, int k) = 0;
};

}  // namespace qasca

#endif  // QASCA_PLATFORM_STRATEGY_H_
