#ifndef QASCA_PLATFORM_PROVENANCE_H_
#define QASCA_PLATFORM_PROVENANCE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.h"
#include "util/attributes.h"
#include "util/status.h"

namespace qasca {

/// Why one HIT was assigned: the chosen questions with the benefit scores
/// that ranked them, the optimizer's diagnostics, and the engine state the
/// decision was made under (EM generation, lease/journal sequencing). One
/// record per successful RequestHit, appended to the engine's ProvenanceLog
/// and dumpable as JSONL for audit and offline regret analysis (DESIGN.md
/// §13).
///
/// All timing fields are virtual (engine ticks / journal sequence numbers)
/// — never wall-clock — so records replay bit-identically through crash
/// recovery.
///
/// Threading contract: a plain value type. The engine fills and appends
/// records on its single driving thread; readers consume them through
/// ProvenanceLog accessors under the engine's external-synchronization
/// contract (see engine.h).
struct DecisionProvenance {
  /// The record's one id: the seq of the journal line recording this
  /// assignment (counted the same way when the engine runs without a
  /// journal). It is also the HIT id and the "trace" arg of the flight
  /// recorder's span events for the same request.
  uint64_t journal_seq = 0;
  WorkerId worker = 0;
  /// Chosen question ids, ascending (the HIT's contents).
  std::vector<QuestionIndex> questions;
  /// Per-question benefit scores parallel to `questions`: the quantity the
  /// optimizer ranked the question by (Accuracy*: Eq. 12 row-quality gain;
  /// F-score*: target-probability swing).
  std::vector<double> scores;
  /// The optimizer's converged objective (0 when the serving path skips
  /// the O(n) objective sweep; see AssignmentRequest::compute_objective).
  double objective = 0.0;
  int outer_iterations = 0;
  int inner_iterations = 0;
  /// Candidate-set size |S^w| the selection was drawn from.
  int candidates = 0;
  /// Full-EM-refit generation the decision saw (Qc posterior vintage).
  uint64_t em_generation = 0;
  /// Engine virtual clock at assignment, and the lease deadline granted.
  uint64_t now_ticks = 0;
  uint64_t lease_deadline = 0;
};

/// Fixed-capacity ring of DecisionProvenance records: the last `capacity`
/// assignments, overwritten oldest-first. Bounded memory regardless of
/// uptime, like the flight recorder — the ring answers "explain the recent
/// decisions", the JSONL dump persists them when the full history matters.
///
/// Threading contract: externally synchronized, same as the owning engine —
/// Record and the accessors must be serialized by the caller (the engine's
/// single driving thread).
class ProvenanceLog {
 public:
  explicit ProvenanceLog(int capacity);

  ProvenanceLog(const ProvenanceLog&) = delete;
  ProvenanceLog& operator=(const ProvenanceLog&) = delete;

  /// Records an entry; evicts the oldest record once full.
  void Record(DecisionProvenance record);

  int capacity() const noexcept { return capacity_; }
  /// Records currently retained (<= capacity).
  int size() const noexcept;
  /// Records appended over the log's lifetime (including evicted ones).
  int64_t total_appended() const noexcept { return total_; }
  /// Retained records oldest-first; `i` in [0, size()).
  const DecisionProvenance& at(int i) const;

  /// One JSON object per line, oldest record first.
  std::string ToJsonLines() const;

  /// Parses a ToJsonLines dump back into records (round-trip inverse;
  /// blank lines ignored). Used by audit tooling and the round-trip test.
  QASCA_NODISCARD static util::StatusOr<std::vector<DecisionProvenance>>
  ParseJsonLines(std::string_view text);

 private:
  int capacity_;
  int64_t total_ = 0;
  std::vector<DecisionProvenance> ring_;
};

}  // namespace qasca

#endif  // QASCA_PLATFORM_PROVENANCE_H_
