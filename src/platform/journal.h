#ifndef QASCA_PLATFORM_JOURNAL_H_
#define QASCA_PLATFORM_JOURNAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"
#include "util/attributes.h"
#include "util/status.h"
#include "util/telemetry.h"

namespace qasca {

/// Write-ahead journal of the HIT lifecycle, the persistence behind
/// Engine::Recover (DESIGN.md §11). Every assignment, completion and
/// virtual-clock tick is appended; because engine decisions are a pure
/// function of (config, seed, event history), replaying the journal through
/// the normal engine paths reproduces the crashed engine bit-for-bit —
/// posteriors, worker models, RNG stream, open leases — with no
/// field-by-field state serialisation at all.
///
/// On-disk layout ("<prefix>" is AppConfig::persistence_path):
///  * <prefix>.snapshot — the compacted event history. Replaced only by
///    atomic rename, so it is always whole; a parse error here is data
///    corruption, not a crash artefact, and recovery refuses it.
///  * <prefix>.log — events appended since the last compaction. A crash can
///    tear or lose its tail; recovery keeps the longest well-formed,
///    strictly seq-ascending prefix and drops the rest (those events never
///    happened, exactly like a redo log). Events with seq numbers already
///    covered by the snapshot are skipped, so a crash between the
///    compaction rename and the log truncation double-counts nothing.
///
/// Construction loads whatever survived and immediately compacts it, so a
/// torn tail never receives further appends.
///
/// Memory: the journal holds the loaded events until the engine's Recover()
/// has replayed them and calls ReleaseLoadedEvents(); appended events go to
/// the log file only, so nothing grows with the app's lifetime.
///
/// Threading contract: engine-thread-only, like the Database — appends
/// happen between kernel dispatches on the thread driving the engine; pool
/// workers never touch the journal.
class LifecycleJournal {
 public:
  struct Event {
    enum class Kind { kAssign, kComplete, kTick };
    /// Strictly ascending, 0-based; the snapshot/log dedup key.
    uint64_t seq = 0;
    Kind kind = Kind::kAssign;
    WorkerId worker = 0;
    /// Virtual-clock advance (kTick only).
    uint64_t ticks = 0;
    /// The assigned questions (kAssign only).
    std::vector<QuestionIndex> questions;
    /// The answered labels (kComplete only).
    std::vector<LabelIndex> labels;
  };

  /// Loads surviving events from "<prefix>.snapshot" / "<prefix>.log"
  /// (tolerating a torn log tail) and compacts them. Aborts on a corrupt
  /// snapshot — that file is written atomically, so damage there is not a
  /// crash artefact.
  explicit LifecycleJournal(std::string path_prefix);

  /// Wires the journal's counters (journal.appends, journal.compactions,
  /// failpoint.triggered) into `registry`. nullptr detaches.
  void AttachTelemetry(util::MetricRegistry* registry);

  /// Durably appends one lifecycle event. A non-OK Status means the record
  /// did not verifiably reach the log file (open or write failure): the
  /// caller must not report the event as durable — an append that "succeeds"
  /// without reaching disk is exactly the silent recovery divergence the
  /// journal exists to prevent. The seq still advances, so a caller that
  /// treats the failure as fatal crashes consistent.
  QASCA_NODISCARD
  util::Status AppendAssign(WorkerId worker,
                            const std::vector<QuestionIndex>& questions);
  QASCA_NODISCARD
  util::Status AppendComplete(WorkerId worker,
                              const std::vector<LabelIndex>& labels);
  QASCA_NODISCARD util::Status AppendTick(uint64_t ticks);

  /// The events loaded at construction (what survived on disk),
  /// seq-ascending; appends never add to it. Recovery replays exactly this.
  const std::vector<Event>& events() const { return history_; }

  /// Frees the loaded events once recovery has replayed them; events()
  /// is empty afterwards.
  void ReleaseLoadedEvents();

  /// Seq of the most recently appended event (the provenance join key).
  /// Only meaningful after at least one append.
  uint64_t last_seq() const { return next_seq_ - 1; }

 private:
  QASCA_NODISCARD util::Status Append(Event event);

  /// Folds the log into the snapshot: writes the loaded history to a temp
  /// file, renames it over the snapshot, then truncates the log. Runs once,
  /// at construction, while history_ still holds every surviving event. A
  /// non-OK Status means the snapshot was not replaced (the old one is
  /// intact — the rename is atomic) or the log truncation failed; either
  /// way the on-disk state is still recoverable, just uncompacted.
  QASCA_NODISCARD util::Status Compact();

  std::string snapshot_path() const { return path_prefix_ + ".snapshot"; }
  std::string log_path() const { return path_prefix_ + ".log"; }

  std::string path_prefix_;
  /// The events loaded at construction; source of truth for Compact.
  std::vector<Event> history_;
  uint64_t next_seq_ = 0;
  util::Counter* appends_ = nullptr;
  util::Counter* compactions_ = nullptr;
  util::Counter* failpoints_triggered_ = nullptr;
};

}  // namespace qasca

#endif  // QASCA_PLATFORM_JOURNAL_H_
