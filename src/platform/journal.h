#ifndef QASCA_PLATFORM_JOURNAL_H_
#define QASCA_PLATFORM_JOURNAL_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/types.h"
#include "util/attributes.h"
#include "util/status.h"

namespace qasca {

/// Write-ahead journal of the HIT lifecycle, the persistence behind
/// Engine::Recover (DESIGN.md §11). Every assignment, completion and
/// virtual-clock tick is appended; because engine decisions are a pure
/// function of (config, seed, event history), replaying the journal through
/// the normal engine paths reproduces the crashed engine bit-for-bit —
/// posteriors, worker models, RNG stream, open leases — with no
/// field-by-field state serialisation at all.
///
/// On disk it is one append-only file, "<prefix>.log" ("<prefix>" is
/// AppConfig::persistence_path): one event per newline-terminated line,
/// seqs contiguous from 0. The constructor opens it once and holds it open;
/// each append writes one line and flushes it to the OS. Nothing is
/// fsynced, so an acknowledged event survives a process crash, not a power
/// loss.
///
/// Loading: every newline-terminated line must parse and continue the seq;
/// anything else is damage a crash cannot cause, and the constructor aborts.
/// Bytes after the last newline are a torn tail (a crash mid-append): the
/// constructor truncates the file to the end of the last whole line, so a
/// torn tail never receives appends.
///
/// Fail-stop: a write that fails leaves the held stream failed, and that
/// append and every later one return Internal, so nothing is ever written
/// past a seq gap.
///
/// Memory: the journal holds the loaded events until the engine's Recover()
/// has replayed them and calls ReleaseLoadedEvents(); appended events go to
/// the file only, so nothing grows with the app's lifetime.
///
/// Threading contract: engine-thread-only, like the Database — appends
/// happen between kernel dispatches on the thread driving the engine; pool
/// workers never touch the journal.
class LifecycleJournal {
 public:
  struct Event {
    enum class Kind { kAssign, kComplete, kTick };
    /// Contiguous and 0-based: line i of the file holds seq i.
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

  /// Loads the events in "<prefix>.log", cuts a torn tail off the file and
  /// opens it for appends. Aborts on a line that does not parse or does not
  /// continue the seq from 0. If the file cannot be opened or cut, every
  /// append returns Internal.
  explicit LifecycleJournal(std::string path_prefix);

  /// Appends one lifecycle event and flushes it to the OS (no fsync). A
  /// non-OK Status means the record did not verifiably reach the file: the
  /// caller must not report the event as recorded — an append that
  /// "succeeds" without reaching the file is exactly the silent recovery
  /// divergence the journal exists to prevent. After one failure every
  /// later append fails too (fail-stop).
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

  std::string log_path_;
  /// The events loaded at construction, until ReleaseLoadedEvents().
  std::vector<Event> history_;
  uint64_t next_seq_ = 0;
  /// The file, held open for appends. Once failed it stays failed.
  std::ofstream log_;
};

}  // namespace qasca

#endif  // QASCA_PLATFORM_JOURNAL_H_
