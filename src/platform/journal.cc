#include "platform/journal.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "util/failpoint.h"
#include "util/logging.h"
#include "util/telemetry_names.h"

namespace qasca {

namespace {

// One event per line, integer tokens, closed by a "." terminator so a torn
// tail that happens to cut at a token boundary still fails to parse:
//   <seq> A <worker> <n> <q1> ... <qn> .     assignment
//   <seq> C <worker> <n> <l1> ... <ln> .     completion
//   <seq> T <ticks> .                        virtual-clock advance
std::string Serialize(const LifecycleJournal::Event& event) {
  std::ostringstream out;
  out << event.seq << ' ';
  switch (event.kind) {
    case LifecycleJournal::Event::Kind::kAssign:
      out << "A " << event.worker << ' ' << event.questions.size();
      for (QuestionIndex q : event.questions) out << ' ' << q;
      break;
    case LifecycleJournal::Event::Kind::kComplete:
      out << "C " << event.worker << ' ' << event.labels.size();
      for (LabelIndex l : event.labels) out << ' ' << l;
      break;
    case LifecycleJournal::Event::Kind::kTick:
      out << "T " << event.ticks;
      break;
  }
  out << " .\n";
  return out.str();
}

// Parses one line; returns false on any damage (torn tail, partial write).
bool ParseLine(const std::string& line, LifecycleJournal::Event* event) {
  std::istringstream in(line);
  std::string kind;
  if (!(in >> event->seq >> kind)) return false;
  if (kind == "A" || kind == "C") {
    size_t count = 0;
    if (!(in >> event->worker >> count)) return false;
    event->kind = kind == "A" ? LifecycleJournal::Event::Kind::kAssign
                              : LifecycleJournal::Event::Kind::kComplete;
    // Sized once; a line of L characters holds at most L / 2 values, which
    // bounds the reservation a damaged count can ask for.
    (kind == "A" ? event->questions : event->labels)
        .reserve(std::min(count, line.size() / 2));
    for (size_t i = 0; i < count; ++i) {
      int value = 0;
      if (!(in >> value)) return false;
      if (kind == "A") {
        event->questions.push_back(value);
      } else {
        event->labels.push_back(value);
      }
    }
  } else if (kind == "T") {
    event->kind = LifecycleJournal::Event::Kind::kTick;
    if (!(in >> event->ticks)) return false;
  } else {
    return false;
  }
  std::string terminator;
  if (!(in >> terminator) || terminator != ".") return false;
  return !(in >> terminator);  // trailing garbage is damage too
}

size_t CountLines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return static_cast<size_t>(std::count(std::istreambuf_iterator<char>(in),
                                        std::istreambuf_iterator<char>(),
                                        '\n'));
}

}  // namespace

LifecycleJournal::LifecycleJournal(std::string path_prefix)
    : path_prefix_(std::move(path_prefix)) {
  QASCA_CHECK(!path_prefix_.empty());
  // One event per line: sized once for every line on disk.
  history_.reserve(CountLines(snapshot_path()) + CountLines(log_path()));
  // The snapshot is only ever replaced whole (tmp + rename), so every line
  // must parse and seqs must be contiguous from 0; anything else is data
  // corruption, not a crash artefact.
  std::ifstream snapshot(snapshot_path());
  std::string line;
  while (snapshot.is_open() && std::getline(snapshot, line)) {
    Event event;
    QASCA_CHECK(ParseLine(line, &event))
        << "corrupt journal snapshot line:" << line;
    QASCA_CHECK_EQ(event.seq, next_seq_)
        << "journal snapshot seq gap at" << event.seq;
    ++next_seq_;
    history_.push_back(std::move(event));
  }
  // The log's tail can be torn or lost by a crash: keep the longest
  // well-formed strictly-ascending prefix. Events the snapshot already
  // covers (crash between compaction rename and log truncation) are
  // skipped by their seq.
  std::ifstream log(log_path());
  while (log.is_open() && std::getline(log, line)) {
    Event event;
    if (!ParseLine(line, &event)) break;
    if (event.seq < next_seq_) continue;
    if (event.seq > next_seq_) break;
    ++next_seq_;
    history_.push_back(std::move(event));
  }
  snapshot.close();
  log.close();
  // Compacting now means a surviving torn tail never receives appends. A
  // journal that cannot even rewrite its snapshot at construction has no
  // durability to offer, so this one is fatal.
  QASCA_CHECK_OK(Compact());
}

void LifecycleJournal::AttachTelemetry(util::MetricRegistry* registry) {
  if (registry == nullptr) {
    appends_ = nullptr;
    compactions_ = nullptr;
    failpoints_triggered_ = nullptr;
    return;
  }
  appends_ = registry->GetCounter(util::tnames::kJournalAppends);
  compactions_ = registry->GetCounter(util::tnames::kJournalCompactions);
  failpoints_triggered_ =
      registry->GetCounter(util::tnames::kFailpointsTriggered);
}

util::Status LifecycleJournal::AppendAssign(
    WorkerId worker, const std::vector<QuestionIndex>& questions) {
  Event event;
  event.kind = Event::Kind::kAssign;
  event.worker = worker;
  event.questions = questions;
  return Append(std::move(event));
}

util::Status LifecycleJournal::AppendComplete(
    WorkerId worker, const std::vector<LabelIndex>& labels) {
  Event event;
  event.kind = Event::Kind::kComplete;
  event.worker = worker;
  event.labels = labels;
  return Append(std::move(event));
}

util::Status LifecycleJournal::AppendTick(uint64_t ticks) {
  Event event;
  event.kind = Event::Kind::kTick;
  event.ticks = ticks;
  return Append(std::move(event));
}

void LifecycleJournal::ReleaseLoadedEvents() {
  std::vector<Event>().swap(history_);
}

util::Status LifecycleJournal::Append(Event event) {
  event.seq = next_seq_++;
  const std::string line = Serialize(event);
  // The seq always advances — these fail points simulate the *disk* losing
  // the record in a crash the process never observes (so they return OK),
  // after which the test abandons this instance and recovers a fresh
  // engine from what reached the file.
  if (appends_ != nullptr) appends_->Add(1);
  if (QASCA_FAIL_POINT("journal.drop_append")) {
    if (failpoints_triggered_ != nullptr) failpoints_triggered_->Add(1);
    return util::Status::Ok();
  }
  std::ofstream log(log_path(), std::ios::app);
  if (!log.is_open()) {
    return util::Status::Internal("cannot append to journal " + log_path());
  }
  if (QASCA_FAIL_POINT("journal.torn_append")) {
    if (failpoints_triggered_ != nullptr) failpoints_triggered_->Add(1);
    log << line.substr(0, line.size() / 2);  // no newline: a torn write
    return util::Status::Ok();
  }
  // A stream write can fail (disk full, quota, I/O error) without throwing;
  // flush and interrogate the stream so a lost record is reported instead
  // of silently diverging from the in-memory history.
  log << line;
  log.flush();
  if (!log.good()) {
    return util::Status::Internal("journal append did not reach disk: " +
                                  log_path());
  }
  return util::Status::Ok();
}

util::Status LifecycleJournal::Compact() {
  const std::string tmp_path = snapshot_path() + ".tmp";
  {
    std::ofstream tmp(tmp_path, std::ios::trunc);
    if (!tmp.is_open()) {
      return util::Status::Internal("cannot write journal snapshot " +
                                    tmp_path);
    }
    for (const Event& event : history_) tmp << Serialize(event);
    tmp.flush();
    if (!tmp.good()) {
      return util::Status::Internal("journal snapshot write failed: " +
                                    tmp_path);
    }
  }
  if (std::rename(tmp_path.c_str(), snapshot_path().c_str()) != 0) {
    return util::Status::Internal("cannot replace journal snapshot " +
                                  snapshot_path());
  }
  if (compactions_ != nullptr) compactions_->Add(1);
  if (QASCA_FAIL_POINT("journal.compact_skip_truncate")) {
    // Crash between the rename and the truncation: the log keeps events the
    // snapshot already covers, which recovery dedupes by seq.
    if (failpoints_triggered_ != nullptr) failpoints_triggered_->Add(1);
    return util::Status::Ok();
  }
  std::ofstream truncate(log_path(), std::ios::trunc);
  if (!truncate.is_open()) {
    return util::Status::Internal("cannot truncate journal log " +
                                  log_path());
  }
  return util::Status::Ok();
}

}  // namespace qasca
