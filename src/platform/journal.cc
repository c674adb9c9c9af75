#include "platform/journal.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <system_error>
#include <utility>

#include "util/failpoint.h"
#include "util/logging.h"
#include "util/telemetry_names.h"

namespace qasca {

namespace {

// One event per line, integer tokens, closed by a "." terminator so a line
// that lost its end at a token boundary still fails to parse:
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

// Parses one line; returns false on any damage.
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

LifecycleJournal::LifecycleJournal(std::string path_prefix) {
  QASCA_CHECK(!path_prefix.empty());
  log_path_ = std::move(path_prefix) + ".log";
  // One event per line: sized once for every line on disk.
  history_.reserve(CountLines(log_path_));
  // Every newline-terminated line was flushed whole by an append that
  // returned OK, so it must parse and continue the seq; anything else is
  // corruption, not a crash artefact. Only the bytes after the last newline
  // can be a crash's torn write.
  std::ifstream in(log_path_, std::ios::binary);
  std::string line;
  uintmax_t whole_bytes = 0;
  bool torn = false;
  while (std::getline(in, line)) {
    if (in.eof()) {  // no newline
      torn = true;
      break;
    }
    Event event;
    QASCA_CHECK(ParseLine(line, &event)) << "corrupt journal line:" << line;
    QASCA_CHECK_EQ(event.seq, next_seq_) << "journal seq gap at" << event.seq;
    ++next_seq_;
    whole_bytes += line.size() + 1;
    history_.push_back(std::move(event));
  }
  in.close();
  // Cut the torn tail off before the first append, so no line continues it.
  std::error_code cut_error;
  if (torn) std::filesystem::resize_file(log_path_, whole_bytes, cut_error);
  log_.open(log_path_, std::ios::app);
  if (cut_error) log_.setstate(std::ios::badbit);
}

void LifecycleJournal::AttachTelemetry(util::MetricRegistry* registry) {
  if (registry == nullptr) {
    appends_ = nullptr;
    failpoints_triggered_ = nullptr;
    return;
  }
  appends_ = registry->GetCounter(util::tnames::kJournalAppends);
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
  if (appends_ != nullptr) appends_->Add(1);
  // drop_append and torn_append simulate the *disk* losing or tearing the
  // record in a crash the process never observes, so they return OK. Each
  // then fails the stream, as the dead process would write nothing more;
  // the test abandons this instance and recovers a fresh engine from what
  // reached the file.
  if (QASCA_FAIL_POINT("journal.drop_append")) {
    if (failpoints_triggered_ != nullptr) failpoints_triggered_->Add(1);
    log_.setstate(std::ios::badbit);
    return util::Status::Ok();
  }
  if (QASCA_FAIL_POINT("journal.torn_append")) {
    if (failpoints_triggered_ != nullptr) failpoints_triggered_->Add(1);
    log_ << line.substr(0, line.size() / 2) << std::flush;  // no newline
    log_.setstate(std::ios::badbit);
    return util::Status::Ok();
  }
  // A write error the stream reports, as a full disk would.
  if (QASCA_FAIL_POINT("journal.fail_append")) {
    if (failpoints_triggered_ != nullptr) failpoints_triggered_->Add(1);
    log_.setstate(std::ios::badbit);
  }
  // A stream write can fail (disk full, quota, I/O error) without throwing;
  // flush and interrogate the stream so a lost record is reported instead
  // of silently diverging from the in-memory history. A failed stream stays
  // failed, so every later append is refused too and nothing is written
  // past the gap.
  log_ << line;
  log_.flush();
  if (!log_.good()) {
    return util::Status::Internal(
        "journal append failed; the journal refuses all later appends: " +
        log_path_);
  }
  return util::Status::Ok();
}

}  // namespace qasca
