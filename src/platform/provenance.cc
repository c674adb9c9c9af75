#include "platform/provenance.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#include "util/json.h"
#include "util/logging.h"

namespace qasca {
namespace {

// --- minimal JSONL field extraction --------------------------------------
// The dump format is fixed (ToJsonLines below emits every key, in order,
// with no nesting beyond the two flat arrays), so parsing scans for
// '"key":' and reads the scalar or array after it — no general JSON parser
// needed for the round-trip.

// Returns the character offset just past `"key":`, or npos.
size_t FindKey(std::string_view line, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const size_t pos = line.find(needle);
  return pos == std::string_view::npos ? std::string_view::npos
                                       : pos + needle.size();
}

util::Status ParseDouble(std::string_view line, std::string_view key,
                         double* out) {
  const size_t pos = FindKey(line, key);
  if (pos == std::string_view::npos) {
    return util::Status::InvalidArgument("provenance line missing key \"" +
                                         std::string(key) + "\"");
  }
  const std::string token(line.substr(pos, line.find_first_of(",]}", pos) -
                                               pos));
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  if (end == token.c_str()) {
    return util::Status::InvalidArgument("provenance key \"" +
                                         std::string(key) +
                                         "\" has a non-numeric value");
  }
  return util::Status::Ok();
}

util::Status ParseU64(std::string_view line, std::string_view key,
                      uint64_t* out) {
  double value = 0.0;
  QASCA_RETURN_IF_ERROR(ParseDouble(line, key, &value));
  *out = static_cast<uint64_t>(value);
  return util::Status::Ok();
}

util::Status ParseInt(std::string_view line, std::string_view key, int* out) {
  double value = 0.0;
  QASCA_RETURN_IF_ERROR(ParseDouble(line, key, &value));
  *out = static_cast<int>(value);
  return util::Status::Ok();
}

util::Status ParseBool(std::string_view line, std::string_view key,
                       bool* out) {
  const size_t pos = FindKey(line, key);
  if (pos == std::string_view::npos) {
    return util::Status::InvalidArgument("provenance line missing key \"" +
                                         std::string(key) + "\"");
  }
  if (line.substr(pos, 4) == "true") {
    *out = true;
  } else if (line.substr(pos, 5) == "false") {
    *out = false;
  } else {
    return util::Status::InvalidArgument("provenance key \"" +
                                         std::string(key) +
                                         "\" has a non-boolean value");
  }
  return util::Status::Ok();
}

// Parses the flat numeric array after `"key":[` into `out` via `parse_one`.
template <typename T>
util::Status ParseArray(std::string_view line, std::string_view key,
                        std::vector<T>* out) {
  size_t pos = FindKey(line, key);
  if (pos == std::string_view::npos || pos >= line.size() ||
      line[pos] != '[') {
    return util::Status::InvalidArgument("provenance line missing array \"" +
                                         std::string(key) + "\"");
  }
  const size_t close = line.find(']', pos);
  if (close == std::string_view::npos) {
    return util::Status::InvalidArgument("provenance array \"" +
                                         std::string(key) + "\" unterminated");
  }
  out->clear();
  ++pos;  // past '['
  while (pos < close) {
    const size_t comma = std::min(line.find(',', pos), close);
    const std::string token(line.substr(pos, comma - pos));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str()) {
      return util::Status::InvalidArgument("provenance array \"" +
                                           std::string(key) +
                                           "\" has a non-numeric element");
    }
    out->push_back(static_cast<T>(value));
    pos = comma + 1;
  }
  return util::Status::Ok();
}

void AppendRecordJson(std::string& out, const DecisionProvenance& record) {
  out += "{\"journal_seq\":";
  out += std::to_string(record.journal_seq);
  out += ",\"worker\":";
  out += std::to_string(record.worker);
  out += ",\"questions\":[";
  for (size_t i = 0; i < record.questions.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(record.questions[i]);
  }
  out += "],\"scores\":[";
  for (size_t i = 0; i < record.scores.size(); ++i) {
    if (i > 0) out += ',';
    util::AppendJsonNumber(out, record.scores[i]);
  }
  out += "],\"objective\":";
  util::AppendJsonNumber(out, record.objective);
  out += ",\"outer_iterations\":";
  out += std::to_string(record.outer_iterations);
  out += ",\"inner_iterations\":";
  out += std::to_string(record.inner_iterations);
  out += ",\"candidates\":";
  out += std::to_string(record.candidates);
  out += ",\"cache_hit\":";
  out += record.likelihood_cache_hit ? "true" : "false";
  out += ",\"em_generation\":";
  out += std::to_string(record.em_generation);
  out += ",\"ticks\":";
  out += std::to_string(record.now_ticks);
  out += ",\"deadline\":";
  out += std::to_string(record.lease_deadline);
  out += "}";
}

// Keys of older dumps that no field reads any more ("seq", "trace", "hit",
// "kernel_isa", "kernel_isa_name") are skipped like any unknown key.
util::Status ParseRecord(std::string_view line, DecisionProvenance* record) {
  QASCA_RETURN_IF_ERROR(
      ParseU64(line, "journal_seq", &record->journal_seq));
  QASCA_RETURN_IF_ERROR(ParseInt(line, "worker", &record->worker));
  QASCA_RETURN_IF_ERROR(ParseArray(line, "questions", &record->questions));
  QASCA_RETURN_IF_ERROR(ParseArray(line, "scores", &record->scores));
  QASCA_RETURN_IF_ERROR(ParseDouble(line, "objective", &record->objective));
  QASCA_RETURN_IF_ERROR(
      ParseInt(line, "outer_iterations", &record->outer_iterations));
  QASCA_RETURN_IF_ERROR(
      ParseInt(line, "inner_iterations", &record->inner_iterations));
  QASCA_RETURN_IF_ERROR(ParseInt(line, "candidates", &record->candidates));
  QASCA_RETURN_IF_ERROR(
      ParseBool(line, "cache_hit", &record->likelihood_cache_hit));
  QASCA_RETURN_IF_ERROR(
      ParseU64(line, "em_generation", &record->em_generation));
  QASCA_RETURN_IF_ERROR(ParseU64(line, "ticks", &record->now_ticks));
  QASCA_RETURN_IF_ERROR(
      ParseU64(line, "deadline", &record->lease_deadline));
  if (record->questions.size() != record->scores.size()) {
    return util::Status::InvalidArgument(
        "provenance questions/scores arrays differ in length");
  }
  return util::Status::Ok();
}

}  // namespace

ProvenanceLog::ProvenanceLog(int capacity)
    : capacity_(std::max(1, capacity)) {
  ring_.reserve(static_cast<size_t>(capacity_));
}

void ProvenanceLog::Record(DecisionProvenance record) {
  if (static_cast<int>(ring_.size()) < capacity_) {
    ring_.push_back(std::move(record));
  } else {
    ring_[static_cast<size_t>(total_ % capacity_)] = std::move(record);
  }
  ++total_;
}

int ProvenanceLog::size() const noexcept {
  return static_cast<int>(ring_.size());
}

const DecisionProvenance& ProvenanceLog::at(int i) const {
  QASCA_CHECK(i >= 0 && i < size());
  const int64_t start = total_ >= capacity_ ? total_ % capacity_ : 0;
  return ring_[static_cast<size_t>((start + i) % size())];
}

std::string ProvenanceLog::ToJsonLines() const {
  std::string out;
  for (int i = 0; i < size(); ++i) {
    AppendRecordJson(out, at(i));
    out += '\n';
  }
  return out;
}

util::StatusOr<std::vector<DecisionProvenance>> ProvenanceLog::ParseJsonLines(
    std::string_view text) {
  std::vector<DecisionProvenance> records;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t eol = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    DecisionProvenance record;
    QASCA_RETURN_IF_ERROR(ParseRecord(line, &record));
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace qasca
