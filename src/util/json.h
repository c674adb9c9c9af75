#ifndef QASCA_UTIL_JSON_H_
#define QASCA_UTIL_JSON_H_

#include <string>
#include <string_view>

namespace qasca::util {

/// Appends `value` to `out` with the JSON string escapes applied (quotes,
/// backslash, control characters as \uXXXX) — no surrounding quotes. Shared
/// by every hand-rolled JSON emitter in the tree (MetricRegistry::ToJson,
/// FlightRecorder::ToChromeJson, ProvenanceLog::ToJsonLines) so escaping
/// rules live in exactly one place.
void AppendJsonEscaped(std::string& out, std::string_view value);

/// Appends `value` as a complete JSON string token: quotes plus escapes.
void AppendJsonString(std::string& out, std::string_view value);

/// Convenience form returning the quoted, escaped token.
std::string JsonString(std::string_view value);

/// Appends a finite double with enough digits to round-trip; non-finite
/// values (which JSON cannot represent) are emitted as 0.
void AppendJsonNumber(std::string& out, double value);

}  // namespace qasca::util

#endif  // QASCA_UTIL_JSON_H_
