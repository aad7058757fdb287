#ifndef APTRACE_UTIL_STRING_UTIL_H_
#define APTRACE_UTIL_STRING_UTIL_H_

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.h"
#include "util/status.h"

namespace aptrace {

/// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Parses the BDL timestamp formats used throughout the paper:
///   "MM/DD/YYYY"                 (midnight)
///   "MM/DD/YYYY:HH:MM:SS"
/// into microseconds since the Unix epoch (UTC, proleptic Gregorian).
Result<TimeMicros> ParseBdlTime(std::string_view s);

/// Formats microseconds-since-epoch back to "MM/DD/YYYY:HH:MM:SS".
std::string FormatBdlTime(TimeMicros t);

/// Parses a BDL duration literal such as "10mins", "30s", "2h", "500ms".
/// Accepted unit suffixes: ms, s/sec/secs, m/min/mins, h/hour/hours,
/// d/day/days.
Result<DurationMicros> ParseBdlDuration(std::string_view s);

/// Human-readable duration, e.g. "2m30s", "450ms".
std::string FormatDuration(DurationMicros d);

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// added). Shared by the graph JSON writer and the observability exports.
std::string JsonEscape(std::string_view s);

/// Appends integer `v` in decimal, the digits `operator<<` prints, with
/// no stream or temporary string. Used by the writers of documents that
/// grow with an investigation (graph JSON, `poll` replies).
template <typename Int>
void AppendDecimal(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace aptrace

#endif  // APTRACE_UTIL_STRING_UTIL_H_
