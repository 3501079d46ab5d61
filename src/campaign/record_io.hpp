// RowRecord <-> JSON-line serialization for the campaign results journal,
// plus the minimal JSON reader the journal needs to load itself back.
//
// The write side emits one compact JSON object per record with every field
// of core::RowRecord; doubles are printed with 17 significant digits so a
// parse-back reproduces the exact bit pattern. That exactness is what lets
// a resumed campaign emit byte-identical tables/CSV to an uninterrupted
// one: journaled records must be indistinguishable from recomputed ones.
//
// The read side is a small recursive-descent JSON parser (objects, arrays,
// strings, numbers, true/false/null) that keeps raw number text so integer
// fields can be re-parsed without a double round-trip.
//
// split_lines is the one newline splitter the JSONL readers (journal
// resume, fsck, tail) share.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/characterizer.hpp"

namespace rh::campaign {

/// Parsed JSON value. Numbers keep their raw text (`text`) so callers pick
/// integer or floating parsing; object member order is preserved.
struct JsonValue {
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  ///< raw number text, or decoded string contents
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  /// Object member by key, or nullptr (also nullptr for non-objects).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// Member that must exist; throws common::ConfigError otherwise.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::uint64_t as_u64() const;
};

/// Parses one JSON document. Throws common::ConfigError on malformed input;
/// `what` names the input in the error message.
[[nodiscard]] JsonValue parse_json(std::string_view text, const std::string& what);

/// Appends `record` as a compact JSON object to `out` (no newline).
void append_row_record_json(std::string& out, const core::RowRecord& record);

/// Rebuilds a RowRecord from its JSON form. Throws common::ConfigError on
/// missing fields or out-of-range values.
[[nodiscard]] core::RowRecord parse_row_record(const JsonValue& value);

/// Formats a double with enough digits to round-trip exactly through
/// strtod (17 significant digits).
[[nodiscard]] std::string format_double_exact(double v);

/// A file's content split at '\n' (the newlines dropped).
struct SplitLines {
  std::vector<std::string> lines;
  bool final_newline = true;  ///< false when trailing bytes had no '\n'
};

/// Splits `content` into lines; trailing bytes with no newline become the
/// last line, with `final_newline` false (a kill mid-append leaves them).
[[nodiscard]] SplitLines split_lines(const std::string& content);

}  // namespace rh::campaign
