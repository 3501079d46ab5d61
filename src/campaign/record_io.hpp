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
// scan_jsonl is the one damage classifier of the CRC-framed JSONL files
// (the checkpoint journal and the metrics stream): the journal reader, the
// stream reader and rh_fsck all call it, each with its own parse
// functions, so they cannot disagree on which line is intact, torn or
// corrupt. quarantine_and_compact is the one repair (resume and
// rh_fsck --repair) built on its result.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/characterizer.hpp"

namespace rh::resilience {
class StorageFaultInjector;
}  // namespace rh::resilience

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

/// One damaged line before the final one: quarantine fodder.
struct CorruptLine {
  std::size_t line_no = 0;  ///< 1-based position in the file
  std::string reason;       ///< "CRC mismatch", parse error text, ...
  std::string raw;          ///< the line exactly as it sits on disk
};

/// One JSONL file classified line by line.
struct JsonlScan {
  std::string raw_header;            ///< line 1 exactly as on disk
  std::string header_error;          ///< why line 1 was rejected ("" when intact)
  std::vector<std::string> intact;   ///< accepted record lines as on disk, in file order
  std::vector<CorruptLine> corrupt;  ///< rejected lines before the final one
  bool torn_tail = false;            ///< the final line was rejected or lacks its newline
  /// The undamaged prefix: the header plus every line before the first
  /// corrupt line or the torn tail (the truncation point of a repair).
  std::uint64_t intact_bytes = 0;
};

/// Parses one line's JSON payload; rejects it by throwing
/// common::ConfigError.
using JsonlParse = std::function<void(const JsonValue&)>;

/// Classifies every line of a JSONL file. Line 1 is the header, every later
/// non-blank line a record (blank lines are skipped). A line is intact when
/// its CRC frame (if it has one — v1 lines are bare) matches, its payload
/// parses as JSON, and `parse_header` / `parse_record` accepts it; the
/// parse function is called only for lines that pass the first two checks.
/// The final line is the torn tail when it lacks its newline (it is then
/// never parsed: appending after it would fuse two lines) or is rejected;
/// any other rejected line is corrupt. A rejected header ends the scan with
/// header_error set (and torn_tail when it was the final line); what that
/// means is the caller's file-kind policy. `what` names the file in parse
/// errors.
[[nodiscard]] JsonlScan scan_jsonl(const std::string& content, const std::string& what,
                                   const JsonlParse& parse_header,
                                   const JsonlParse& parse_record);

/// Makes `path` hold only what `scan` (a scan of its current content) read
/// as intact. With no corrupt lines it truncates the torn tail (to
/// scan.intact_bytes); otherwise it appends the corrupt lines verbatim to
/// `path`.quarantine and atomically rewrites `path` as the header plus
/// every intact line. `what` names the file in errors. Throws
/// common::ConfigError, or common::StorageError from the atomic rewrite.
void quarantine_and_compact(const std::string& path, const JsonlScan& scan,
                            const std::string& what,
                            resilience::StorageFaultInjector* injector = nullptr);

/// The whole content of `path`; throws common::ConfigError
/// ("cannot open <what>: <path>") when it cannot be opened.
[[nodiscard]] std::string read_whole_file(const std::string& path, const std::string& what);

/// True when `doc` is an object whose "kind" member is `kind`.
[[nodiscard]] bool has_kind(const JsonValue& doc, std::string_view kind);

}  // namespace rh::campaign
