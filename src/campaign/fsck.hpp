// Offline integrity checking and repair for the durable campaign state —
// the library behind tools/rh_fsck.
//
// A serve data dir (or a bench working dir) accumulates four kinds of
// durable files: checkpoint journals and metrics streams (append-only
// JSONL, CRC-framed since v2), job descriptors and run reports (whole-file
// JSON, atomically replaced), plus two kinds of residue — orphaned `.tmp`
// files from a kill between write and rename, and `.quarantine` sidecars
// from past repairs. fsck classifies a journal or stream with the one JSONL
// scanner the readers use (scan_jsonl in record_io.hpp), handing it the
// readers' own parse functions, so its verdict (ok / torn tail / corrupt)
// is what JournalReader or read_metrics_stream sees: the final line is the
// torn tail when it fails to parse or lacks its newline, any other rejected
// line is corrupt. It can apply the repair a resume applies
// (quarantine_and_compact: truncate a torn tail, or quarantine corrupt
// mid-file lines and compact) and delete an orphaned tmp. Whole-file JSON
// documents have no line structure to salvage, so a corrupt descriptor or
// report — like a corrupt JSONL header — is reported as unrepairable: the
// operator decides (the data may still be recoverable from the journal).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace rh::campaign {

enum class FsckStatus : std::uint8_t {
  kOk = 0,     ///< fully intact (includes files fsck does not interpret)
  kTorn,       ///< only the trailing line is damaged — truncation repairs it
  kCorrupt,    ///< damage beyond the tail; repairable iff line-structured
  kOrphanTmp,  ///< leftover atomic-write temp file — deletion repairs it
};

enum class FsckFileType : std::uint8_t {
  kJournal = 0,  ///< rh-campaign-journal JSONL
  kStream,       ///< rh-metrics-stream JSONL
  kDescriptor,   ///< rh-serve-job/v1 whole-file JSON
  kReport,       ///< rh-run-report/v1 whole-file JSON
  kQuarantine,   ///< .quarantine sidecar from a past repair (not validated)
  kTmp,          ///< .tmp atomic-write leftover
  kOther,        ///< not a file fsck interprets
};

[[nodiscard]] const char* to_string(FsckStatus status);
[[nodiscard]] const char* to_string(FsckFileType type);

/// One corrupt mid-file line (kCorrupt verdicts on JSONL files).
struct FsckIssue {
  std::size_t line_no = 0;  ///< 1-based position in the file
  std::string reason;       ///< "CRC mismatch", parse error text, ...
};

/// One file's verdict.
struct FsckVerdict {
  std::string path;
  FsckFileType type = FsckFileType::kOther;
  FsckStatus status = FsckStatus::kOk;
  bool repairable = false;     ///< fsck_repair() can restore integrity
  std::uint64_t intact_lines = 0;  ///< JSONL record lines the reader accepts
  std::uint64_t intact_bytes = 0;  ///< undamaged prefix (truncation point)
  bool torn_tail = false;      ///< final line torn (also set on kCorrupt)
  std::vector<FsckIssue> issues;   ///< corrupt lines in file order (JSON: the parse error)
  std::string detail;          ///< one-line elaboration for the report
};

/// The job id of a serve job descriptor's file name — exactly
/// job-<digits>.json, not the report/journal/stream siblings that share
/// the prefix — or nullopt.
[[nodiscard]] std::optional<std::uint64_t> job_descriptor_id(const std::string& name);

/// Classifies one file. Never throws on damage (damage IS the verdict);
/// throws common::ConfigError only when the file cannot be read at all.
[[nodiscard]] FsckVerdict fsck_file(const std::string& path);

/// Classifies every regular file directly inside `data_dir`, sorted by
/// path. Throws common::ConfigError if the directory cannot be listed.
[[nodiscard]] std::vector<FsckVerdict> fsck_scan(const std::string& data_dir);

/// Applies the repair a verdict calls for: truncates a torn tail, moves
/// corrupt mid-file lines to `path`.quarantine and compacts (atomic
/// rewrite), deletes an orphaned tmp. Returns a one-line note of what was
/// done ("" when the file needed nothing). Throws common::ConfigError when
/// the verdict is unrepairable or the repair itself fails.
std::string fsck_repair(const FsckVerdict& verdict);

/// Human rendering: one verdict line per file plus a summary tally.
void render_fsck_report(std::ostream& os, const std::vector<FsckVerdict>& verdicts);

}  // namespace rh::campaign
