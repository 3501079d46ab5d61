#include "campaign/fsck.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <ostream>

#include "campaign/record_io.hpp"
#include "common/error.hpp"
#include "resilience/storage.hpp"

namespace rh::campaign {

namespace {

using common::ConfigError;

bool ends_with(const std::string& text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("cannot open file: " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// --- payload validators (throw ConfigError; mirror the readers) ----------

/// Field checks matter for their throws alone; the values are discarded.
template <typename T>
void require(const T& /*value*/) {}

void validate_journal_header(const JsonValue& doc) {
  const JsonValue* kind = doc.find("kind");
  if (kind == nullptr || kind->text != "rh-campaign-journal") {
    throw ConfigError("not a campaign journal header");
  }
  const std::uint64_t version = doc.at("version").as_u64();
  if (version != 1 && version != 2) {
    throw ConfigError("unsupported journal version " + std::to_string(version));
  }
  require(doc.at("seed").as_u64());
  require(doc.at("config_hash"));
  require(doc.at("shards").as_u64());
}

void validate_journal_record(const JsonValue& doc) {
  require(doc.at("shard").as_u64());
  if (const JsonValue* failed = doc.find("failed"); failed != nullptr) {
    if (failed->kind != JsonValue::Kind::kString) {
      throw ConfigError("journal failure line: \"failed\" is not a string");
    }
  } else {
    for (const JsonValue& r : doc.at("records").items) require(parse_row_record(r));
  }
}

void validate_stream_header(const JsonValue& doc) {
  const JsonValue* kind = doc.find("kind");
  if (kind == nullptr || kind->text != "rh-metrics-stream") {
    throw ConfigError("not a metrics stream header");
  }
  require(doc.at("version").as_u64());
  require(doc.at("seed").as_u64());
  require(doc.at("config_hash"));
  require(doc.at("shards").as_u64());
  require(doc.at("jobs").as_u64());
  require(doc.at("cycle_cadence").as_u64());
  require(doc.at("wall_cadence_ms").as_double());
}

void validate_stream_record(const JsonValue& doc) {
  const std::string& sample = doc.at("sample").text;
  if (sample == "cycles") {
    require(doc.at("shard").as_u64());
    require(doc.at("attempt").as_u64());
    require(doc.at("seq").as_u64());
    require(doc.at("cycle").as_u64());
    require(doc.at("deltas"));
  } else if (sample == "wall") {
    require(doc.at("t_ms").as_double());
    require(doc.at("counters"));
    for (const JsonValue& w : doc.at("workers").items) {
      require(w.at("busy_ms").as_double());
      require(w.at("done").as_u64());
      require(w.at("shard"));
    }
  } else if (sample == "final") {
    require(doc.at("t_ms").as_double());
    require(doc.at("counters"));
    const JsonValue& shards = doc.at("shards");
    require(shards.at("done").as_u64());
    require(shards.at("failed").as_u64());
    require(shards.at("skipped").as_u64());
    require(shards.at("total").as_u64());
  } else {
    throw ConfigError("unknown sample kind '" + sample + "'");
  }
}

using Validator = void (*)(const JsonValue&);

/// Full classification of one JSONL file, raw lines retained for repair.
struct JsonlScan {
  FsckVerdict verdict;
  std::string raw_header;
  std::vector<std::string> raw_intact;   ///< record lines, in file order
  std::vector<std::string> corrupt_raw;  ///< parallel to verdict.issues
};

/// One line's classification attempt: CRC check, parse, validate.
bool classify_line(const std::string& line, const std::string& path, std::size_t line_no,
                   Validator validate, std::string& reason) {
  std::string_view body;
  if (resilience::check_frame(line, body) == resilience::FrameCheck::kMismatch) {
    reason = "CRC mismatch";
    return false;
  }
  try {
    const JsonValue doc = parse_json(std::string(body), path + ":" + std::to_string(line_no));
    validate(doc);
  } catch (const ConfigError& e) {
    reason = e.what();
    return false;
  }
  return true;
}

/// The readers' damage taxonomy over one JSONL file: a damaged header is
/// fatal (unrepairable), a damaged final line is a torn tail, a damaged
/// mid-file line is corruption (quarantinable).
JsonlScan scan_jsonl(const std::string& path, const std::string& content,
                     FsckFileType type, Validator validate_header, Validator validate_record) {
  JsonlScan scan;
  FsckVerdict& v = scan.verdict;
  v.path = path;
  v.type = type;

  const SplitLines split = split_lines(content);
  std::string reason;
  if (split.lines.empty() ||
      !classify_line(split.lines[0], path, 1, validate_header, reason)) {
    v.status = FsckStatus::kCorrupt;
    v.repairable = false;
    v.detail = split.lines.empty() ? "empty file (no header)"
                                   : "damaged header — nothing below it can be trusted";
    if (!split.lines.empty()) v.issues.push_back({1, reason});
    return scan;
  }
  scan.raw_header = split.lines[0];
  v.intact_bytes = split.lines[0].size() + 1;

  bool damaged = false;
  for (std::size_t i = 1; i < split.lines.size(); ++i) {
    const std::string& line = split.lines[i];
    const bool tail = i + 1 == split.lines.size();
    if (line.empty()) {
      if (!damaged) v.intact_bytes += 1;
      continue;
    }
    if (classify_line(line, path, i + 1, validate_record, reason)) {
      ++v.intact_lines;
      scan.raw_intact.push_back(line);
      if (!damaged) v.intact_bytes += line.size() + 1;
      continue;
    }
    if (tail) {
      v.torn_tail = true;
      break;
    }
    v.issues.push_back({i + 1, reason});
    scan.corrupt_raw.push_back(line);
    damaged = true;
  }
  v.intact_bytes = std::min<std::uint64_t>(v.intact_bytes, content.size());

  if (!v.issues.empty()) {
    v.status = FsckStatus::kCorrupt;
    v.repairable = true;
    v.detail = std::to_string(v.issues.size()) + " corrupt mid-file line(s)";
  } else if (v.torn_tail) {
    v.status = FsckStatus::kTorn;
    v.repairable = true;
    v.detail = "torn trailing line (intact prefix: " + std::to_string(v.intact_bytes) +
               " bytes)";
  }
  return scan;
}

bool is_descriptor_name(const std::string& name) {
  // Exactly job-<digits>.json: the descriptor, not its report siblings.
  if (name.rfind("job-", 0) != 0) return false;
  const std::string::size_type dot = name.find('.');
  if (dot == std::string::npos || name.substr(dot) != ".json") return false;
  if (dot == 4) return false;
  for (std::string::size_type i = 4; i < dot; ++i) {
    if (std::isdigit(static_cast<unsigned char>(name[i])) == 0) return false;
  }
  return true;
}

bool valid_job_state(const std::string& text) {
  return text == "queued" || text == "running" || text == "done" || text == "failed" ||
         text == "cancelled";
}

/// Whole-file JSON documents (descriptors, reports): atomically replaced,
/// so any damage means the atomic-write discipline was violated (or the
/// medium rotted) — there is no line structure to salvage.
FsckVerdict fsck_json(const std::string& path, const std::string& name,
                      const std::string& content) {
  FsckVerdict v;
  v.path = path;
  v.type = is_descriptor_name(name)
               ? FsckFileType::kDescriptor
               : (name.find(".report.") != std::string::npos ? FsckFileType::kReport
                                                             : FsckFileType::kOther);
  try {
    const JsonValue doc = parse_json(content, path);
    const JsonValue* schema = doc.find("schema");
    const std::string tag = schema != nullptr ? schema->text : "";
    if (tag == "rh-serve-job/v1") {
      v.type = FsckFileType::kDescriptor;
      require(doc.at("id").as_u64());
      require(doc.at("config"));
      if (!valid_job_state(doc.at("state").text)) {
        throw ConfigError("unknown job state \"" + doc.at("state").text + "\"");
      }
    } else if (tag == "rh-run-report/v1") {
      v.type = FsckFileType::kReport;
    } else if (v.type != FsckFileType::kOther) {
      throw ConfigError("expected schema tag missing (found \"" + tag + "\")");
    } else {
      v.detail = "foreign json (not validated)";
    }
  } catch (const ConfigError& e) {
    v.status = FsckStatus::kCorrupt;
    v.repairable = false;
    v.issues.push_back({1, e.what()});
    v.detail = "whole-file document damaged — no line structure to salvage";
  }
  return v;
}

JsonlScan scan_jsonl_typed(const std::string& path, const std::string& content,
                           FsckFileType type) {
  return type == FsckFileType::kJournal
             ? scan_jsonl(path, content, type, validate_journal_header,
                          validate_journal_record)
             : scan_jsonl(path, content, type, validate_stream_header,
                          validate_stream_record);
}

/// Identifies a JSONL file's family: by header kind when the header is
/// intact, by conventional name (.journal. / .stream. / a bare campaign
/// checkpoint) when it is not.
FsckFileType jsonl_type(const std::string& name, const std::string& content) {
  const SplitLines split = split_lines(content);
  if (!split.lines.empty()) {
    std::string_view body;
    if (resilience::check_frame(split.lines[0], body) != resilience::FrameCheck::kMismatch) {
      try {
        const JsonValue doc = parse_json(std::string(body), name);
        if (const JsonValue* kind = doc.find("kind"); kind != nullptr) {
          if (kind->text == "rh-campaign-journal") return FsckFileType::kJournal;
          if (kind->text == "rh-metrics-stream") return FsckFileType::kStream;
          return FsckFileType::kOther;
        }
      } catch (const ConfigError&) {
        // Damaged header: fall through to the filename.
      }
    }
  }
  if (name.find(".journal.") != std::string::npos) return FsckFileType::kJournal;
  if (name.find(".stream.") != std::string::npos) return FsckFileType::kStream;
  // A bare checkpoint (bench --checkpoint=ck.jsonl) is a journal by
  // convention; with a destroyed header we cannot prove it, so only the
  // explicit suffixes get typed.
  return FsckFileType::kOther;
}

}  // namespace

const char* to_string(FsckStatus status) {
  switch (status) {
    case FsckStatus::kOk: return "ok";
    case FsckStatus::kTorn: return "torn";
    case FsckStatus::kCorrupt: return "corrupt";
    case FsckStatus::kOrphanTmp: return "orphan-tmp";
  }
  return "?";
}

const char* to_string(FsckFileType type) {
  switch (type) {
    case FsckFileType::kJournal: return "journal";
    case FsckFileType::kStream: return "stream";
    case FsckFileType::kDescriptor: return "descriptor";
    case FsckFileType::kReport: return "report";
    case FsckFileType::kQuarantine: return "quarantine";
    case FsckFileType::kTmp: return "tmp";
    case FsckFileType::kOther: return "other";
  }
  return "?";
}

FsckVerdict fsck_file(const std::string& path) {
  const std::string name = std::filesystem::path(path).filename().string();
  FsckVerdict v;
  v.path = path;

  if (ends_with(name, ".tmp")) {
    v.type = FsckFileType::kTmp;
    v.status = FsckStatus::kOrphanTmp;
    v.repairable = true;
    v.detail = "atomic-write leftover (kill between write and rename)";
    return v;
  }
  if (ends_with(name, ".quarantine")) {
    v.type = FsckFileType::kQuarantine;
    v.detail = "quarantined lines from a past repair (kept verbatim)";
    return v;
  }

  const std::string content = read_all(path);
  if (ends_with(name, ".jsonl")) {
    const FsckFileType type = jsonl_type(name, content);
    if (type == FsckFileType::kOther) {
      v.detail = "unrecognized jsonl (not validated)";
      return v;
    }
    return scan_jsonl_typed(path, content, type).verdict;
  }
  if (ends_with(name, ".json")) {
    return fsck_json(path, name, content);
  }
  v.detail = "skipped";
  return v;
}

std::vector<FsckVerdict> fsck_scan(const std::string& data_dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(data_dir, ec)) {
    throw ConfigError("not a directory: " + data_dir);
  }
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(data_dir, ec)) {
    if (entry.is_regular_file()) paths.push_back(entry.path().string());
  }
  if (ec) throw ConfigError("cannot list directory: " + data_dir);
  std::sort(paths.begin(), paths.end());

  std::vector<FsckVerdict> verdicts;
  verdicts.reserve(paths.size());
  for (const std::string& path : paths) verdicts.push_back(fsck_file(path));
  return verdicts;
}

std::string fsck_repair(const FsckVerdict& verdict) {
  if (verdict.status == FsckStatus::kOk) return "";
  if (!verdict.repairable) {
    throw ConfigError("unrepairable: " + verdict.path + " (" +
                      (verdict.detail.empty() ? to_string(verdict.status) : verdict.detail) +
                      ")");
  }
  switch (verdict.status) {
    case FsckStatus::kOrphanTmp: {
      if (std::remove(verdict.path.c_str()) != 0) {
        throw ConfigError("cannot remove orphaned tmp file: " + verdict.path);
      }
      return "removed orphaned tmp";
    }
    case FsckStatus::kTorn: {
      std::error_code ec;
      std::filesystem::resize_file(verdict.path, verdict.intact_bytes, ec);
      if (ec) throw ConfigError("cannot truncate torn tail: " + verdict.path);
      return "truncated torn tail to " + std::to_string(verdict.intact_bytes) + " bytes";
    }
    case FsckStatus::kCorrupt: {
      // Re-scan for the raw lines (verdicts carry only the diagnosis):
      // quarantine the damaged lines verbatim, then compact — exactly the
      // repair a quarantining resume performs.
      const JsonlScan scan = scan_jsonl_typed(verdict.path, read_all(verdict.path),
                                              verdict.type);
      if (!scan.verdict.repairable) {
        throw ConfigError("unrepairable: " + verdict.path + " (changed since scan)");
      }
      const std::string qpath = verdict.path + ".quarantine";
      std::ofstream quarantine(qpath, std::ios::app | std::ios::binary);
      if (!quarantine) throw ConfigError("cannot open quarantine file: " + qpath);
      for (const std::string& line : scan.corrupt_raw) quarantine << line << '\n';
      quarantine.flush();
      if (!quarantine) throw ConfigError("cannot write quarantine file: " + qpath);
      std::string compacted = scan.raw_header + '\n';
      for (const std::string& line : scan.raw_intact) {
        compacted += line;
        compacted += '\n';
      }
      resilience::write_file_atomic(verdict.path, compacted, "repaired file");
      std::string note = "quarantined " + std::to_string(scan.corrupt_raw.size()) +
                         " corrupt line(s) to " + qpath;
      if (scan.verdict.torn_tail) note += " and dropped the torn tail";
      return note;
    }
    case FsckStatus::kOk: break;
  }
  return "";
}

void render_fsck_report(std::ostream& os, const std::vector<FsckVerdict>& verdicts) {
  std::size_t ok = 0;
  std::size_t torn = 0;
  std::size_t corrupt = 0;
  std::size_t unrepairable = 0;
  std::size_t orphans = 0;
  for (const FsckVerdict& v : verdicts) {
    char line[32];
    std::snprintf(line, sizeof line, "%-10s %-10s ", to_string(v.status), to_string(v.type));
    os << "  " << line << v.path;
    if (v.type == FsckFileType::kJournal || v.type == FsckFileType::kStream) {
      os << " (" << v.intact_lines << " intact line" << (v.intact_lines == 1 ? "" : "s")
         << ")";
    }
    if (!v.detail.empty()) os << " — " << v.detail;
    os << '\n';
    for (const FsckIssue& issue : v.issues) {
      os << "      line " << issue.line_no << ": " << issue.reason << '\n';
    }
    switch (v.status) {
      case FsckStatus::kOk: ++ok; break;
      case FsckStatus::kTorn: ++torn; break;
      case FsckStatus::kCorrupt:
        ++corrupt;
        if (!v.repairable) ++unrepairable;
        break;
      case FsckStatus::kOrphanTmp: ++orphans; break;
    }
  }
  os << "summary: " << verdicts.size() << " file(s) — " << ok << " ok, " << torn << " torn, "
     << corrupt << " corrupt (" << unrepairable << " unrepairable), " << orphans
     << " orphaned tmp\n";
}

}  // namespace rh::campaign
