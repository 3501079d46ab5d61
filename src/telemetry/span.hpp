// Causal span tracing for the campaign stack: every unit of work — the
// campaign itself, each shard, each attempt on a shard, and each host phase
// (upload/execute/drain/thermal) inside an attempt — becomes a Span with a
// parent link, so a finished run carries a forest
//
//   campaign -> shard -> attempt -> host phase -> fault/recovery marks
//
// that attributes cost causally: a slow shard's row in the run report links
// (by span id) to the exact attempts, retries, and recoveries that made it
// slow.
//
// This header also holds the one list of phase names (Phase): the phase
// profile (profiling/profile.hpp) accounts every phase, and its
// profiling::PhaseScope opens the matching host-phase span here.
//
// Determinism: span ids are pure functions of (shard, attempt, sequence) —
// see span_id() — so the same sweep produces the same tree regardless of
// --jobs or scheduling. Wall-clock begin/end stamps are host time relative
// to the campaign epoch and are *not* deterministic; the cycle stamps are.
//
// Threading model mirrors Profile/MetricsRegistry: each campaign worker
// fills a private SpanSheet through a per-shard TraceContext and the
// campaign merges the sheets (merge_from) under its completion lock.
//
// Export: write_chrome_span_events emits each span as a Chrome trace-event
// async begin/end pair ("b"/"e") on the host wall-clock axis, carrying the
// parent id, shard, attempt, and consumed device cycles in args, so the
// whole tree loads into chrome://tracing / Perfetto next to the command
// slices (which live on the device-time axis).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

namespace rh::telemetry {

/// Every profiled phase (see DESIGN.md §10). Host-level phases cover one
/// BenderHost's program pipeline and also become spans; campaign-level
/// phases cover the worker pool and shard_run *contains* the host-level
/// ones.
enum class Phase : std::uint8_t {
  // host-level
  kUpload = 0,  ///< program/wide-register PCIe upload (incl. retries)
  kExecute,     ///< executor running a program (device cycles advance)
  kDrain,       ///< readback FIFO drain + CRC verify (incl. re-drains)
  kRecover,     ///< fault recovery actions (calls only; time stays in the
                ///< phase where the retry ran, so nothing double-counts)
  kThermal,     ///< thermal rig settle/guard (device cycles advance)
  // campaign-level
  kRigBuild,    ///< worker host construction + bring-up to temperature
  kShardRun,    ///< run_shard measurement work (contains host-level phases)
  kCheckpoint,  ///< journal append (fsync'd) under the completion lock
  kIdle,        ///< worker lifetime not accounted to any phase above
  kReport,      ///< end-of-run report/export generation
};

inline constexpr std::size_t kPhaseCount = 10;

[[nodiscard]] constexpr std::string_view to_string(Phase p) {
  switch (p) {
    case Phase::kUpload: return "upload";
    case Phase::kExecute: return "execute";
    case Phase::kDrain: return "drain";
    case Phase::kRecover: return "recover";
    case Phase::kThermal: return "thermal";
    case Phase::kRigBuild: return "rig_build";
    case Phase::kShardRun: return "shard_run";
    case Phase::kCheckpoint: return "checkpoint";
    case Phase::kIdle: return "idle";
    case Phase::kReport: return "report";
  }
  return "?";
}

/// What a span covers. kFault/kRecovery are zero-length marks (arg =
/// resilience::FaultKind); everything else is a real interval.
enum class SpanKind : std::uint8_t {
  kCampaign = 0,  ///< the whole run (root, exactly one per campaign)
  kShard,         ///< one shard, all attempts included
  kAttempt,       ///< one attempt on a shard (retries open fresh attempts)
  kPhase,         ///< a host phase; Span::phase says which
  kFault,         ///< mark: a fault was detected (arg = FaultKind)
  kRecovery,      ///< mark: the fault was healed or aborted (arg = FaultKind)
};

[[nodiscard]] constexpr std::string_view to_string(SpanKind k) {
  switch (k) {
    case SpanKind::kCampaign: return "campaign";
    case SpanKind::kShard: return "shard";
    case SpanKind::kAttempt: return "attempt";
    case SpanKind::kPhase: return "phase";
    case SpanKind::kFault: return "fault";
    case SpanKind::kRecovery: return "recovery";
  }
  return "?";
}

/// The root campaign span's id. Shard-derived ids start at (0+1)<<32, so
/// the root can never collide with them.
inline constexpr std::uint64_t kCampaignSpanId = 1;

/// Deterministic span id: shard in the high bits, attempt (1-based; 0 for
/// the shard span itself) in the middle, per-attempt sequence in the low 24
/// bits. A pure function of the tree position — identical across --jobs.
[[nodiscard]] constexpr std::uint64_t span_id(std::uint64_t shard, std::uint32_t attempt,
                                              std::uint32_t seq) {
  return ((shard + 1) << 32) | (static_cast<std::uint64_t>(attempt & 0xffu) << 24) |
         (seq & 0xffffffu);
}

/// One traced span. `parent` = 0 marks the root.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t shard = 0;
  std::uint32_t attempt = 0;  ///< 1-based; 0 for campaign/shard spans
  SpanKind kind = SpanKind::kCampaign;
  Phase phase = Phase::kUpload;  ///< which host phase, for kPhase spans
  std::uint32_t arg = 0;         ///< FaultKind for kFault/kRecovery marks
  /// Device-clock stamps. Host phases carry the absolute host clock at
  /// open/close; campaign-level spans carry 0 .. cycles-consumed. Either
  /// way end_cycle - begin_cycle is the cycles the span consumed.
  std::uint64_t begin_cycle = 0;
  std::uint64_t end_cycle = 0;
  /// Host wall clock, milliseconds since the campaign epoch.
  double begin_wall_ms = 0.0;
  double end_wall_ms = 0.0;
  bool open = false;  ///< still open (campaign killed mid-span)
};

/// Host-phase spans retained per attempt before the collector starts
/// dropping (structural spans — shard/attempt — and fault/recovery marks
/// are never dropped). Bounds span memory for huge campaigns the same way
/// TraceRing bounds command events.
inline constexpr std::uint32_t kSpanBudgetPerAttempt = 512;

/// A worker-private span collector. Not thread-safe; the campaign merges
/// sheets under its completion lock, mirroring Profile/Telemetry.
class SpanSheet {
public:
  /// Appends a span and returns its index (stable until merge/clear).
  std::size_t add(const Span& span);
  [[nodiscard]] Span& at(std::size_t index) { return spans_[index]; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Host-phase spans dropped by per-attempt budgets (TraceContext reports
  /// its drops here; merge_from accumulates).
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  void note_dropped(std::uint64_t n = 1) { dropped_ += n; }

  /// Appends every span (and the drop count) of `other`.
  void merge_from(const SpanSheet& other);
  /// Sorts into the canonical presentation order: ascending span id, which
  /// groups by shard, then attempt, then open sequence — and always places
  /// a parent before its children. Call once after the final merge.
  void sort_canonical();
  void clear();

private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Per-shard span builder, used single-threaded by the worker that owns the
/// shard. Open spans nest: open() parents the new span under the innermost
/// open span (or under the shard span, or `parent` before the shard span
/// opens). The BenderHost holds a TraceContext* (null by default) that its
/// profiling::PhaseScopes open host-phase spans through, so hosts outside a
/// campaign pay one pointer test per phase.
class TraceContext {
public:
  using Clock = std::chrono::steady_clock;

  /// `epoch` anchors the wall-clock stamps (pass the campaign run start so
  /// every worker's spans share one timeline).
  TraceContext(SpanSheet& sheet, std::uint64_t shard, Clock::time_point epoch,
               std::uint64_t parent = kCampaignSpanId);

  /// Opens a structural span (shard/attempt) at `cycle`; never dropped.
  std::uint64_t open(SpanKind kind, std::uint64_t cycle);
  /// Opens a host-phase span stamped (`cycle`, `at`); returns its id, or 0
  /// when the per-attempt budget is exhausted (close(0) is a no-op, the
  /// drop is accounted).
  std::uint64_t open(Phase phase, std::uint64_t cycle, Clock::time_point at = Clock::now());
  /// Closes the span `id` (innermost-first; out-of-order closes unwind the
  /// stack to the matching span, closing skipped spans at the same stamps).
  /// Returns the span's wall extent, end_wall_ms - begin_wall_ms (0 when `id`
  /// is 0 or no longer open).
  double close(std::uint64_t id, std::uint64_t cycle, Clock::time_point at = Clock::now());
  /// Records a zero-length mark (fault/recovery) under the innermost open
  /// span. Marks are never dropped.
  void mark(SpanKind kind, std::uint64_t cycle, std::uint32_t arg);
  /// Starts attempt `attempt` (1-based): resets the sequence counter and
  /// the per-attempt budget. Call before opening the kAttempt span.
  void set_attempt(std::uint32_t attempt);

  [[nodiscard]] std::uint64_t shard() const { return shard_; }
  [[nodiscard]] std::uint32_t attempt() const { return attempt_; }

private:
  /// Milliseconds from the epoch to `at`.
  [[nodiscard]] double wall_ms(Clock::time_point at) const;
  /// A closed zero-length span at (`cycle`, `at`) under the innermost open
  /// span, with the next sequence id.
  [[nodiscard]] Span make_span(SpanKind kind, std::uint64_t cycle, Clock::time_point at);
  std::uint64_t push(Span span);

  SpanSheet* sheet_;
  std::uint64_t shard_;
  std::uint64_t parent_;
  Clock::time_point epoch_;
  std::uint32_t attempt_ = 0;
  std::uint32_t seq_ = 0;
  std::uint32_t budget_ = kSpanBudgetPerAttempt;
  std::vector<std::size_t> stack_;  ///< indices of open spans in sheet_
};

/// Writes the spans as Chrome trace-event async "b"/"e" pairs (marks as
/// instant "n" events) into an already-open traceEvents array; `first`
/// tracks comma state across writers. pid 1000 groups them as a "campaign
/// spans" process, tid = shard, ts/dur on the host wall-clock axis.
void write_chrome_span_events(std::ostream& os, const std::vector<Span>& spans, bool& first);

/// Standalone Chrome trace document containing only the spans.
void write_chrome_spans(std::ostream& os, const SpanSheet& sheet);

}  // namespace rh::telemetry
