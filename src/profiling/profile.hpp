// Phase-level profiling for the simulator stack: where does a campaign's
// time actually go?
//
// Every phase accounts two *independent* clocks:
//   - device_cycles — simulated interface-clock cycles consumed while the
//     phase was open. This is physics: it is a pure function of the command
//     stream, so totals are byte-identical across --jobs counts, reruns, and
//     machines (the determinism test pins this).
//   - wall_ms — real host-process time (steady_clock). This is engineering:
//     it depends on the machine, the scheduler, and the build, and is what
//     the perf baseline tracks. Wall fields are therefore *excluded* from
//     every byte-identity check and from the deterministic report view.
//
// Phase taxonomy (see DESIGN.md §10): the one list of phases is
// telemetry::Phase (telemetry/span.hpp), re-exported here as
// profiling::Phase.
//   host-level  — upload / execute / drain / recover / thermal: one
//                 BenderHost's program pipeline. Device cycles advance only
//                 in execute (programs) and thermal (PID settle).
//   campaign-level — rig_build / shard_run / checkpoint / idle / report:
//                 the worker pool. shard_run *contains* the host-level
//                 phases of the programs it ran, so campaign-level and
//                 host-level groups each sum to ~the run's total on their
//                 own axis; do not add the two groups together.
//
// Threading model mirrors MetricsRegistry: each worker owns a private
// Profile and the campaign merges them (merge_from) under its completion
// lock; a Profile itself is not thread-safe.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "telemetry/span.hpp"

namespace rh::profiling {

using telemetry::kPhaseCount;
using telemetry::Phase;

struct PhaseStat {
  std::uint64_t calls = 0;
  std::uint64_t device_cycles = 0;
  double wall_ms = 0.0;
};

/// Per-thread phase accumulator. Fleet aggregation follows the
/// MetricsRegistry pattern: workers each fill their own and the owner calls
/// merge_from once they are joined.
class Profile {
public:
  void record(Phase phase, std::uint64_t device_cycles, double wall_ms,
              std::uint64_t calls = 1);

  [[nodiscard]] const PhaseStat& stat(Phase phase) const {
    return stats_[static_cast<std::size_t>(phase)];
  }
  /// Sum of wall_ms over every phase (both groups; see the header comment
  /// before reading anything into the number).
  [[nodiscard]] double total_wall_ms() const;

  /// Adds every phase's calls/cycles/wall from `other`.
  void merge_from(const Profile& other);
  void reset();

  /// One key-sorted JSON object, {"checkpoint":{"calls":..,...},...}, every
  /// phase always present so documents diff cleanly. include_wall=false
  /// keeps only the device_cycles of execute and shard_run — the projection
  /// that is byte-identical across schedules. Everything else is dropped:
  /// wall_ms is host time, call counts depend on which worker got which
  /// shard, and bring-up cycles (rig_build, thermal) repeat once per worker
  /// rig, so all of them vary with --jobs.
  void write_json(std::ostream& os, bool include_wall = true) const;

private:
  std::array<PhaseStat, kPhaseCount> stats_{};
};

/// RAII phase scope — the one instrumentation call per phase. Reads the
/// steady clock and `*cycle_clock` (null -> 0) once at each end, adds one
/// call plus the cycles and wall time it spanned to `profile`, and, with a
/// TraceContext attached, opens and closes the phase's span with the same
/// stamps; the profile then adds the span's own wall extent, so the two agree
/// exactly. A span the per-attempt budget drops still counts in the profile.
class PhaseScope {
public:
  PhaseScope(Profile& profile, Phase phase, const std::uint64_t* cycle_clock = nullptr,
             telemetry::TraceContext* spans = nullptr);
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
  ~PhaseScope();

private:
  Profile* profile_;
  const std::uint64_t* cycle_clock_;
  telemetry::TraceContext* spans_;
  Phase phase_;
  std::uint64_t start_cycles_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t span_id_ = 0;
};

}  // namespace rh::profiling
