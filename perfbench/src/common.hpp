// Shared plumbing for the paper-artifact benchmark: host clocks and memory
// readings, order statistics, the output digest, and the in-memory span
// recorder the traced run uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start);
/// User + system CPU seconds of the whole process (all threads).
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set size of the process so far, MiB.
[[nodiscard]] double peak_rss_mb();
/// Bytes currently allocated from the heap (malloc arenas plus mmapped
/// blocks), KiB.
[[nodiscard]] double heap_in_use_kb();

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1]; 0 for an empty set.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double mean(const std::vector<double>& values);

/// 16 lowercase hex digits.
[[nodiscard]] std::string hex64(std::uint64_t value);

/// FNV-1a, continued across calls so a digest can be built piecewise.
class Digest {
public:
  void add(std::string_view bytes);
  [[nodiscard]] std::uint64_t value() const { return h_; }

private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The deterministic statistics a workload produces: a speed-only change to
/// the simulator must leave all three unchanged at a given seed.
struct Outputs {
  std::uint64_t digest = 0;
  std::uint64_t device_cycles = 0;
  std::uint64_t programs = 0;

  bool operator==(const Outputs&) const = default;
};

/// Named per-layer values, filled by whichever layers a workload enters.
using Metrics = std::map<std::string, double>;

/// Spans recorded by the benchmark around its own calls into the
/// simulator's modules. Kept in memory; written once when the run ends.
/// A span's layer is its name up to the first '.'.
class Tracer {
public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    std::int64_t parent = -1;
  };

  explicit Tracer(std::uint64_t run_id);

  /// Opens a span under the innermost span opened by open() and not yet
  /// closed (main thread only). Returns its id.
  std::int64_t open(std::string name);
  void close(std::int64_t id);
  /// Records a finished span from any thread under an explicit parent.
  void record(std::string name, Clock::time_point start, Clock::time_point end,
              std::int64_t parent);
  /// The innermost open span (-1 at top level).
  [[nodiscard]] std::int64_t current() const;

  /// Per span name: total wall and self time (wall minus the part of the
  /// interval its children cover), microseconds.
  struct Totals {
    std::uint64_t count = 0;
    double wall_us = 0.0;
    double self_us = 0.0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals_by_name() const;
  /// Self time summed per layer, milliseconds.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;

  /// Writes {"run_id":..,"spans":[{name,start_us,end_us,parent}..]}.
  void write_json(const std::string& path) const;

private:
  [[nodiscard]] double us_of(Clock::time_point t) const;

  std::uint64_t run_id_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;  ///< guards spans_
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;  ///< main-thread open spans
};

/// RAII span; a null tracer makes it a no-op, so untraced runs pay nothing.
class Scope {
public:
  Scope(Tracer* tracer, std::string name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(std::move(name)) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

private:
  Tracer* tracer_;
  std::int64_t id_;
};

}  // namespace perfbench
