// The workload interface the pass loop in main.cpp runs, plus the layer
// probes several workloads share.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bender/program.hpp"
#include "campaign/campaign.hpp"
#include "common.hpp"
#include "core/data_patterns.hpp"
#include "core/row_map.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string pins_path;
  std::string work_dir;
  /// Self-test hook: replay the characterizer recipe with the aggressor
  /// rows holding the victim's data, which the probe-fidelity check must
  /// catch.
  bool perturb_replay = false;
};

/// The simulated chip a benchmark seed selects; seed 0 is the calibrated
/// chip the figure benches default to.
[[nodiscard]] std::uint64_t device_seed(std::uint64_t seed);
[[nodiscard]] rh::hbm::DeviceConfig device_config(std::uint64_t seed);

/// One timed pass over a workload's inputs.
struct Pass {
  Outputs outputs;
  std::uint64_t attempted = 0;  ///< operations: shards, programs or jobs
  std::uint64_t failed = 0;
  /// Failed output or paper-shape checks, one line each.
  std::vector<std::string> problems;
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Builds what one pass needs; timed as setup_s, and repeated before
  /// every pass.
  virtual void setup() = 0;
  /// Runs one pass on what setup() built. A non-null `tracer` marks a
  /// traced pass: spans go to it and per-layer values to `layers`.
  virtual Pass run(Tracer* tracer, Metrics& layers) = 0;
  /// Releases what setup() built (untimed).
  virtual void teardown() {}
  /// Traced run only, after the passes: serial replays of the layers
  /// beneath the workload on its own inputs.
  virtual void probe(Tracer& tracer, Metrics& layers, std::vector<std::string>& problems) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_campaign_workload(const Options& options);
[[nodiscard]] std::unique_ptr<Workload> make_trr_workload(const Options& options);

/// The merged-record digest: FNV-1a over the records rendered exactly as
/// the campaign journal and GET /jobs/<id>/results render them.
[[nodiscard]] std::string records_jsonl(const std::vector<rh::core::RowRecord>& records);

/// A campaign rig the way Campaign's default host factory builds one.
[[nodiscard]] std::unique_ptr<rh::bender::BenderHost> build_rig(
    const rh::campaign::SweepSpec& spec);

/// Emits the characterizer's init-hammer-read program for one BER
/// measurement (Characterizer::measure_ber's recipe, step for step).
/// `perturbed` writes the aggressors with the victim's data instead.
void emit_ber_program(rh::bender::ProgramBuilder& b, const rh::hbm::Geometry& geometry,
                      const rh::core::RowMap& map, const rh::core::CharacterizerConfig& config,
                      const rh::core::Site& site, std::uint32_t victim_physical,
                      rh::core::DataPattern pattern, std::uint64_t hammers, bool perturbed);

/// Replays programs one step at a time: builder emission, take(), a direct
/// Program::validate and BenderHost::run, each timed under its own span
/// inside a "bender.replay" span. report() fills the bender.* metrics over
/// every program replayed; any output a caller marks as mismatched fails
/// the run (probe fidelity).
class BenderReplay {
public:
  BenderReplay(rh::bender::BenderHost& host, Tracer& tracer) : host_(&host), tracer_(&tracer) {}

  rh::bender::ExecutionResult run(const rh::core::Site& site,
                                  const std::function<void(rh::bender::ProgramBuilder&)>& emit);
  /// host_run time of the last run(), microseconds.
  [[nodiscard]] double last_host_run_us() const { return host_run_us_.back(); }
  /// Records whether the last replayed program's output matched.
  void compare(bool matches) { mismatches_ += matches ? 0 : 1; }
  void report(Metrics& layers, std::vector<std::string>& problems, const std::string& what) const;

private:
  rh::bender::BenderHost* host_;
  Tracer* tracer_;
  std::vector<double> build_us_, take_us_, validate_us_, host_run_us_, instructions_;
  double upload_ms_ = 0.0, execute_ms_ = 0.0, drain_ms_ = 0.0;
  std::uint64_t mismatches_ = 0;
};

/// Fills the core.* and bender.* layer metrics for a characterizer-driven
/// workload: a serial run_shard replay of `sample` (indices into
/// spec.shards), per-call measure_ber / measure_hc_first timings, and a
/// step-timed replay of the program recipe whose bit errors must equal
/// Characterizer::measure_ber for every tuple (else a problem is added).
void probe_characterizer(const rh::campaign::SweepSpec& spec,
                         const std::vector<std::size_t>& sample, bool perturb_replay,
                         Tracer& tracer, Metrics& layers, std::vector<std::string>& problems);

/// Fills the fault.* layer metrics: RowHammerModel::apply with the fast
/// kernel on up to 384 of `victims` (site, physical row), each once cold
/// and once warm.
/// `distinct_rows` is the workload's own count of distinct victim rows.
void probe_fault(const rh::hbm::DeviceConfig& device,
                 const std::vector<std::pair<rh::core::Site, std::uint32_t>>& victims,
                 double distinct_rows, Tracer& tracer, Metrics& layers);

/// Victim rows of the sampled shards, and of the whole plan.
[[nodiscard]] std::vector<std::pair<rh::core::Site, std::uint32_t>> sampled_rows(
    const rh::campaign::SweepSpec& spec, const std::vector<std::size_t>& sample);
[[nodiscard]] std::vector<std::pair<rh::core::Site, std::uint32_t>> all_rows(
    const rh::campaign::SweepSpec& spec);

/// `count` indices spread evenly over [0, total) (all of them when fewer).
[[nodiscard]] std::vector<std::size_t> spread_sample(std::size_t total, std::size_t count);

}  // namespace perfbench
