// Perf baseline: runs the canonical fig4-style campaign and emits one
// machine-readable throughput document (BENCH_campaign.json) that CI diffs
// against the committed baseline in bench/baselines/ via
// scripts/check_perf.py.
//
// The two tracked axes are the report's throughput numbers:
//   - commands_per_host_second      — interface commands the fleet simulated
//                                     per second of real host time,
//   - device_cycles_per_host_second — how much silicon time one lab second
//                                     buys.
// Everything else in the document (phase wall breakdown, records, commands)
// is context for reading a regression, not a gate.
//
// One run lasts a fraction of a second, so a single sample wobbles with the
// host. The spec runs kRepeats times; the document carries each axis's
// median and its min/max spread, and the context of the median run.
//
// Flags: --seed, --stride (default 2048, the CI smoke sweep), --hammers,
//        --tolerance, --jobs (default 2), --engine=fast|interp (default
//        fast), --out=PATH (default BENCH_campaign.json).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/spatial.hpp"
#include "profiling/report.hpp"

using namespace rh;

namespace {
constexpr int kRepeats = 5;
}  // namespace

int main(int argc, char** argv) {
  try {
    const common::CliArgs args(argc, argv);
    const auto seed = static_cast<std::uint64_t>(
        args.get_int("seed", static_cast<std::int64_t>(benchutil::kDefaultSeed)));
    const auto stride = static_cast<std::uint32_t>(args.get_positive_int("stride", 2048));
    const std::string out_path = args.get("out", "BENCH_campaign.json");

    benchutil::banner("perf baseline", "campaign throughput (fig4-style sweep)");

    core::SurveyConfig config;
    config.row_stride = stride;
    config.characterizer.max_hammers =
        static_cast<std::uint64_t>(args.get_positive_int("hammers", 262144));
    config.characterizer.ber_hammers = config.characterizer.max_hammers;
    config.characterizer.wcdp_tolerance =
        static_cast<std::uint64_t>(args.get_positive_int("tolerance", 512));

    campaign::CampaignConfig run_config;
    run_config.jobs = static_cast<unsigned>(args.get_positive_int("jobs", 2));
    run_config.engine = common::parse_engine_kind(args.get("engine", "fast"));
    benchutil::warn_unqueried(args);

    const campaign::SweepSpec spec =
        campaign::survey_sweep(benchutil::paper_device_config(seed), config);
    // Throughput needs the fleet's cmd.* counters; the per-command trace
    // ring is pure overhead here (nothing exports it) and would tax the
    // measurement, so keep it off.
    telemetry::TelemetryConfig sink_config;
    sink_config.trace_enabled = false;
    std::vector<profiling::RunReport> runs;
    for (int r = 0; r < kRepeats; ++r) {
      telemetry::Telemetry sink(sink_config);
      campaign::Campaign campaign(run_config, &sink);
      const campaign::CampaignResult result = campaign.run(spec);
      runs.push_back(campaign::build_report("perf_baseline", spec, campaign, result, &sink));
    }

    std::ofstream out(out_path);
    if (!out) throw common::ConfigError("cannot open baseline output file: " + out_path);
    profiling::write_perf_baseline_json(out, runs, stride);

    // The same medians and spreads the document carries.
    const auto summary = [&runs](double (profiling::RunReport::*axis)() const) {
      std::vector<double> values;
      for (const auto& run : runs) values.push_back((run.*axis)());
      std::sort(values.begin(), values.end());
      return common::fmt_double(values[values.size() / 2], 0) + "  (min " +
             common::fmt_double(values.front(), 0) + ", max " +
             common::fmt_double(values.back(), 0) + ")";
    };
    std::cout << "commands/s:        "
              << summary(&profiling::RunReport::commands_per_host_second) << '\n'
              << "device cycles/s:   "
              << summary(&profiling::RunReport::device_cycles_per_host_second) << '\n'
              << "(median of " << kRepeats << " runs on " << run_config.jobs
              << " workers written to " << out_path << ")\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perf_baseline: " << e.what() << '\n';
    return 1;
  }
}
