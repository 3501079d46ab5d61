// The paper-artifact benchmark harness. One process runs one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --pins FILE --work-dir DIR [--perturb-replay]
//
// It first runs one warm-up pass whose timings are dropped. Untraced
// (--trace 0), it then repeats set-up + pass until S seconds are spent (at
// least three passes) and reports the end-to-end metrics as medians. Traced
// (--trace 1), it alternates untraced and traced passes, then runs the
// workload's layer probes, and reports the per-layer metrics plus the
// tracing overhead. Either way every pass's outputs are checked: the same
// digest, device cycles and program count on every pass, equal to the
// pinned values at the pinned seed, and the workload's paper-shape checks.
//
// The last line of stdout is the result object; everything else goes to
// stderr. Exit status is 0 only when every check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "campaign/record_io.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr int kMinPasses = 3;
/// Set-ups timed per pass; setup_s is the median over the run's passes.
constexpr int kSetupReps = 5;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in BENCHMARK.json's order. A workload that does
/// not enter a layer reports 0 for it.
constexpr MetricDef kPerLayer[] = {
    {"campaign.rig_build_ms", "ms"},
    {"campaign.shard_ms_p50", "ms"},
    {"campaign.shard_ms_p95", "ms"},
    {"campaign.shard_samples", "count"},
    {"campaign.busy_ratio", "ratio"},
    {"campaign.shards_retried", "count"},
    {"campaign.shards_failed", "count"},
    {"campaign.self_ms", "ms"},
    {"core.run_shard_ms", "ms"},
    {"core.measure_ber_us", "us"},
    {"core.measure_ber_gap_us", "us"},
    {"core.measure_hc_first_us", "us"},
    {"core.hc_first_programs", "count"},
    {"core.programs_per_row", "count"},
    {"core.self_ms", "ms"},
    {"bender.build_us", "us"},
    {"bender.take_us", "us"},
    {"bender.validate_us", "us"},
    {"bender.instructions_per_program", "count"},
    {"bender.host_run_us", "us"},
    {"bender.upload_ms", "ms"},
    {"bender.execute_ms", "ms"},
    {"bender.drain_ms", "ms"},
    {"bender.unattributed_ratio", "ratio"},
    {"bender.replay_tuples", "count"},
    {"bender.replay_mismatches", "count"},
    {"bender.self_ms", "ms"},
    {"fault.apply_cold_us", "us"},
    {"fault.apply_warm_us", "us"},
    {"fault.distinct_rows", "count"},
    {"fault.heap_per_row_kb", "kB"},
    {"fault.self_ms", "ms"},
    {"hbm.cmd.act", "count"},
    {"hbm.cmd.ref", "count"},
    {"hbm.cmd.wr", "count"},
    {"hbm.ref_us", "us"},
    {"trr.proprietary_triggers", "count"},
    {"trace.overhead_ratio", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "--pins FILE --work-dir DIR [--perturb-replay]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--perturb-replay") {
      o.perturb_replay = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--pins") {
        o.pins_path = value;
      } else if (flag == "--work-dir") {
        o.work_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload.empty() || !have_seed || o.pins_path.empty() || o.work_dir.empty()) {
    usage("--workload, --seed, --pins and --work-dir are required");
  }
  if (!(o.seconds > 0.0 && o.seconds <= 60.0)) usage("--seconds must be in (0, 60]");
  return o;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "fig3_full_rows" || o.workload == "fig6_bank_scan") {
    return make_campaign_workload(o);
  }
  if (o.workload == "trr_refresh") return make_trr_workload(o);
  usage("unknown workload " + o.workload);
}

/// Compares a pass's outputs with the values pinned for this seed, if any.
void check_pins(const Options& o, const Outputs& got, std::vector<std::string>& problems) {
  std::ifstream in(o.pins_path);
  if (!in) {
    problems.push_back("cannot read pins file " + o.pins_path);
    return;
  }
  std::stringstream text;
  text << in.rdbuf();
  const rh::campaign::JsonValue doc = rh::campaign::parse_json(text.str(), o.pins_path);
  if (doc.at("seed").as_u64() != o.seed) return;
  const rh::campaign::JsonValue* pin = doc.at("workloads").find(o.workload);
  if (pin == nullptr) {
    problems.push_back("no pinned outputs for " + o.workload + " at seed " +
                       std::to_string(o.seed));
    return;
  }
  const std::string got_digest = hex64(got.digest);
  if (pin->at("digest").text != got_digest ||
      pin->at("device_cycles").as_u64() != got.device_cycles ||
      pin->at("programs").as_u64() != got.programs) {
    problems.push_back("outputs differ from the pinned values: digest " + got_digest + " (pinned " +
                       pin->at("digest").text + "), device_cycles " +
                       std::to_string(got.device_cycles) + " (pinned " +
                       pin->at("device_cycles").text + "), programs " +
                       std::to_string(got.programs) + " (pinned " + pin->at("programs").text + ")");
  }
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Run {
  std::vector<double> setup_s, wall_s, cpu_s, traced_wall_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::optional<Outputs> outputs;  ///< the first pass's
  Metrics layers;
  bool warming_up = false;

  /// One set-up (timed kSetupReps times), pass, and teardown.
  double pass(Workload& w, Tracer* tracer) {
    const auto start = Clock::now();
    for (int r = 0; r < kSetupReps; ++r) {
      w.teardown();
      const auto t = Clock::now();
      w.setup();
      setup_s.push_back(seconds_since(t));
    }
    Metrics pass_layers;
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    Pass p = w.run(tracer, pass_layers);
    const double wall = seconds_since(t0);
    const double cpu = process_cpu_seconds() - cpu0;
    w.teardown();

    std::fprintf(stderr, "pass %zu%s: wall=%.4f s cpu=%.4f s setup=%.6f s\n",
                 wall_s.size() + traced_wall_s.size() + 1,
                 warming_up ? " (warm-up)" : tracer != nullptr ? " (traced)" : "", wall, cpu,
                 setup_s.back());
    (tracer != nullptr ? traced_wall_s : wall_s).push_back(wall);
    if (tracer == nullptr) cpu_s.push_back(cpu);
    if (tracer != nullptr) layers = pass_layers;
    attempted += p.attempted;
    failed += p.failed;
    if (!outputs) {
      outputs = p.outputs;
    } else if (!(p.outputs == *outputs)) {
      p.problems.push_back("outputs changed between passes of one run (nondeterminism)");
    }
    for (auto& s : p.problems) problems.push_back(std::move(s));
    return seconds_since(start);
  }

  /// A pass whose outputs are checked but whose timings are dropped: the
  /// first pass of a process runs on cold caches and a heap still growing.
  void warm_up(Workload& w) {
    warming_up = true;
    pass(w, nullptr);
    warming_up = false;
    setup_s.clear();
    wall_s.clear();
    cpu_s.clear();
  }
};

int run_main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  std::filesystem::create_directories(o.work_dir);
  auto workload = make_workload(o);
  Run run;
  const auto start = Clock::now();
  run.warm_up(*workload);

  if (!o.trace) {
    for (int n = 0;; ++n) {
      const double last = run.pass(*workload, nullptr);
      if (n + 1 >= kMinPasses && seconds_since(start) + last > o.seconds) break;
    }
  } else {
    // Untraced and traced passes alternate so both see the same machine
    // state, for about 60% of the budget; the rest is left for the probes.
    // The spans kept are the last traced pass's plus the probes'.
    const auto run_id = static_cast<std::uint64_t>(Clock::now().time_since_epoch().count());
    std::unique_ptr<Tracer> last;
    for (;;) {
      auto tracer = std::make_unique<Tracer>(run_id);
      const double pair = run.pass(*workload, nullptr) + run.pass(*workload, tracer.get());
      last = std::move(tracer);
      if (seconds_since(start) + pair > 0.6 * o.seconds) break;
    }
    Tracer& tracer = *last;
    {
      const Scope span(&tracer, "probe.layers");
      workload->probe(tracer, run.layers, run.problems);
    }
    run.layers["trace.overhead_ratio"] = median(run.traced_wall_s) / median(run.wall_s) - 1.0;

    std::cerr << "self time by layer (last traced pass and probes):\n";
    for (const auto& [layer, ms] : tracer.self_ms_by_layer()) {
      run.layers[layer + ".self_ms"] = ms;
      std::fprintf(stderr, "  %-10s %12.1f ms\n", layer.c_str(), ms);
    }
    std::cerr << "self time by span:\n";
    for (const auto& [name, t] : tracer.totals_by_name()) {
      std::fprintf(stderr, "  %-28s n=%-7llu wall=%12.1f us  self=%12.1f us  mean=%9.2f us\n",
                   name.c_str(), static_cast<unsigned long long>(t.count), t.wall_us, t.self_us,
                   t.wall_us / static_cast<double>(t.count));
    }
    const std::string span_path =
        o.work_dir + "/spans-" + o.workload + "-seed" + std::to_string(o.seed) + ".json";
    tracer.write_json(span_path);
    std::cerr << "spans written to " << span_path << "\n";
  }
  workload.reset();
  if (run.outputs) check_pins(o, *run.outputs, run.problems);

  const Outputs out = run.outputs.value_or(Outputs{});
  std::fprintf(stderr, "outputs: digest=%s device_cycles=%llu programs=%llu passes=%zu\n",
               hex64(out.digest).c_str(), static_cast<unsigned long long>(out.device_cycles),
               static_cast<unsigned long long>(out.programs),
               run.wall_s.size() + run.traced_wall_s.size());
  for (const auto& p : run.problems) std::cerr << "CHECK FAILED: " << p << "\n";
  const bool correct = run.problems.empty();
  if (!correct) run.failed = run.attempted;

  std::string metrics;
  const auto add = [&](const std::string& name, double value, const char* unit) {
    metrics += (metrics.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") + number(value) +
               ", \"unit\": \"" + unit + "\"}";
  };
  if (!o.trace) {
    add("wall_s", median(run.wall_s), "s");
    add("cpu_s", median(run.cpu_s), "s");
    add("setup_s", median(run.setup_s), "s");
    add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    for (const MetricDef& m : kPerLayer) {
      const auto it = run.layers.find(m.name);
      add(m.name, it == run.layers.end() ? 0.0 : it->second, m.unit);
    }
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
