// Layer probes shared by the characterizer-driven workloads (fig3 and fig6)
// and the fault probe every workload runs.
#include <algorithm>
#include <bit>
#include <string>

#include "campaign/record_io.hpp"
#include "core/characterizer.hpp"
#include "core/shard.hpp"
#include "fault/context.hpp"
#include "fault/process_variation.hpp"
#include "fault/rowhammer_model.hpp"
#include "hbm/mode_registers.hpp"
#include "hbm/subarray.hpp"
#include "profiling/profile.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace rh;

std::uint64_t device_seed(std::uint64_t seed) { return fault::FaultConfig{}.seed + seed; }

hbm::DeviceConfig device_config(std::uint64_t seed) {
  hbm::DeviceConfig config;
  config.fault.seed = device_seed(seed);
  return config;
}

std::string records_jsonl(const std::vector<core::RowRecord>& records) {
  std::string out;
  for (const auto& record : records) {
    campaign::append_row_record_json(out, record);
    out += '\n';
  }
  return out;
}

std::unique_ptr<bender::BenderHost> build_rig(const campaign::SweepSpec& spec) {
  auto host = std::make_unique<bender::BenderHost>(spec.device);
  if (spec.settle_thermal) {
    host->set_chip_temperature(spec.temperature_c);
  } else {
    host->device().set_temperature(spec.temperature_c);
  }
  return host;
}

void emit_ber_program(bender::ProgramBuilder& b, const hbm::Geometry& geometry,
                      const core::RowMap& map, const core::CharacterizerConfig& config,
                      const core::Site& site, std::uint32_t victim_physical,
                      core::DataPattern pattern, std::uint64_t hammers, bool perturbed) {
  const auto bank = static_cast<std::uint8_t>(site.bank);
  b.mrs(hbm::ModeRegisters::kEccRegister, 0x0);
  b.program().set_wide_register(0, core::make_row_image(geometry, core::victim_byte(pattern)));
  b.program().set_wide_register(1, core::make_row_image(geometry, core::aggressor_byte(pattern)));
  const auto v = static_cast<std::int64_t>(victim_physical);
  const std::int64_t rows = geometry.rows_per_bank;
  const auto surround = static_cast<std::int64_t>(config.surround_rows);
  for (std::int64_t p = v - surround; p <= v + surround; ++p) {
    if (p < 0 || p >= rows) continue;
    const bool is_aggressor = !perturbed && (p == v - 1 || p == v + 1);
    b.init_row(bank, map.physical_to_logical(static_cast<std::uint32_t>(p)), is_aggressor ? 1 : 0);
  }
  const auto on_time = static_cast<std::int64_t>(config.aggressor_on_time);
  if (v - 1 >= 0 && v + 1 < rows) {
    b.ldi(0, map.physical_to_logical(static_cast<std::uint32_t>(v - 1)));
    b.ldi(1, map.physical_to_logical(static_cast<std::uint32_t>(v + 1)));
    b.hammer(bank, 0, 1, static_cast<std::int64_t>(hammers), on_time);
  } else {
    const auto only = static_cast<std::uint32_t>(v - 1 >= 0 ? v - 1 : v + 1);
    b.ldi(0, map.physical_to_logical(only));
    b.hammer_single(bank, 0, static_cast<std::int64_t>(2 * hammers), on_time);
  }
  b.read_row(bank, map.physical_to_logical(victim_physical));
}

std::vector<std::size_t> spread_sample(std::size_t total, std::size_t count) {
  std::vector<std::size_t> out;
  count = std::min(count, total);
  for (std::size_t i = 0; i < count; ++i) out.push_back(i * total / count);
  return out;
}

std::vector<std::pair<core::Site, std::uint32_t>> sampled_rows(
    const campaign::SweepSpec& spec, const std::vector<std::size_t>& sample) {
  std::vector<std::pair<core::Site, std::uint32_t>> rows;
  for (const std::size_t i : sample) {
    const core::ShardSpec& shard = spec.shards[i];
    for (std::uint32_t row = shard.row_begin; row < shard.row_end; row += shard.row_stride) {
      rows.emplace_back(shard.site, row);
    }
  }
  return rows;
}

std::vector<std::pair<core::Site, std::uint32_t>> all_rows(const campaign::SweepSpec& spec) {
  return sampled_rows(spec, spread_sample(spec.shards.size(), spec.shards.size()));
}

namespace {

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::uint64_t execute_calls(const bender::BenderHost& host) {
  return host.profile().stat(profiling::Phase::kExecute).calls;
}

double phase_ms(const bender::BenderHost& host, profiling::Phase phase) {
  return host.profile().stat(phase).wall_ms;
}

}  // namespace

bender::ExecutionResult BenderReplay::run(
    const core::Site& site, const std::function<void(bender::ProgramBuilder&)>& emit) {
  const Scope replay(tracer_, "bender.replay");
  const auto& geometry = host_->device().geometry();
  const auto t0 = Clock::now();
  bender::ProgramBuilder b(geometry, host_->device().timings());
  {
    const Scope span(tracer_, "bender.build");
    emit(b);
  }
  const auto t1 = Clock::now();
  bender::Program program;
  {
    const Scope span(tracer_, "bender.take");
    program = b.take();
  }
  const auto t2 = Clock::now();
  {
    const Scope span(tracer_, "bender.validate");
    program.validate(geometry);
  }
  const auto t3 = Clock::now();
  const double up0 = phase_ms(*host_, profiling::Phase::kUpload);
  const double ex0 = phase_ms(*host_, profiling::Phase::kExecute);
  const double dr0 = phase_ms(*host_, profiling::Phase::kDrain);
  bender::ExecutionResult result;
  {
    const Scope span(tracer_, "bender.host_run");
    result = host_->run(program, site.channel, site.pseudo_channel);
  }
  const auto t4 = Clock::now();
  upload_ms_ += phase_ms(*host_, profiling::Phase::kUpload) - up0;
  execute_ms_ += phase_ms(*host_, profiling::Phase::kExecute) - ex0;
  drain_ms_ += phase_ms(*host_, profiling::Phase::kDrain) - dr0;
  build_us_.push_back(us_between(t0, t1));
  take_us_.push_back(us_between(t1, t2));
  validate_us_.push_back(us_between(t2, t3));
  host_run_us_.push_back(us_between(t3, t4));
  instructions_.push_back(static_cast<double>(program.instructions().size()));
  return result;
}

void BenderReplay::report(Metrics& layers, std::vector<std::string>& problems,
                          const std::string& what) const {
  const double runs = static_cast<double>(std::max<std::size_t>(host_run_us_.size(), 1));
  layers["bender.build_us"] = median(build_us_);
  layers["bender.take_us"] = median(take_us_);
  layers["bender.validate_us"] = median(validate_us_);
  layers["bender.host_run_us"] = median(host_run_us_);
  layers["bender.instructions_per_program"] = median(instructions_);
  layers["bender.upload_ms"] = upload_ms_ / runs;
  layers["bender.execute_ms"] = execute_ms_ / runs;
  layers["bender.drain_ms"] = drain_ms_ / runs;
  const double host_run_ms = mean(host_run_us_) / 1000.0;
  layers["bender.unattributed_ratio"] =
      host_run_ms > 0.0 ? 1.0 - (upload_ms_ + execute_ms_ + drain_ms_) / runs / host_run_ms : 0.0;
  layers["bender.replay_tuples"] = static_cast<double>(host_run_us_.size());
  layers["bender.replay_mismatches"] = static_cast<double>(mismatches_);
  if (mismatches_ > 0) {
    problems.push_back("probe fidelity: " + std::to_string(mismatches_) + " of " +
                       std::to_string(host_run_us_.size()) + " replayed programs disagree with " +
                       what);
  }
}

void probe_characterizer(const campaign::SweepSpec& spec, const std::vector<std::size_t>& sample,
                         bool perturb_replay, Tracer& tracer, Metrics& layers,
                         std::vector<std::string>& problems) {
  const auto host = build_rig(spec);
  const auto& geometry = host->device().geometry();
  const core::RowMap map = core::RowMap::from_device(host->device());
  core::Characterizer chr(*host, map, spec.characterizer);
  const core::CharacterizerConfig& cc = spec.characterizer;

  // core: whole shards, serially.
  std::vector<double> shard_ms;
  std::uint64_t shard_programs = 0;
  std::uint64_t shard_rows = 0;
  bool full_rows = false;
  for (const std::size_t i : sample) {
    const core::ShardSpec& shard = spec.shards[i];
    full_rows = full_rows || shard.mode == core::ShardMode::kFullRow;
    const std::uint64_t calls0 = execute_calls(*host);
    const auto t0 = Clock::now();
    {
      const Scope span(&tracer, "core.run_shard");
      (void)core::run_shard(chr, shard);
    }
    shard_ms.push_back(us_between(t0, Clock::now()) / 1000.0);
    shard_programs += execute_calls(*host) - calls0;
    shard_rows += shard.sampled_rows();
  }
  layers["core.run_shard_ms"] = median(shard_ms);
  layers["core.programs_per_row"] =
      shard_rows == 0 ? 0.0 : static_cast<double>(shard_programs) / static_cast<double>(shard_rows);

  // core per call, and the bender replay of the same tuples: (row, pattern,
  // hammers), with an HC_first-style lower count for full-methodology rows.
  const auto rows = sampled_rows(spec, sample);
  std::vector<std::uint64_t> hammer_counts{cc.ber_hammers};
  if (full_rows) hammer_counts.push_back(cc.ber_hammers / 4);

  BenderReplay replay(*host, tracer);
  std::vector<double> ber_us, hc_us, hc_programs;
  for (const auto& [site, row] : rows) {
    for (const core::DataPattern pattern : core::kAllPatterns) {
      for (const std::uint64_t hammers : hammer_counts) {
        const bender::ExecutionResult result = replay.run(site, [&](bender::ProgramBuilder& b) {
          emit_ber_program(b, geometry, map, cc, site, row, pattern, hammers, perturb_replay);
        });
        std::uint64_t replay_errors = 0;
        const std::uint8_t expected = core::victim_byte(pattern);
        for (const std::uint8_t got : result.readback) {
          replay_errors += static_cast<std::uint64_t>(std::popcount(
              static_cast<unsigned>(got ^ expected)));
        }
        const auto t = Clock::now();
        core::BerResult measured;
        {
          const Scope span(&tracer, "core.measure_ber");
          measured = chr.measure_ber(site, row, pattern, hammers);
        }
        ber_us.push_back(us_between(t, Clock::now()));
        replay.compare(measured.bit_errors == replay_errors);
      }
      if (full_rows) {
        const std::uint64_t calls0 = execute_calls(*host);
        const auto t = Clock::now();
        {
          const Scope span(&tracer, "core.measure_hc_first");
          (void)chr.measure_hc_first(site, row, pattern, cc.wcdp_tolerance);
        }
        hc_us.push_back(us_between(t, Clock::now()));
        hc_programs.push_back(static_cast<double>(execute_calls(*host) - calls0));
      }
    }
  }
  replay.report(layers, problems, "Characterizer::measure_ber");
  layers["core.measure_ber_us"] = median(ber_us);
  layers["core.measure_hc_first_us"] = median(hc_us);
  layers["core.hc_first_programs"] = median(hc_programs);
  layers["core.measure_ber_gap_us"] = layers["core.measure_ber_us"] -
                                      (layers["bender.build_us"] + layers["bender.take_us"] +
                                       layers["bender.host_run_us"]);
}

void probe_fault(const hbm::DeviceConfig& device,
                 const std::vector<std::pair<core::Site, std::uint32_t>>& victims,
                 double distinct_rows, Tracer& tracer, Metrics& layers) {
  // The fast kernel keeps the 512 most recently used rows; probing fewer
  // keeps the second pass warm.
  std::vector<std::pair<core::Site, std::uint32_t>> rows;
  for (const std::size_t i : spread_sample(victims.size(), 384)) rows.push_back(victims[i]);
  const hbm::Geometry& geometry = device.geometry;
  const hbm::SubarrayLayout layout =
      device.subarray_sizes.empty() ? hbm::SubarrayLayout::paper_layout(geometry.rows_per_bank)
                                    : hbm::SubarrayLayout(device.subarray_sizes);
  const fault::ProcessVariation variation(device.fault, geometry);
  fault::RowHammerModel model(device.fault, geometry, layout, variation);
  model.set_fast_kernel(true);

  // The paper's BER test: 256 K double-sided hammers, Rowstripe0 data.
  const double disturbance = 2.0 * 262'144.0;
  const auto pattern = core::DataPattern::kRowstripe0;
  const auto victim = core::make_row_image(geometry, core::victim_byte(pattern));
  const auto aggressor = core::make_row_image(geometry, core::aggressor_byte(pattern));

  const auto pass = [&](const char* name, std::vector<double>& us) {
    const Scope span(&tracer, name);
    for (const auto& [site, row] : rows) {
      const auto ctx = fault::BankContext::from(geometry, site.bank_address());
      std::vector<std::uint8_t> data = victim;
      const auto t = Clock::now();
      (void)model.apply(ctx, row, data, aggressor, aggressor, disturbance, 85.0);
      us.push_back(us_between(t, Clock::now()));
    }
  };
  std::vector<double> cold_us, warm_us;
  const double heap0 = heap_in_use_kb();
  pass("fault.apply_cold", cold_us);
  const double heap1 = heap_in_use_kb();
  pass("fault.apply_warm", warm_us);

  layers["fault.apply_cold_us"] = median(cold_us);
  layers["fault.apply_warm_us"] = median(warm_us);
  layers["fault.distinct_rows"] = distinct_rows;
  layers["fault.heap_per_row_kb"] =
      rows.empty() ? 0.0 : (heap1 - heap0) / static_cast<double>(rows.size());
}

}  // namespace perfbench
