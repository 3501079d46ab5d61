// trr_refresh: the paper's §5 finding as ablation A5 runs it. Each victim is
// hammered 256 K times with 64 (sparse) or 512 (dense) REF commands
// interleaved. REF engages the proprietary TRR sampler and splits the
// hammer fast-forward into hundreds of chunks; programs are built with
// ProgramBuilder and run on one serial BenderHost, bypassing core and
// campaign entirely.
#include <bit>

#include "core/data_patterns.hpp"
#include "core/row_map.hpp"
#include "core/site.hpp"
#include "telemetry/telemetry.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace rh;

namespace {

constexpr std::uint64_t kHammers = 262'144;
constexpr std::uint64_t kSparseRefs = 64;
constexpr std::uint64_t kDenseRefs = 512;
constexpr std::uint32_t kVictimsPerChannel = 64;

struct Victim {
  core::Site site;
  std::uint32_t row = 0;
};

/// 8 channels x 64 victims, A5's rows (1200 + 13 i) in bank 0 of pc 0.
std::vector<Victim> victims() {
  std::vector<Victim> out;
  for (std::uint32_t ch = 0; ch < 8; ++ch) {
    for (std::uint32_t i = 0; i < kVictimsPerChannel; ++i) {
      out.push_back({{ch, 0, 0}, 1200 + i * 13});
    }
  }
  return out;
}

/// ablation_trr_efficacy's program: victim 0x00 between 0xFF aggressors,
/// the hammers split into `refs` chunks each followed by REF + tRFC.
/// `perturbed` writes the aggressors with the victim's data instead.
void emit_trr_program(bender::ProgramBuilder& b, const hbm::Geometry& geometry,
                      const hbm::TimingParams& timings, const core::RowMap& map,
                      const Victim& victim, std::uint64_t refs, bool perturbed = false) {
  const auto bank = static_cast<std::uint8_t>(victim.site.bank);
  b.program().set_wide_register(0, core::make_row_image(geometry, 0x00));
  b.program().set_wide_register(1, core::make_row_image(geometry, 0xFF));
  const auto v = static_cast<std::int64_t>(victim.row);
  for (std::int64_t p = v - 2; p <= v + 2; ++p) {
    const bool agg = !perturbed && (p == v - 1 || p == v + 1);
    b.init_row(bank, map.physical_to_logical(static_cast<std::uint32_t>(p)), agg ? 1 : 0);
  }
  b.ldi(0, map.physical_to_logical(victim.row - 1));
  b.ldi(1, map.physical_to_logical(victim.row + 1));
  const std::uint64_t chunk = kHammers / refs;
  for (std::uint64_t c = 0; c < refs; ++c) {
    b.hammer(bank, 0, 1, static_cast<std::int64_t>(chunk));
    b.ref();
    b.sleep(static_cast<std::int64_t>(timings.tRFC));
  }
  b.read_row(bank, map.physical_to_logical(victim.row));
}

std::uint64_t flips(const bender::ExecutionResult& result) {
  std::uint64_t n = 0;
  for (const std::uint8_t byte : result.readback) {
    n += static_cast<std::uint64_t>(std::popcount(byte));
  }
  return n;
}

class TrrWorkload : public Workload {
public:
  explicit TrrWorkload(const Options& options) : options_(options), victims_(victims()) {}

  void setup() override {
    host_ = std::make_unique<bender::BenderHost>(device_config(options_.seed));
    host_->set_chip_temperature(85.0);
  }

  void teardown() override { host_.reset(); }

  Pass run(Tracer* tracer, Metrics& layers) override {
    std::unique_ptr<telemetry::Telemetry> sink;
    if (tracer != nullptr) {
      telemetry::TelemetryConfig tc;
      tc.trace_enabled = false;
      sink = std::make_unique<telemetry::Telemetry>(tc);
      host_->set_telemetry(sink.get());
    }
    const auto& geometry = host_->device().geometry();
    const auto& timings = host_->device().timings();
    const core::RowMap map = core::RowMap::from_device(host_->device());

    Pass pass;
    Digest digest;
    std::uint64_t sparse_flips = 0, dense_flips = 0;
    flips_.clear();
    for (const Victim& victim : victims_) {
      for (const std::uint64_t refs : {kSparseRefs, kDenseRefs}) {
        ++pass.attempted;
        try {
          bender::ProgramBuilder b(geometry, timings);
          {
            const Scope span(tracer, "bender.build");
            emit_trr_program(b, geometry, timings, map, victim, refs);
          }
          bender::Program program;
          {
            const Scope span(tracer, "bender.take");
            program = b.take();
          }
          bender::ExecutionResult result;
          {
            const Scope span(tracer, "bender.host_run");
            result = host_->run(program, victim.site.channel, victim.site.pseudo_channel);
          }
          const std::uint64_t n = flips(result);
          (refs == kSparseRefs ? sparse_flips : dense_flips) += n;
          flips_.push_back(n);
          digest.add(victim.site.to_string() + "/" + std::to_string(victim.row) + "/" +
                     std::to_string(refs) + "=" + std::to_string(n) + "\n");
          pass.outputs.device_cycles += result.cycles();
          ++pass.outputs.programs;
        } catch (const std::exception& e) {
          ++pass.failed;
          pass.problems.push_back("victim " + std::to_string(victim.row) + ": " + e.what());
        }
      }
    }
    pass.outputs.digest = digest.value();
    if (!(dense_flips < sparse_flips)) {
      pass.problems.push_back("trr shape: dense-REF flips " + std::to_string(dense_flips) +
                              " not below sparse-REF flips " + std::to_string(sparse_flips));
    }
    if (sink != nullptr) {
      const auto counter = [&](const char* name) {
        return static_cast<double>(sink->metrics().counter(name).value());
      };
      layers["hbm.cmd.act"] = counter("cmd.ACT");
      layers["hbm.cmd.ref"] = counter("cmd.REF");
      layers["hbm.cmd.wr"] = counter("cmd.WR");
      layers["trr.proprietary_triggers"] = counter("trr.proprietary_triggers");
      host_->set_telemetry(nullptr);
    }
    return pass;
  }

  // TRR state carries from program to program, so the replay re-runs a
  // prefix of the workload's own sequence on a fresh rig and must reproduce
  // its flips exactly.
  void probe(Tracer& tracer, Metrics& layers, std::vector<std::string>& problems) override {
    setup();
    const auto& geometry = host_->device().geometry();
    const auto& timings = host_->device().timings();
    const core::RowMap map = core::RowMap::from_device(host_->device());
    BenderReplay replay(*host_, tracer);
    std::vector<double> sparse_us, dense_us;
    for (std::size_t i = 0; i < 2 * kVictimsPerChannel && i < flips_.size(); ++i) {
      const Victim& victim = victims_[i / 2];
      const std::uint64_t refs = i % 2 == 0 ? kSparseRefs : kDenseRefs;
      const bender::ExecutionResult result =
          replay.run(victim.site, [&](bender::ProgramBuilder& b) {
            emit_trr_program(b, geometry, timings, map, victim, refs, options_.perturb_replay);
          });
      (refs == kSparseRefs ? sparse_us : dense_us).push_back(replay.last_host_run_us());
      replay.compare(flips(result) == flips_[i]);
    }
    replay.report(layers, problems, "the run's own flips");
    teardown();
    layers["hbm.ref_us"] =
        (median(dense_us) - median(sparse_us)) / static_cast<double>(kDenseRefs - kSparseRefs);

    std::vector<std::pair<core::Site, std::uint32_t>> rows;
    for (const Victim& v : victims_) rows.emplace_back(v.site, v.row);
    probe_fault(device_config(options_.seed), rows, static_cast<double>(rows.size()), tracer,
                layers);
  }

private:
  Options options_;
  std::vector<Victim> victims_;
  std::unique_ptr<bender::BenderHost> host_;
  std::vector<std::uint64_t> flips_;  ///< last pass, in program order
};

}  // namespace

std::unique_ptr<Workload> make_trr_workload(const Options& options) {
  return std::make_unique<TrrWorkload>(options);
}

}  // namespace perfbench
