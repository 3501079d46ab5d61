// fig3_full_rows and fig6_bank_scan: the two campaign-runner workloads.
//
// fig3_full_rows reuses each row for ~34 programs (BER plus HC_first
// bisection for four patterns), so the fault kernel's per-row cache stays
// warm and program building plus the engine dominate; its 24 coarse shards
// also expose worker imbalance. fig6_bank_scan measures 9,984 distinct rows
// once per pattern, so per-row fault-cache builds and memory dominate.
#include <algorithm>
#include <map>
#include <mutex>
#include <tuple>

#include "core/spatial.hpp"
#include "profiling/profile.hpp"
#include "telemetry/telemetry.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace rh;

namespace {

constexpr unsigned kWorkers = 2;

campaign::SweepSpec fig3_spec(std::uint64_t seed) {
  core::SurveyConfig survey;  // 8 channels, first/middle/last 3072 rows
  survey.row_stride = 64;
  return campaign::survey_sweep(device_config(seed), survey);
}

/// Fig. 6's bank scan (fig6_bank_variation's rows: 100 rows per region at
/// stride 8) as one BER-only shard per (channel, pc, bank, region), in the
/// serial survey_banks order.
campaign::SweepSpec fig6_spec(std::uint64_t seed) {
  campaign::SweepSpec spec;
  spec.device = device_config(seed);
  const hbm::Geometry& g = spec.device.geometry;
  for (std::uint32_t ch = 0; ch < g.channels; ++ch) {
    for (std::uint32_t pc = 0; pc < g.pseudo_channels_per_channel; ++pc) {
      for (std::uint32_t bank = 0; bank < g.banks_per_pseudo_channel; ++bank) {
        for (const auto& region : core::paper_regions(g, 100)) {
          core::ShardSpec shard;
          shard.index = spec.shards.size();
          shard.site = core::Site{ch, pc, bank};
          shard.row_begin = region.first_row;
          shard.row_end = region.first_row + region.rows;
          shard.row_stride = 8;
          shard.mode = core::ShardMode::kBerOnly;
          spec.shards.push_back(shard);
        }
      }
    }
  }
  return spec;
}

double wcdp_ber(const core::RowRecord& r) { return r.wcdp_ber().ber(); }

/// Fig. 3/5 shape: ch7's mean WCDP BER is 1.4-2.9x ch0's (the band
/// tests/paper_numbers_test.cpp holds the model to), and the last region
/// (the bank's last subarray) is less vulnerable than the first.
void check_fig3_shape(const std::vector<core::RowRecord>& records, std::uint32_t rows_per_bank,
                      std::vector<std::string>& problems) {
  std::map<std::uint32_t, double> channel_mean;
  for (const auto& s : core::aggregate_ber(records)) {
    if (s.pattern == core::kWcdpPatternIndex) channel_mean[s.channel] = s.stats.mean;
  }
  const double ratio = channel_mean[0] > 0.0 ? channel_mean[7] / channel_mean[0] : 0.0;
  if (!(ratio >= 1.4 && ratio <= 2.9)) {
    problems.push_back("fig3 shape: ch7/ch0 WCDP BER ratio " + std::to_string(ratio) +
                       " outside [1.4, 2.9]");
  }
  const std::uint32_t region_rows = core::SurveyConfig{}.region_rows;
  std::vector<double> first, last;
  for (const auto& r : records) {
    if (r.physical_row < region_rows) first.push_back(wcdp_ber(r));
    if (r.physical_row >= rows_per_bank - region_rows) last.push_back(wcdp_ber(r));
  }
  if (!(mean(last) < mean(first))) {
    problems.push_back("fig5 shape: last-region BER " + std::to_string(mean(last)) +
                       " not below first-region BER " + std::to_string(mean(first)));
  }
}

/// Fig. 6 shape: the spread of channel means exceeds the largest spread of
/// bank means within any channel (channel variation dominates).
void check_fig6_shape(const std::vector<core::RowRecord>& records,
                      std::vector<std::string>& problems) {
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>, std::vector<double>> bank_bers;
  for (const auto& r : records) {
    bank_bers[{r.site.channel, r.site.pseudo_channel, r.site.bank}].push_back(wcdp_ber(r));
  }
  std::map<std::uint32_t, std::pair<double, double>> minmax;  // channel -> bank-mean range
  for (const auto& [key, bers] : bank_bers) {
    const double m = mean(bers);
    auto [it, fresh] = minmax.try_emplace(std::get<0>(key), m, m);
    if (!fresh) {
      it->second.first = std::min(it->second.first, m);
      it->second.second = std::max(it->second.second, m);
    }
  }
  double within = 0.0, lo = 1e9, hi = -1e9;
  for (const auto& [ch, mm] : minmax) {
    within = std::max(within, mm.second - mm.first);
    lo = std::min(lo, 0.5 * (mm.first + mm.second));
    hi = std::max(hi, 0.5 * (mm.first + mm.second));
  }
  if (!(hi - lo > within)) {
    problems.push_back("fig6 shape: cross-channel spread " + std::to_string((hi - lo) * 100.0) +
                       " pp not above within-channel bank spread " +
                       std::to_string(within * 100.0) + " pp");
  }
}

class CampaignWorkload : public Workload {
public:
  explicit CampaignWorkload(const Options& options)
      : options_(options), fig3_(options.workload == "fig3_full_rows") {}

  // The shard plan plus one rig brought to 85 degC: what each worker pays
  // before its first shard (Campaign::run builds its own rigs).
  void setup() override {
    spec_ = fig3_ ? fig3_spec(options_.seed) : fig6_spec(options_.seed);
    (void)build_rig(spec_);
  }

  Pass run(Tracer* tracer, Metrics& layers) override {
    campaign::CampaignConfig config;
    config.jobs = kWorkers;
    config.progress = false;
    config.fail_on_shard_error = false;  // failed shards are counted, not thrown

    std::unique_ptr<telemetry::Telemetry> sink;
    if (tracer != nullptr) {
      telemetry::TelemetryConfig tc;
      tc.trace_enabled = false;
      sink = std::make_unique<telemetry::Telemetry>(tc);
    }
    campaign::Campaign campaign(config, sink.get());

    std::mutex rig_mutex;
    std::vector<double> rig_ms;
    std::int64_t run_span = -1;
    if (tracer != nullptr) {
      campaign.set_host_factory([&](const campaign::SweepSpec& spec) {
        const auto start = Clock::now();
        auto host = build_rig(spec);
        const auto end = Clock::now();
        tracer->record("campaign.rig_build", start, end, run_span);
        const std::lock_guard<std::mutex> lock(rig_mutex);
        rig_ms.push_back(std::chrono::duration<double, std::milli>(end - start).count());
        return host;
      });
    }

    campaign::CampaignResult result;
    {
      const Scope span(tracer, "campaign.run");
      if (tracer != nullptr) run_span = tracer->current();
      result = campaign.run(spec_);
    }

    Pass pass;
    const std::vector<core::RowRecord> records = result.flat();
    Digest digest;
    digest.add(records_jsonl(records));
    pass.outputs.digest = digest.value();
    for (const auto& t : result.timings) pass.outputs.device_cycles += t.device_cycles;
    pass.outputs.programs = campaign.profile().stat(profiling::Phase::kExecute).calls;
    pass.attempted = spec_.shards.size();
    pass.failed = result.failures.size();
    for (const auto& f : result.failures) {
      pass.problems.push_back("shard " + std::to_string(f.shard) + " failed: " + f.what);
    }
    if (fig3_) {
      check_fig3_shape(records, spec_.device.geometry.rows_per_bank, pass.problems);
    } else {
      check_fig6_shape(records, pass.problems);
    }

    if (tracer != nullptr) {
      std::vector<double> shard_ms;
      double busy_ms = 0.0;
      for (const auto& t : result.timings) {
        shard_ms.push_back(t.wall_ms);
        busy_ms += t.wall_ms;
      }
      layers["campaign.rig_build_ms"] = median(rig_ms);
      layers["campaign.shard_ms_p50"] = percentile(shard_ms, 0.50);
      layers["campaign.shard_ms_p95"] = percentile(shard_ms, 0.95);
      layers["campaign.shard_samples"] = static_cast<double>(shard_ms.size());
      layers["campaign.busy_ratio"] =
          busy_ms / (static_cast<double>(result.jobs) * result.elapsed_wall_ms);
      layers["campaign.shards_retried"] = static_cast<double>(result.shards_retried);
      layers["campaign.shards_failed"] = static_cast<double>(result.failures.size());
      const auto counter = [&](const char* name) {
        return static_cast<double>(sink->metrics().counter(name).value());
      };
      layers["hbm.cmd.act"] = counter("cmd.ACT");
      layers["hbm.cmd.ref"] = counter("cmd.REF");
      layers["hbm.cmd.wr"] = counter("cmd.WR");
      layers["trr.proprietary_triggers"] = counter("trr.proprietary_triggers");
    }
    return pass;
  }

  void probe(Tracer& tracer, Metrics& layers, std::vector<std::string>& problems) override {
    // fig3 shards are 48 full-methodology rows (~1,600 programs); fig6
    // shards are 13 BER-only rows, so it samples more of them.
    const auto sample = spread_sample(spec_.shards.size(), fig3_ ? 2 : 24);
    probe_characterizer(spec_, sample, options_.perturb_replay, tracer, layers, problems);
    const auto rows = all_rows(spec_);
    probe_fault(spec_.device, rows, static_cast<double>(rows.size()), tracer, layers);
  }

private:
  Options options_;
  bool fig3_;
  campaign::SweepSpec spec_;
};

}  // namespace

std::unique_ptr<Workload> make_campaign_workload(const Options& options) {
  return std::make_unique<CampaignWorkload>(options);
}

}  // namespace perfbench
