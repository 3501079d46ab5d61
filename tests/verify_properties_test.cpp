// The differential property suite, expressed through verify::Property so
// every invariant reports a seeded, reproducible counterexample:
//   - oracle-vs-checker verdict agreement over fuzzed streams,
//   - serial-vs-sharded campaign byte-identity,
//   - fault-storm-vs-baseline campaign identity,
//   - fast-engine-vs-interp campaign byte-identity (serial, sharded, and
//     under a transport fault storm) plus hammer-loop boundary agreement
//     and planted fast-path bug sensitivity,
//   - fault kernels (cached and reference RowHammer scans, retention,
//     power-on data) vs the legacy double-domain scans, plus a planted
//     boundary mutant,
//   - scramble and row-map round-trips,
//   - on-die ECC read-path invariants.
#include "verify/property.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bender/host.hpp"
#include "bender/program.hpp"
#include "campaign/campaign.hpp"
#include "campaign/record_io.hpp"
#include "common/engine.hpp"
#include "core/row_map.hpp"
#include "core/spatial.hpp"
#include "fault/cell_traits.hpp"
#include "fault/retention_model.hpp"
#include "fault/rowhammer_model.hpp"
#include "hbm/device.hpp"
#include "hbm/ecc.hpp"
#include "hbm/scramble.hpp"
#include "verify/differential.hpp"
#include "verify/generator.hpp"

namespace rh::verify {
namespace {

void expect_passes(const Property& property, std::uint64_t seed, std::size_t cases) {
  const PropertyOutcome outcome = property.run(seed, cases);
  EXPECT_TRUE(outcome.passed) << outcome.name << " case " << outcome.failing_case << ": "
                              << outcome.counterexample;
}

/// Serializes campaign records to the exact bytes record_io would persist,
/// so "identical" means bit-identical doubles, not approximately-equal.
std::string record_bytes(const std::vector<core::RowRecord>& records) {
  std::string out;
  for (const auto& record : records) campaign::append_row_record_json(out, record);
  return out;
}

/// A two-shard-per-bank sweep small enough to run several times per case.
campaign::SweepSpec tiny_sweep() {
  core::SurveyConfig survey;
  survey.channels = {0};
  survey.row_stride = 1024;
  survey.wcdp_by_ber = true;
  campaign::SweepSpec spec =
      campaign::survey_sweep(hbm::DeviceConfig{}, survey, /*max_rows_per_shard=*/2);
  spec.settle_thermal = false;
  return spec;
}

std::vector<core::RowRecord> run_campaign(const campaign::SweepSpec& spec, unsigned jobs,
                                          double fault_rate, std::uint64_t fault_seed,
                                          common::EngineKind engine = common::EngineKind::kFast,
                                          common::PlantedBug bug = common::PlantedBug::kNone) {
  campaign::CampaignConfig config;
  config.jobs = jobs;
  config.progress = false;
  config.retries = 3;
  config.engine = engine;
  config.engine_bug = bug;
  if (fault_rate > 0.0) {
    config.fault_plan.seed = fault_seed;
    config.fault_plan.set_transport_rates(fault_rate);
  }
  campaign::Campaign campaign(config);
  return campaign.run(spec).flat();
}

TEST(VerifyProperties, OracleAgreesWithCheckerOnFuzzedStreams) {
  expect_passes(Property("oracle/checker verdict agreement",
                         [](common::Xoshiro256& rng) -> std::optional<std::string> {
                           GenConfig cfg;
                           cfg.max_cmds = 32;
                           CommandStream stream = generate_valid(rng, cfg);
                           if (rng.below(4) != 0) (void)mutate_stream(rng, stream, cfg);
                           const auto d = compare_stream(stream, cfg.timings, cfg.banks);
                           if (!d.has_value()) return std::nullopt;
                           return "index " + std::to_string(d->index) + ": oracle=" +
                                  to_string(d->oracle) + " checker=" + to_string(d->checker) +
                                  "\n" + format_stream(stream);
                         }),
                /*seed=*/11, /*cases=*/400);
}

TEST(VerifyProperties, SerialAndShardedCampaignsAreByteIdentical) {
  const campaign::SweepSpec spec = tiny_sweep();
  expect_passes(Property("serial == sharded campaign",
                         [&spec](common::Xoshiro256& rng) -> std::optional<std::string> {
                           const unsigned jobs = 2 + static_cast<unsigned>(rng.below(3));
                           const std::string serial = record_bytes(run_campaign(spec, 1, 0.0, 0));
                           if (serial.empty()) return "sweep produced no records";
                           const std::string sharded =
                               record_bytes(run_campaign(spec, jobs, 0.0, 0));
                           if (serial == sharded) return std::nullopt;
                           return "jobs=" + std::to_string(jobs) + ": " +
                                  std::to_string(serial.size()) + " vs " +
                                  std::to_string(sharded.size()) + " record bytes differ";
                         }),
                /*seed=*/5, /*cases=*/2);
}

TEST(VerifyProperties, FaultStormCampaignMatchesBaseline) {
  const campaign::SweepSpec spec = tiny_sweep();
  const std::string baseline = record_bytes(run_campaign(spec, 2, 0.0, 0));
  ASSERT_FALSE(baseline.empty());
  expect_passes(Property("fault storm == baseline",
                         [&spec, &baseline](common::Xoshiro256& rng) -> std::optional<std::string> {
                           const std::uint64_t fault_seed = rng();
                           const std::string stormed =
                               record_bytes(run_campaign(spec, 2, 0.05, fault_seed));
                           if (stormed == baseline) return std::nullopt;
                           return "fault seed " + std::to_string(fault_seed) +
                                  " changed the results";
                         }),
                /*seed=*/23, /*cases=*/2);
}

TEST(VerifyProperties, FastAndInterpCampaignsAreByteIdentical) {
  // The two-engine equivalence contract at campaign granularity: the
  // reference interpreter's serial records are the ground truth; the fast
  // engine must reproduce them byte-for-byte serial, sharded, and under a
  // 5% transport fault storm.
  const campaign::SweepSpec spec = tiny_sweep();
  const std::string reference =
      record_bytes(run_campaign(spec, 1, 0.0, 0, common::EngineKind::kInterp));
  ASSERT_FALSE(reference.empty());
  expect_passes(
      Property("fast engine == interp engine campaign",
               [&spec, &reference](common::Xoshiro256& rng) -> std::optional<std::string> {
                 const unsigned jobs = 1 + static_cast<unsigned>(rng.below(3));
                 const double fault_rate = rng.below(2) == 0 ? 0.0 : 0.05;
                 const std::string fast = record_bytes(
                     run_campaign(spec, jobs, fault_rate, rng(), common::EngineKind::kFast));
                 if (fast == reference) return std::nullopt;
                 return "jobs=" + std::to_string(jobs) + " fault_rate=" +
                        std::to_string(fault_rate) + ": " + std::to_string(reference.size()) +
                        " vs " + std::to_string(fast.size()) + " record bytes differ";
               }),
      /*seed=*/83, /*cases=*/3);
}

/// Runs one hammer program through the chosen engine and digests every
/// cheap observable: clocks, command mix, bank statistics, the pending
/// disturbance around the aggressors, the TRR sampler, and the victim
/// readback. `use_macro` picks the batched HAMMER macro-op (the TRR/flush
/// paths) over the unrolled register loop (the fast-forward path).
std::string engine_probe_digest(common::EngineKind kind, common::PlantedBug bug,
                                std::uint32_t count, std::uint32_t row_a, std::uint32_t row_b,
                                bool use_macro, int refs = 0) {
  hbm::DeviceConfig config;
  bender::BenderHost host(config);
  host.set_engine(kind, bug);
  bender::ProgramBuilder b(config.geometry, config.timings);
  const std::uint32_t victim = (row_a + row_b) / 2;
  b.init_row(0, victim, 0);
  if (use_macro) {
    b.ldi(1, row_a).ldi(2, row_b);
    b.hammer(0, 1, 2, static_cast<std::int64_t>(count));
  } else {
    b.hammer_loop_raw(0, row_a, row_b, count);
  }
  // REFs give the proprietary TRR its firing slots (period 17), so a
  // mis-sampled aggressor turns into a victim refresh on the wrong
  // neighbourhood — the observable a sampler bug leaves behind.
  for (int i = 0; i < refs; ++i) b.sleep(1000).ref();
  if (refs > 0) b.sleep(1000);  // clear tRFC before reopening the bank
  b.read_row(0, victim);
  b.program().set_wide_register(0,
                                std::vector<std::uint8_t>(config.geometry.row_bytes(), 0x5A));
  const bender::ExecutionResult result = host.run(b.take(), 0, 0);

  const hbm::Bank& bank = host.device().bank({0, 0, 0});
  std::ostringstream os;
  os << std::hexfloat << result.end_cycle << ' ' << result.instructions_executed << ' '
     << result.metrics.acts << ' ' << result.metrics.precharges << ' ' << bank.stats().activates
     << ' ' << bank.stats().rowhammer_flips << ' ' << bank.stats().settles << '\n';
  for (std::uint32_t r = row_a - 4; r <= row_b + 4; ++r) {
    os << bank.disturbance_of_physical(r) << ' ';
  }
  const trr::ProprietaryTrr& trr =
      host.device().pseudo_channel(0, 0).proprietary_trr();
  os << "\ntrr " << trr.sample_valid();
  if (trr.sample_valid()) os << ' ' << trr.sample().bank << ' ' << trr.sample().logical_row;
  os << '\n';
  for (const std::uint8_t byte : result.readback) os << static_cast<int>(byte) << ' ';
  return os.str();
}

TEST(VerifyProperties, HammerLoopBoundariesMatchAcrossEngines) {
  // Fuzz the unrolled hammer loop's iteration count around the pivots the
  // closed-form fast-forward must not cross by one: 0, 1, and power-ish
  // thresholds +/-1. Both engines must agree on every observable.
  expect_passes(
      Property("fast == interp at hammer-loop boundaries",
               [](common::Xoshiro256& rng) -> std::optional<std::string> {
                 static constexpr std::uint32_t kPivots[] = {0, 1, 2, 17, 64, 256, 1024};
                 const std::uint32_t pivot =
                     kPivots[rng.below(std::size(kPivots))];
                 const std::uint32_t jitter = static_cast<std::uint32_t>(rng.below(3));
                 const std::uint32_t count = pivot == 0 ? jitter : pivot - 1 + jitter;
                 const std::uint32_t row_a = 100 + 2 * static_cast<std::uint32_t>(rng.below(40));
                 const std::uint32_t row_b = row_a + 2;
                 const std::string fast = engine_probe_digest(
                     common::EngineKind::kFast, common::PlantedBug::kNone, count, row_a, row_b,
                     /*use_macro=*/false);
                 const std::string interp = engine_probe_digest(
                     common::EngineKind::kInterp, common::PlantedBug::kNone, count, row_a, row_b,
                     /*use_macro=*/false);
                 if (fast == interp) return std::nullopt;
                 return "count=" + std::to_string(count) + " rows " + std::to_string(row_a) +
                        "/" + std::to_string(row_b) + ": engines diverge\nfast:\n" + fast +
                        "\ninterp:\n" + interp;
               }),
      /*seed=*/71, /*cases=*/24);
}

TEST(VerifyProperties, PlantedEngineBugsDivergeFromTheReference) {
  // Sensitivity: each planted fast-path bug must visibly diverge from the
  // reference interpreter on a randomized hammer program — a rig that
  // cannot convict a planted off-by-one could not convict a real one.
  // Rows 200/202 map to physically adjacent rows under the default
  // pair-swap decoder, so the macro-op's final-ACT flush has real pending
  // state to clear (what kStaleDisturbanceFlush breaks).
  expect_passes(
      Property("planted fast-path bugs are caught",
               [](common::Xoshiro256& rng) -> std::optional<std::string> {
                 static constexpr common::PlantedBug kBugs[] = {
                     common::PlantedBug::kOffByOneFastForward,
                     common::PlantedBug::kSkipTrrSample,
                     common::PlantedBug::kStaleDisturbanceFlush,
                 };
                 const common::PlantedBug bug = kBugs[rng.below(std::size(kBugs))];
                 const bool use_macro = bug != common::PlantedBug::kOffByOneFastForward;
                 // The sampler bug only manifests once a TRR slot fires
                 // (one victim refresh per 17 REFs).
                 const int refs = bug == common::PlantedBug::kSkipTrrSample ? 20 : 0;
                 const std::uint32_t count = 257 + static_cast<std::uint32_t>(rng.below(512));
                 const std::string buggy =
                     engine_probe_digest(common::EngineKind::kFast, bug, count, 200, 202,
                                         use_macro, refs);
                 const std::string reference =
                     engine_probe_digest(common::EngineKind::kInterp, common::PlantedBug::kNone,
                                         count, 200, 202, use_macro, refs);
                 if (buggy != reference) return std::nullopt;
                 return std::string(to_string(bug)) + " count=" + std::to_string(count) +
                        ": the rig saw no divergence";
               }),
      /*seed=*/97, /*cases=*/9);
}

/// Runs `spec` with a metrics stream and returns the canonical cycles
/// series: the {"sample":"cycles"} lines sorted by their (shard, attempt,
/// seq) content — the rh-metrics-stream/v1 canonicalization rule. Workers
/// interleave lines arbitrarily; the sorted bytes must not depend on --jobs.
std::string canonical_cycles_series(const campaign::SweepSpec& spec, unsigned jobs) {
  const std::string path =
      "verify_properties_stream_" + std::to_string(jobs) + ".jsonl";
  campaign::CampaignConfig config;
  config.jobs = jobs;
  config.progress = false;
  config.metrics_stream_path = path;
  config.stream_cycle_cadence = 1 << 22;
  campaign::Campaign campaign(config);
  (void)campaign.run(spec);
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("{\"sample\":\"cycles\"", 0) == 0) lines.push_back(line);
    }
  }
  std::remove(path.c_str());
  std::sort(lines.begin(), lines.end());
  std::string joined;
  for (const auto& line : lines) {
    joined += line;
    joined += '\n';
  }
  return joined;
}

TEST(VerifyProperties, MetricsStreamCyclesSeriesIsJobsInvariant) {
  const campaign::SweepSpec spec = tiny_sweep();
  const std::string serial = canonical_cycles_series(spec, 1);
  ASSERT_FALSE(serial.empty()) << "every attempt must close with a cycles sample";
  expect_passes(Property("cycles series is --jobs invariant",
                         [&spec, &serial](common::Xoshiro256& rng) -> std::optional<std::string> {
                           const unsigned jobs = 2 + static_cast<unsigned>(rng.below(3));
                           const std::string sharded = canonical_cycles_series(spec, jobs);
                           if (sharded == serial) return std::nullopt;
                           return "jobs=" + std::to_string(jobs) + ": " +
                                  std::to_string(serial.size()) + " vs " +
                                  std::to_string(sharded.size()) +
                                  " canonical series bytes differ";
                         }),
                /*seed=*/17, /*cases=*/2);
}

TEST(VerifyProperties, ScramblersRoundTripAndAreInvolutions) {
  expect_passes(Property("scramble round-trip",
                         [](common::Xoshiro256& rng) -> std::optional<std::string> {
                           const std::uint32_t rows = 4u * (1u + static_cast<std::uint32_t>(
                                                                     rng.below(256)));
                           for (const auto kind :
                                {hbm::ScrambleKind::kIdentity, hbm::ScrambleKind::kPairSwap,
                                 hbm::ScrambleKind::kXorFold}) {
                             const hbm::RowScrambler s(kind, rows);
                             const auto logical = static_cast<std::uint32_t>(rng.below(rows));
                             const std::uint32_t physical = s.logical_to_physical(logical);
                             if (physical >= rows || s.physical_to_logical(physical) != logical) {
                               return std::string(to_string(kind)) + ": row " +
                                      std::to_string(logical) + " -> " +
                                      std::to_string(physical) + " does not round-trip";
                             }
                           }
                           return std::nullopt;
                         }),
                /*seed=*/31, /*cases=*/500);
}

TEST(VerifyProperties, RowMapFromDeviceRoundTrips) {
  expect_passes(
      Property("row-map round-trip",
               [](common::Xoshiro256& rng) -> std::optional<std::string> {
                 hbm::DeviceConfig config;
                 config.scramble = rng.below(2) == 0 ? hbm::ScrambleKind::kPairSwap
                                                     : hbm::ScrambleKind::kXorFold;
                 const hbm::Device device(config);
                 const core::RowMap map = core::RowMap::from_device(device);
                 const auto logical = static_cast<std::uint32_t>(rng.below(map.rows()));
                 const std::uint32_t physical = map.logical_to_physical(logical);
                 if (map.physical_to_logical(physical) != logical) {
                   return "logical " + std::to_string(logical) + " -> physical " +
                          std::to_string(physical) + " -> logical " +
                          std::to_string(map.physical_to_logical(physical));
                 }
                 const hbm::RowScrambler reference(config.scramble, map.rows());
                 if (physical != reference.logical_to_physical(logical)) {
                   return "map disagrees with the decoder at logical " + std::to_string(logical);
                 }
                 return std::nullopt;
               }),
      /*seed=*/47, /*cases=*/200);
}

// --- Fault kernels vs the double-domain scans they replaced ---------------
//
// The oracle is a verbatim copy of the RowHammer reference scan, the
// retention loop, the row-minimum retention search and the power-on fill as
// they stood before the fault kernels moved to the integer domain: one
// SplitMix64 hash per bit per stream and approx_normal() compared against
// double thresholds. The kernels under test must match it flip for flip and
// byte for byte, with the fast kernel on (cached weak tail, LRU) and off
// (reference scan).
namespace legacy {

constexpr double kZMin = -3.4641016151377544;

struct RowHashBase {
  std::uint64_t base;

  RowHashBase(std::uint64_t master, fault::Stream s, const fault::BankContext& b,
              std::uint32_t row)
      : base(common::hash_combine(
            common::hash_combine(fault::stream_seed(master, s), b.flat_bank), row)) {}

  [[nodiscard]] std::uint64_t at(std::uint32_t bit) const {
    return common::hash_combine(base, bit);
  }
};

using ClassTable = std::array<std::array<std::array<std::array<double, 2>, 2>, 3>, 2>;

/// The batch's z threshold per [charged][k][intra][anti] class.
ClassTable z_table(const fault::RowHammerModel& model, const fault::BankContext& b,
                   std::uint32_t physical_row, double disturbance, double temperature_c) {
  const fault::FaultConfig& cfg = model.config();
  const double ln_d =
      std::log(disturbance * model.row_vulnerability(b, physical_row, temperature_c));
  ClassTable table{};
  for (int charged = 0; charged < 2; ++charged) {
    for (int k = 0; k < 3; ++k) {
      for (int intra = 0; intra < 2; ++intra) {
        for (int anti = 0; anti < 2; ++anti) {
          double coupling = charged != 0 ? cfg.coupling_base + k * cfg.coupling_opposite_aggressor
                                         : cfg.coupling_discharged;
          if (intra != 0) coupling *= cfg.intra_row_opposite_factor;
          if (anti != 0) coupling *= cfg.anti_cell_relative;
          table[static_cast<std::size_t>(charged)][static_cast<std::size_t>(k)]
               [static_cast<std::size_t>(intra)][static_cast<std::size_t>(anti)] =
                   (ln_d + std::log(coupling) - std::log(cfg.hc0)) / cfg.sigma_cell;
        }
      }
    }
  }
  return table;
}

/// The RowHammer reference scan. `strict` turns its `z <= zmax` into
/// `z < zmax` (a planted boundary bug; see the mutant below).
std::size_t rh_scan(const fault::RowHammerModel& model, const fault::BankContext& b,
                    std::uint32_t physical_row, std::span<std::uint8_t> data,
                    std::span<const std::uint8_t> above, std::span<const std::uint8_t> below,
                    double disturbance, double temperature_c) {
  if (disturbance <= 0.0) return 0;
  const fault::FaultConfig& cfg_ = model.config();
  const ClassTable z_table = legacy::z_table(model, b, physical_row, disturbance, temperature_c);
  if (z_table[1][2][0][0] < kZMin) return 0;
  const std::size_t n = data.size();
  std::size_t flips = 0;
  const RowHashBase z_hash(cfg_.seed, fault::Stream::kRowHammerZ, b, physical_row);
  const RowHashBase orient_hash(cfg_.seed, fault::Stream::kOrientation, b, physical_row);

  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t v = data[i];
    const std::uint8_t up = above.empty() ? v : above[i];
    const std::uint8_t dn = below.empty() ? v : below[i];
    // Same-row neighbour bits, including the cross-byte edges.
    const std::uint8_t prev_edge =
        i > 0 ? static_cast<std::uint8_t>((data[i - 1] >> 7) & 1u) : std::uint8_t{0xff};
    const std::uint8_t next_edge =
        i + 1 < n ? static_cast<std::uint8_t>(data[i + 1] & 1u) : std::uint8_t{0xff};

    std::uint8_t flipped = 0;
    for (std::uint32_t j = 0; j < 8; ++j) {
      const std::uint32_t bit = static_cast<std::uint32_t>(i) * 8 + j;
      const int vb = (v >> j) & 1;
      const int k = (((up >> j) & 1) != vb ? 1 : 0) + (((dn >> j) & 1) != vb ? 1 : 0);

      const int left = j > 0 ? ((v >> (j - 1)) & 1) : (prev_edge == 0xff ? vb : prev_edge);
      const int right = j < 7 ? ((v >> (j + 1)) & 1) : (next_edge == 0xff ? vb : next_edge);
      const int intra = (left != vb && right != vb) ? 1 : 0;

      const std::uint64_t ho = orient_hash.at(bit);
      const int anti = common::to_unit_double(ho) < cfg_.anti_cell_fraction ? 1 : 0;
      const int charged = (vb == (anti != 0 ? 0 : 1)) ? 1 : 0;

      const double zmax = z_table[static_cast<std::size_t>(charged)][static_cast<std::size_t>(k)]
                                 [static_cast<std::size_t>(intra)][static_cast<std::size_t>(anti)];
      if (zmax < kZMin) continue;
      const double z = common::approx_normal(z_hash.at(bit));
      if (z <= zmax) {
        flipped |= static_cast<std::uint8_t>(1u << j);
        ++flips;
      }
    }
    data[i] ^= flipped;
  }
  return flips;
}

double temp_scale(const fault::FaultConfig& cfg, double temperature_c) {
  return std::exp2((cfg.retention_ref_temp_c - temperature_c) / cfg.retention_temp_step_c);
}

double global_min_retention_s(const fault::FaultConfig& cfg, double temperature_c) {
  return cfg.retention_median_s * std::exp(cfg.retention_sigma * kZMin) *
         temp_scale(cfg, temperature_c);
}

std::size_t retention_apply(const fault::FaultConfig& cfg_, const fault::BankContext& b,
                            std::uint32_t physical_row, std::span<std::uint8_t> data,
                            double elapsed_s, double temperature_c) {
  if (elapsed_s <= 0.0) return 0;
  if (elapsed_s < global_min_retention_s(cfg_, temperature_c)) return 0;

  // A charged cell decays iff elapsed > t(cell), i.e. z_ret(cell) < z_max.
  const double z_max =
      std::log(elapsed_s / (cfg_.retention_median_s * temp_scale(cfg_, temperature_c))) /
      cfg_.retention_sigma;
  if (z_max < kZMin) return 0;

  const std::uint64_t z_base = common::hash_combine(
      common::hash_combine(fault::stream_seed(cfg_.seed, fault::Stream::kRetentionZ), b.flat_bank),
      physical_row);
  const std::uint64_t o_base = common::hash_combine(
      common::hash_combine(fault::stream_seed(cfg_.seed, fault::Stream::kOrientation),
                           b.flat_bank),
      physical_row);

  std::size_t flips = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::uint8_t flipped = 0;
    for (std::uint32_t j = 0; j < 8; ++j) {
      const std::uint32_t bit = static_cast<std::uint32_t>(i) * 8 + j;
      const int vb = (data[i] >> j) & 1;
      const int anti =
          common::to_unit_double(common::hash_combine(o_base, bit)) < cfg_.anti_cell_fraction ? 1
                                                                                              : 0;
      const int charged = (vb == (anti != 0 ? 0 : 1)) ? 1 : 0;
      if (charged == 0) continue;
      const double z = common::approx_normal(common::hash_combine(z_base, bit));
      if (z < z_max) {
        flipped |= static_cast<std::uint8_t>(1u << j);
        ++flips;
      }
    }
    data[i] ^= flipped;
  }
  return flips;
}

double cell_retention_s(const fault::FaultConfig& cfg_, const fault::BankContext& b,
                        std::uint32_t physical_row, std::uint32_t bit, double temperature_c) {
  const std::uint64_t h =
      fault::cell_hash(cfg_.seed, fault::Stream::kRetentionZ, b, physical_row, bit);
  return cfg_.retention_median_s * std::exp(cfg_.retention_sigma * common::approx_normal(h)) *
         temp_scale(cfg_, temperature_c);
}

double row_min_retention_s(const fault::FaultConfig& cfg, std::uint32_t bits,
                           const fault::BankContext& b, std::uint32_t physical_row,
                           double temperature_c) {
  double best = cell_retention_s(cfg, b, physical_row, 0, temperature_c);
  for (std::uint32_t bit = 1; bit < bits; ++bit) {
    best = std::min(best, cell_retention_s(cfg, b, physical_row, bit, temperature_c));
  }
  return best;
}

void fill_default_data(std::uint64_t master, const fault::BankContext& b,
                       std::uint32_t physical_row, std::span<std::uint8_t> out) {
  const std::uint64_t base = common::hash_combine(
      common::hash_combine(fault::stream_seed(master, fault::Stream::kDefaultData), b.flat_bank),
      physical_row);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(common::hash_combine(base, i) & 0xffu);
  }
}

}  // namespace legacy

/// An integer-domain RowHammer scan with one planted boundary bug: it flips
/// a cell when its lane sum is *below* the class cut, where the kernels
/// flip at or below it. The property must convict it.
std::size_t strict_cut_mutant(const fault::RowHammerModel& model, const fault::BankContext& b,
                              std::uint32_t physical_row, std::span<std::uint8_t> data,
                              std::span<const std::uint8_t> above,
                              std::span<const std::uint8_t> below, double disturbance,
                              double temperature_c) {
  if (disturbance <= 0.0) return 0;
  const fault::FaultConfig& cfg = model.config();
  const legacy::ClassTable z = legacy::z_table(model, b, physical_row, disturbance, temperature_c);
  if (z[1][2][0][0] < legacy::kZMin) return 0;
  const std::uint64_t z_base = fault::row_hash_base(cfg.seed, fault::Stream::kRowHammerZ, b,
                                                    physical_row);
  const std::uint64_t o_base = fault::row_hash_base(cfg.seed, fault::Stream::kOrientation, b,
                                                    physical_row);
  const std::uint64_t anti_below = common::unit_below(cfg.anti_cell_fraction);
  const std::size_t n = data.size();
  std::size_t flips = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t v = data[i];
    const std::uint8_t up = above.empty() ? v : above[i];
    const std::uint8_t dn = below.empty() ? v : below[i];
    const int prev_edge = i > 0 ? (data[i - 1] >> 7) & 1 : -1;
    const int next_edge = i + 1 < n ? data[i + 1] & 1 : -1;
    std::uint8_t flipped = 0;
    for (std::uint32_t j = 0; j < 8; ++j) {
      const std::uint64_t bit = i * 8 + j;
      const int vb = (v >> j) & 1;
      const int k = (((up >> j) & 1) != vb ? 1 : 0) + (((dn >> j) & 1) != vb ? 1 : 0);
      const int left = j > 0 ? (v >> (j - 1)) & 1 : (prev_edge < 0 ? vb : prev_edge);
      const int right = j < 7 ? (v >> (j + 1)) & 1 : (next_edge < 0 ? vb : next_edge);
      const int intra = (left != vb && right != vb) ? 1 : 0;
      const int anti = (common::hash_combine(o_base, bit) >> 11) < anti_below ? 1 : 0;
      const int charged = (vb == (anti != 0 ? 0 : 1)) ? 1 : 0;
      const std::int32_t cut = common::sum_at_most(
          z[static_cast<std::size_t>(charged)][static_cast<std::size_t>(k)]
           [static_cast<std::size_t>(intra)][static_cast<std::size_t>(anti)]);
      if (common::lane_sum(common::hash_combine(z_base, bit)) < cut) {  // the kernels use <=
        flipped |= static_cast<std::uint8_t>(1u << j);
        ++flips;
      }
    }
    data[i] ^= flipped;
  }
  return flips;
}

/// One chip's fault models: the fast kernel on and off, and retention.
struct KernelRig {
  explicit KernelRig(std::uint64_t seed)
      : cfg([seed] {
          fault::FaultConfig c;
          c.seed = seed;
          return c;
        }()),
        layout(hbm::SubarrayLayout::paper_layout(geometry.rows_per_bank)),
        variation(cfg, geometry),
        fast(cfg, geometry, layout, variation),
        reference(cfg, geometry, layout, variation),
        retention(cfg, geometry) {
    fast.set_fast_kernel(true);
  }

  fault::FaultConfig cfg;
  hbm::Geometry geometry = hbm::paper_geometry();
  hbm::SubarrayLayout layout;
  fault::ProcessVariation variation;
  fault::RowHammerModel fast;
  fault::RowHammerModel reference;
  fault::RetentionModel retention;
  /// (bank, row) pairs sensed so far; revisited to hit, and after more
  /// than 512 distinct rows to rebuild, cached entries.
  std::vector<std::pair<hbm::BankAddress, std::uint32_t>> history;
};

using RhKernel = std::function<std::size_t(
    const fault::RowHammerModel&, const fault::BankContext&, std::uint32_t,
    std::span<std::uint8_t>, std::span<const std::uint8_t>, std::span<const std::uint8_t>,
    double, double)>;

std::vector<std::uint8_t> random_image(common::Xoshiro256& rng, std::size_t bytes) {
  static constexpr std::uint8_t kFills[] = {0x00, 0xff, 0x55, 0xaa, 0x33};
  std::vector<std::uint8_t> image(bytes);
  const std::uint64_t kind = rng.below(std::size(kFills) + 2);
  for (auto& byte : image) {
    byte = kind < std::size(kFills) ? kFills[kind]
                                    : static_cast<std::uint8_t>(rng.below(kind == 5 ? 256 : 2) *
                                                                (kind == 5 ? 1 : 0xff));
  }
  return image;
}

double log_uniform(common::Xoshiro256& rng, double lo, double hi) {
  return std::exp(std::log(lo) + rng.uniform() * (std::log(hi) - std::log(lo)));
}

std::string where(const char* what, const hbm::BankAddress& a, std::uint32_t row, double x) {
  std::ostringstream out;
  out << what << " ch" << a.channel << " pc" << a.pseudo_channel << " bank" << a.bank << " row "
      << row << " at " << x;
  return out.str();
}

/// One fuzzed case: RowHammer settles of one row under `kernel` (and under
/// the reference scan), retention decay, the row's minimum retention and
/// its power-on image, each against the legacy oracle.
std::optional<std::string> kernel_case(common::Xoshiro256& rng, KernelRig& rig,
                                       const RhKernel& kernel) {
  const hbm::Geometry& g = rig.geometry;
  hbm::BankAddress address{static_cast<std::uint32_t>(rng.below(g.channels)),
                           static_cast<std::uint32_t>(rng.below(g.pseudo_channels_per_channel)),
                           static_cast<std::uint32_t>(rng.below(g.banks_per_pseudo_channel))};
  std::uint32_t row = static_cast<std::uint32_t>(rng.below(g.rows_per_bank));
  if (!rig.history.empty() && rng.below(4) == 0) {
    std::tie(address, row) = rig.history[rng.below(rig.history.size())];
  } else {
    rig.history.emplace_back(address, row);
  }
  const auto b = fault::BankContext::from(g, address);
  const std::size_t bytes = g.row_bytes();
  const double temperature_c = 45.0 + 50.0 * rng.uniform();

  // RowHammer: 1-3 settles of the same images with growing disturbance,
  // from below the global bound to past the cached tier.
  std::vector<std::uint8_t> oracle = random_image(rng, bytes);
  std::vector<std::uint8_t> cached = oracle;
  std::vector<std::uint8_t> scanned = oracle;
  // An empty neighbour is the bank (or subarray) edge.
  const std::vector<std::uint8_t> above =
      rng.below(5) == 0 ? std::vector<std::uint8_t>{} : random_image(rng, bytes);
  const std::vector<std::uint8_t> below =
      rng.below(5) == 0 ? std::vector<std::uint8_t>{} : random_image(rng, bytes);
  double disturbance = log_uniform(rng, 0.5 * rig.fast.global_min_disturbance(), 4e7);
  const std::uint64_t settles = 1 + rng.below(3);
  for (std::uint64_t s = 0; s < settles; ++s) {
    const std::size_t want =
        legacy::rh_scan(rig.fast, b, row, oracle, above, below, disturbance, temperature_c);
    const std::size_t got =
        kernel(rig.fast, b, row, cached, above, below, disturbance, temperature_c);
    const std::size_t ref = rig.reference.apply(b, row, scanned, above, below, disturbance,
                                                temperature_c);
    if (got != want || cached != oracle) {
      return where("rowhammer (fast kernel)", address, row, disturbance) + ": " +
             std::to_string(got) + " flips vs legacy " + std::to_string(want);
    }
    if (ref != want || scanned != oracle) {
      return where("rowhammer (reference scan)", address, row, disturbance) + ": " +
             std::to_string(ref) + " flips vs legacy " + std::to_string(want);
    }
    disturbance *= 1.0 + 3.0 * rng.uniform();
  }

  // Retention: two decays of one image, from below the global minimum
  // retention to several seconds.
  std::vector<std::uint8_t> decayed = random_image(rng, bytes);
  std::vector<std::uint8_t> decayed_oracle = decayed;
  double elapsed_s =
      log_uniform(rng, 0.5 * rig.retention.global_min_retention_s(temperature_c), 5.0);
  for (int step = 0; step < 2; ++step) {
    const std::size_t want =
        legacy::retention_apply(rig.cfg, b, row, decayed_oracle, elapsed_s, temperature_c);
    const std::size_t got = rig.retention.apply(b, row, decayed, elapsed_s, temperature_c);
    if (got != want || decayed != decayed_oracle) {
      return where("retention", address, row, elapsed_s) + ": " + std::to_string(got) +
             " flips vs legacy " + std::to_string(want);
    }
    elapsed_s *= 1.0 + rng.uniform();
  }

  if (rng.below(8) == 0) {
    const double want = legacy::row_min_retention_s(rig.cfg, g.row_bits(), b, row, temperature_c);
    const double got = rig.retention.row_min_retention_s(b, row, temperature_c);
    if (got != want) return where("row_min_retention_s", address, row, temperature_c);
  }

  // Power-on data, including a span that is not a whole number of blocks.
  const std::size_t fill_bytes = rng.below(2) == 0 ? bytes : 1 + rng.below(200);
  std::vector<std::uint8_t> filled(fill_bytes), filled_oracle(fill_bytes);
  fault::fill_default_data(rig.cfg.seed, b, row, filled);
  legacy::fill_default_data(rig.cfg.seed, b, row, filled_oracle);
  if (filled != filled_oracle) return where("fill_default_data", address, row, 0.0);
  return std::nullopt;
}

Property fault_kernel_property(std::vector<std::unique_ptr<KernelRig>>& rigs, RhKernel kernel) {
  return Property("fault kernels == legacy double-domain scans",
                  [&rigs, kernel](common::Xoshiro256& rng) {
                    return kernel_case(rng, *rigs[rng.below(rigs.size())], kernel);
                  });
}

std::vector<std::unique_ptr<KernelRig>> kernel_rigs() {
  std::vector<std::unique_ptr<KernelRig>> rigs;
  for (const std::uint64_t seed : {0x5AFA2123ULL, 0x5AFA2124ULL}) {
    rigs.push_back(std::make_unique<KernelRig>(seed));
  }
  return rigs;
}

TEST(VerifyProperties, FaultKernelsMatchTheLegacyDoubleDomainScans) {
  auto rigs = kernel_rigs();
  const RhKernel model_apply = [](const fault::RowHammerModel& model, const fault::BankContext& b,
                                  std::uint32_t row, std::span<std::uint8_t> data,
                                  std::span<const std::uint8_t> above,
                                  std::span<const std::uint8_t> below, double disturbance,
                                  double temperature_c) {
    return model.apply(b, row, data, above, below, disturbance, temperature_c);
  };
  // ~675 new rows per rig: past the cache's 512 entries, so revisits also
  // rebuild evicted rows.
  expect_passes(fault_kernel_property(rigs, model_apply), /*seed=*/71, /*cases=*/1800);
  for (const auto& rig : rigs) EXPECT_GT(rig->history.size(), 600u);
}

TEST(VerifyProperties, FaultKernelPropertyConvictsAStrictCutMutant) {
  auto rigs = kernel_rigs();
  const PropertyOutcome outcome =
      fault_kernel_property(rigs, strict_cut_mutant).run(/*seed=*/71, /*cases=*/1800);
  EXPECT_FALSE(outcome.passed) << "a `<` where the kernels use `<=` went unnoticed";
}

TEST(VerifyProperties, FaultKernelsFlipTheWeakestCellAtAnExactCut) {
  // Random disturbances almost never put a batch's cut exactly on a row's
  // weakest cell, so pin that boundary directly: Rowstripe0 (victim 0x00,
  // aggressors 0xff) makes an anti cell's class the most permissive one,
  // and the disturbance below sets that class's cut to the row's smallest
  // lane sum. The cell must flip, cold and warm, as it does in the legacy
  // scan.
  KernelRig rig(0x5AFA2123ULL);
  const hbm::Geometry& g = rig.geometry;
  const fault::FaultConfig& cfg = rig.cfg;
  const auto b = fault::BankContext::from(g, hbm::BankAddress{3, 1, 7});
  const std::vector<std::uint8_t> aggressor(g.row_bytes(), 0xff);
  int rows_checked = 0;
  for (std::uint32_t row = 200; row < 260; ++row) {
    std::int32_t s_min = common::kLaneSumMax + 1;
    std::uint32_t weakest = 0;
    for (std::uint32_t bit = 0; bit < g.row_bits(); ++bit) {
      const std::int32_t sum =
          common::lane_sum(fault::cell_hash(cfg.seed, fault::Stream::kRowHammerZ, b, row, bit));
      if (sum < s_min) {
        s_min = sum;
        weakest = bit;
      }
    }
    if (!fault::is_anti_cell(cfg.seed, b, row, weakest, cfg.anti_cell_fraction)) continue;
    // Midway between the weakest z and the next lane sum's z.
    const double z = 0.5 * (common::z_of_sum(s_min) + common::z_of_sum(s_min + 1));
    const double coupling = (cfg.coupling_base + 2 * cfg.coupling_opposite_aggressor) *
                            cfg.anti_cell_relative;
    const double disturbance =
        std::exp(z * cfg.sigma_cell + std::log(cfg.hc0) - std::log(coupling)) /
        rig.fast.row_vulnerability(b, row, 85.0);
    const legacy::ClassTable table = legacy::z_table(rig.fast, b, row, disturbance, 85.0);
    ASSERT_EQ(common::sum_at_most(table[1][2][0][1]), s_min) << "row " << row;
    if (table[1][2][0][0] < legacy::kZMin) continue;  // the batch is rejected outright
    std::vector<std::uint8_t> oracle(g.row_bytes(), 0x00);
    const std::size_t want =
        legacy::rh_scan(rig.fast, b, row, oracle, aggressor, aggressor, disturbance, 85.0);
    ASSERT_GE(want, 1u) << "row " << row;
    for (const fault::RowHammerModel* model : {&rig.fast, &rig.fast, &rig.reference}) {
      std::vector<std::uint8_t> data(g.row_bytes(), 0x00);
      EXPECT_EQ(model->apply(b, row, data, aggressor, aggressor, disturbance, 85.0), want)
          << "row " << row;
      EXPECT_EQ(data, oracle) << "row " << row;
    }
    ++rows_checked;
  }
  EXPECT_GE(rows_checked, 10);
}

TEST(VerifyProperties, EccCorrectsExactlyTheSingleErrorWords) {
  expect_passes(
      Property("on-die ECC read-path invariants",
               [](common::Xoshiro256& rng) -> std::optional<std::string> {
                 constexpr std::size_t kWords = 8;
                 std::array<std::uint8_t, kWords * 8> written{};
                 for (auto& b : written) b = static_cast<std::uint8_t>(rng.below(256));
                 auto raw = written;
                 // Plant 0..3 bit errors per word; remember each word's count.
                 std::array<std::size_t, kWords> errors{};
                 for (std::size_t w = 0; w < kWords; ++w) {
                   errors[w] = rng.below(4);
                   for (std::size_t e = 0; e < errors[w]; ++e) {
                     // Error e lands in its own 16-bit lane of the 64-bit
                     // word: distinct positions, so flips never cancel.
                     const std::size_t bit = 16 * e + rng.below(16);
                     raw[w * 8 + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
                   }
                 }
                 auto out = raw;
                 const std::size_t corrected = hbm::ecc_correct_read(out, written);
                 std::size_t expected_corrected = 0;
                 for (std::size_t w = 0; w < kWords; ++w) {
                   const std::span<const std::uint8_t> out_w(out.data() + w * 8, 8);
                   const std::span<const std::uint8_t> raw_w(raw.data() + w * 8, 8);
                   const std::span<const std::uint8_t> wrote_w(written.data() + w * 8, 8);
                   if (errors[w] == 1) {
                     ++expected_corrected;
                     if (hbm::popcount_diff(out_w, wrote_w) != 0) {
                       return "word " + std::to_string(w) + ": single error not corrected";
                     }
                   } else if (hbm::popcount_diff(out_w, raw_w) != 0) {
                     return "word " + std::to_string(w) + ": " + std::to_string(errors[w]) +
                            "-error word was altered";
                   }
                 }
                 if (corrected != expected_corrected) {
                   return "corrected " + std::to_string(corrected) + " words, expected " +
                          std::to_string(expected_corrected);
                 }
                 return std::nullopt;
               }),
      /*seed=*/59, /*cases=*/500);
}

TEST(VerifyProperties, FrameworkReportsTheFailingCaseAndStops) {
  std::size_t bodies_run = 0;
  const Property property("fails on case 3", [&bodies_run](common::Xoshiro256&) {
    ++bodies_run;
    return bodies_run == 4 ? std::optional<std::string>("boom") : std::nullopt;
  });
  const PropertyOutcome outcome = property.run(1, 10);
  EXPECT_FALSE(outcome.passed);
  EXPECT_EQ(outcome.failing_case, 3u);
  EXPECT_EQ(outcome.counterexample, "boom");
  EXPECT_EQ(bodies_run, 4u);  // stopped at the first counterexample

  bodies_run = 0;
  std::ostringstream log;
  EXPECT_FALSE(check_properties({property}, 1, 10, log));
  EXPECT_NE(log.str().find("FAIL fails on case 3 case 3: boom"), std::string::npos);
}

TEST(VerifyProperties, CasesAreIndependentlySeeded) {
  // Case i's RNG derives from hash_coords(seed, i): re-running a failing
  // case index in isolation must reproduce the same stream.
  std::vector<std::uint64_t> first;
  const Property collect("collect", [&first](common::Xoshiro256& rng) {
    first.push_back(rng());
    return std::optional<std::string>{};
  });
  (void)collect.run(9, 5);
  const auto all = first;
  first.clear();
  (void)collect.run(9, 5);
  EXPECT_EQ(first, all);
  // Distinct cases see distinct streams.
  EXPECT_NE(all[0], all[1]);
}

}  // namespace
}  // namespace rh::verify
