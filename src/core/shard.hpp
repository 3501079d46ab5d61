// Deterministic work units for experiment campaigns.
//
// A ShardSpec names a contiguous slice of a characterization sweep — one
// site, a physical-row range sampled at a stride, and a measurement mode.
// Shards are the unit of scheduling, journaling, and retry for the campaign
// runner (src/campaign): because the fault model is a pure function of
// (seed, coordinates) and every per-row test re-initializes its own
// neighbourhood, running disjoint shards on independently constructed
// devices with the same seed is bitwise-equivalent to the serial sweep.
//
// SpatialSurvey::survey_rows() iterates the exact same plan serially, so the
// serial and campaign paths share one source of truth for iteration order.
#pragma once

#include <cstdint>
#include <vector>

#include "core/characterizer.hpp"
#include "core/site.hpp"
#include "hbm/geometry.hpp"

namespace rh::core {

struct SurveyConfig;  // core/spatial.hpp

/// What a shard measures per sampled row.
enum class ShardMode : std::uint8_t {
  /// Full paper methodology: BER + HC_first per pattern, WCDP selection.
  kFullRow = 0,
  /// BER for the four Table 1 patterns, WCDP by largest BER (fast proxy).
  kBerOnly = 1,
  /// One measure_ber call for `pattern` at `hammers` (onset-curve sweeps).
  kSinglePattern = 2,
};

/// One deterministic unit of campaign work: rows [row_begin, row_end) of
/// `site`, sampled every `row_stride`, measured per `mode`. `index` is the
/// shard's position in the plan; merged results are ordered by it.
struct ShardSpec {
  std::uint64_t index = 0;
  Site site;
  std::uint32_t row_begin = 0;
  std::uint32_t row_end = 0;  ///< exclusive
  std::uint32_t row_stride = 1;
  ShardMode mode = ShardMode::kFullRow;
  /// kSinglePattern only: pattern index into kAllPatterns.
  std::uint8_t pattern = 0;
  /// kSinglePattern only: hammer count (0 = the characterizer's ber_hammers).
  std::uint64_t hammers = 0;

  /// Rows this shard samples.
  [[nodiscard]] std::size_t sampled_rows() const {
    if (row_end <= row_begin) return 0;
    return (row_end - row_begin + row_stride - 1) / row_stride;
  }
};

/// Executes one shard on a characterizer. Every row is measured exactly the
/// way the serial survey measures it; the output order is row order.
[[nodiscard]] std::vector<RowRecord> run_shard(Characterizer& characterizer,
                                               const ShardSpec& shard);

/// Decomposes a SpatialSurvey row sweep into shards, in the serial survey's
/// iteration order (channel, then region, then row). Regions are split so no
/// shard samples more than `max_rows_per_shard` rows, which bounds the
/// checkpoint/retry granularity. Concatenating run_shard results in index
/// order reproduces SpatialSurvey::survey_rows() exactly.
[[nodiscard]] std::vector<ShardSpec> plan_survey_shards(const SurveyConfig& config,
                                                        const hbm::Geometry& geometry,
                                                        std::uint32_t max_rows_per_shard = 64);

/// Fig. 6's bank scan: one shard per (channel, pseudo channel, bank, region)
/// of `config.channels`, in that order, each region sampled per `config`.
/// aggregate_banks over the merged records gives the per-bank points.
[[nodiscard]] std::vector<ShardSpec> plan_bank_shards(const SurveyConfig& config,
                                                      const hbm::Geometry& geometry);

/// The onset curve: one kSinglePattern shard per (hammer count, channel),
/// count-major. Each copies `rows` — its pseudo channel, bank, row range,
/// stride and pattern — with the channel and hammer count filled in.
[[nodiscard]] std::vector<ShardSpec> plan_onset_shards(
    const std::vector<std::uint64_t>& hammer_counts, const std::vector<std::uint32_t>& channels,
    const ShardSpec& rows);

}  // namespace rh::core
