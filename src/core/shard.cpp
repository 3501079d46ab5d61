#include "core/shard.hpp"

#include "common/assert.hpp"
#include "core/spatial.hpp"

namespace rh::core {

std::vector<RowRecord> run_shard(Characterizer& characterizer, const ShardSpec& shard) {
  RH_EXPECTS(shard.row_stride >= 1);
  RH_EXPECTS(shard.mode != ShardMode::kSinglePattern || shard.pattern < kAllPatterns.size());
  std::vector<RowRecord> records;
  records.reserve(shard.sampled_rows());
  for (std::uint32_t row = shard.row_begin; row < shard.row_end; row += shard.row_stride) {
    switch (shard.mode) {
      case ShardMode::kFullRow:
        records.push_back(characterizer.characterize_row(shard.site, row));
        break;
      case ShardMode::kBerOnly:
        records.push_back(characterize_row_ber_only(characterizer, shard.site, row));
        break;
      case ShardMode::kSinglePattern: {
        RowRecord rec;
        rec.site = shard.site;
        rec.physical_row = row;
        const auto pattern = kAllPatterns[shard.pattern];
        rec.ber[shard.pattern] =
            characterizer.measure_ber(shard.site, row, pattern, shard.hammers);
        rec.wcdp = pattern;
        records.push_back(rec);
        break;
      }
    }
  }
  return records;
}

std::vector<ShardSpec> plan_survey_shards(const SurveyConfig& config,
                                          const hbm::Geometry& geometry,
                                          std::uint32_t max_rows_per_shard) {
  RH_EXPECTS(!config.channels.empty());
  RH_EXPECTS(config.row_stride >= 1);
  RH_EXPECTS(max_rows_per_shard >= 1);
  const auto regions = paper_regions(geometry, config.region_rows);
  const std::uint32_t span = max_rows_per_shard * config.row_stride;

  std::vector<ShardSpec> shards;
  for (const std::uint32_t channel : config.channels) {
    const Site site{channel, config.pseudo_channel, config.bank};
    for (const auto& region : regions) {
      const std::uint32_t region_end = region.first_row + region.rows;
      for (std::uint32_t begin = region.first_row; begin < region_end; begin += span) {
        ShardSpec shard;
        shard.index = shards.size();
        shard.site = site;
        shard.row_begin = begin;
        shard.row_end = std::min(region_end, begin + span);
        shard.row_stride = config.row_stride;
        shard.mode = config.wcdp_by_ber ? ShardMode::kBerOnly : ShardMode::kFullRow;
        shards.push_back(shard);
      }
    }
  }
  return shards;
}

std::vector<ShardSpec> plan_bank_shards(const SurveyConfig& config,
                                        const hbm::Geometry& geometry) {
  SurveyConfig site = config;
  std::vector<ShardSpec> shards;
  for (const std::uint32_t channel : config.channels) {
    site.channels = {channel};
    for (site.pseudo_channel = 0; site.pseudo_channel < geometry.pseudo_channels_per_channel;
         ++site.pseudo_channel) {
      for (site.bank = 0; site.bank < geometry.banks_per_pseudo_channel; ++site.bank) {
        // A region never samples more than region_rows rows: one shard each.
        for (ShardSpec shard : plan_survey_shards(site, geometry, config.region_rows)) {
          shard.index = shards.size();
          shards.push_back(shard);
        }
      }
    }
  }
  return shards;
}

std::vector<ShardSpec> plan_onset_shards(const std::vector<std::uint64_t>& hammer_counts,
                                         const std::vector<std::uint32_t>& channels,
                                         const ShardSpec& rows) {
  std::vector<ShardSpec> shards;
  for (const std::uint64_t hammers : hammer_counts) {
    for (const std::uint32_t channel : channels) {
      ShardSpec shard = rows;
      shard.index = shards.size();
      shard.site.channel = channel;
      shard.mode = ShardMode::kSinglePattern;
      shard.hammers = hammers;
      shards.push_back(shard);
    }
  }
  return shards;
}

}  // namespace rh::core
