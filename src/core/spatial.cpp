#include "core/spatial.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "core/shard.hpp"

namespace rh::core {

std::vector<RegionSpec> paper_regions(const hbm::Geometry& geometry, std::uint32_t region_rows) {
  RH_EXPECTS(region_rows > 0 && region_rows * 2 <= geometry.rows_per_bank);
  const std::uint32_t middle_first = (geometry.rows_per_bank - region_rows) / 2;
  return {
      {"first", 0, region_rows},
      {"middle", middle_first, region_rows},
      {"last", geometry.rows_per_bank - region_rows, region_rows},
  };
}

SpatialSurvey::SpatialSurvey(bender::BenderHost& host, SurveyConfig config)
    : host_(&host), config_(std::move(config)) {
  RH_EXPECTS(!config_.channels.empty());
  RH_EXPECTS(config_.row_stride >= 1);
}

RowRecord characterize_row_ber_only(Characterizer& chr, const Site& site, std::uint32_t row) {
  RowRecord rec;
  rec.site = site;
  rec.physical_row = row;
  for (std::size_t i = 0; i < kAllPatterns.size(); ++i) {
    rec.ber[i] = chr.measure_ber(site, row, kAllPatterns[i]);
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < kAllPatterns.size(); ++i) {
    if (rec.ber[i].bit_errors > rec.ber[best].bit_errors) best = i;
  }
  rec.wcdp = kAllPatterns[best];
  return rec;
}

std::vector<RowRecord> SpatialSurvey::survey_rows() {
  // The serial path iterates the same shard plan the campaign runner
  // distributes across workers, so both produce identical records in
  // identical order (src/campaign depends on this equivalence).
  const auto shards = plan_survey_shards(config_, host_->device().geometry());
  const RowMap map = RowMap::from_device(host_->device());
  Characterizer chr(*host_, map, config_.characterizer);

  std::vector<RowRecord> records;
  for (const auto& shard : shards) {
    auto shard_records = run_shard(chr, shard);
    records.insert(records.end(), std::make_move_iterator(shard_records.begin()),
                   std::make_move_iterator(shard_records.end()));
  }
  return records;
}

std::string pattern_label(std::size_t pattern_index) {
  if (pattern_index < kAllPatterns.size()) {
    return std::string(to_string(kAllPatterns[pattern_index]));
  }
  return "WCDP";
}

namespace {

template <typename Extract>
std::vector<ChannelPatternStats> aggregate(const std::vector<RowRecord>& records,
                                           Extract&& extract) {
  std::vector<std::uint32_t> channels;
  for (const auto& rec : records) {
    if (std::find(channels.begin(), channels.end(), rec.site.channel) == channels.end()) {
      channels.push_back(rec.site.channel);
    }
  }
  std::sort(channels.begin(), channels.end());

  std::vector<ChannelPatternStats> out;
  for (const std::uint32_t channel : channels) {
    for (std::size_t pattern = 0; pattern <= kWcdpPatternIndex; ++pattern) {
      std::vector<double> values;
      for (const auto& rec : records) {
        if (rec.site.channel != channel) continue;
        extract(rec, pattern, values);
      }
      ChannelPatternStats s;
      s.channel = channel;
      s.pattern = pattern;
      s.stats = common::box_stats(values);
      out.push_back(s);
    }
  }
  return out;
}

}  // namespace

std::vector<ChannelPatternStats> aggregate_ber(const std::vector<RowRecord>& records) {
  return aggregate(records,
                   [](const RowRecord& rec, std::size_t pattern, std::vector<double>& values) {
                     if (pattern < kAllPatterns.size()) {
                       values.push_back(rec.ber[pattern].ber());
                     } else {
                       values.push_back(rec.wcdp_ber().ber());
                     }
                   });
}

std::vector<ChannelPatternStats> aggregate_hc_first(const std::vector<RowRecord>& records) {
  return aggregate(records,
                   [](const RowRecord& rec, std::size_t pattern, std::vector<double>& values) {
                     if (pattern < kAllPatterns.size()) {
                       if (rec.hc_first[pattern]) {
                         values.push_back(static_cast<double>(*rec.hc_first[pattern]));
                       }
                     } else if (const auto hc = rec.hc_first[static_cast<std::size_t>(rec.wcdp)]) {
                       values.push_back(static_cast<double>(*hc));
                     }
                   });
}

std::vector<BankPoint> aggregate_banks(const std::vector<RowRecord>& records) {
  std::vector<std::pair<Site, std::vector<double>>> banks;  // WCDP BERs per site
  for (const auto& rec : records) {
    auto it = std::find_if(banks.begin(), banks.end(),
                           [&](const auto& bank) { return bank.first == rec.site; });
    if (it == banks.end()) it = banks.insert(banks.end(), {rec.site, {}});
    it->second.push_back(rec.wcdp_ber().ber());
  }
  std::vector<BankPoint> points;
  for (const auto& [site, bers] : banks) {
    points.push_back(
        {site, common::mean(bers), common::coefficient_of_variation(bers), bers.size()});
  }
  return points;
}

}  // namespace rh::core
