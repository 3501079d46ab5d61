#include "core/bitflip_analysis.hpp"

#include <algorithm>

#include "bender/program.hpp"
#include "common/assert.hpp"
#include "core/test_program.hpp"

namespace rh::core {

BitflipAnalyzer::BitflipAnalyzer(bender::BenderHost& host, const RowMap& map)
    : host_(&host), map_(&map) {}

RowFlipProfile BitflipAnalyzer::profile_row(const Site& site, std::uint32_t physical_row,
                                            DataPattern pattern, std::uint64_t hammers) {
  const auto& geometry = host_->device().geometry();
  RH_EXPECTS(physical_row >= 1 && physical_row + 1 < geometry.rows_per_bank);
  const auto bank = static_cast<std::uint8_t>(site.bank);

  bender::ProgramBuilder b(geometry, host_->device().timings());
  raw_flip_prologue(b, victim_byte(pattern), aggressor_byte(pattern));
  init_neighbourhood(b, *map_, bank, physical_row, 2);
  b.ldi(0, map_->physical_to_logical(physical_row - 1));
  b.ldi(1, map_->physical_to_logical(physical_row + 1));
  b.hammer(bank, 0, 1, static_cast<std::int64_t>(hammers));
  b.read_row(bank, map_->physical_to_logical(physical_row));

  const auto result = host_->run(b.take(), site.channel, site.pseudo_channel);

  RowFlipProfile profile;
  profile.site = site;
  profile.physical_row = physical_row;
  profile.pattern = pattern;
  profile.flips_per_column.assign(geometry.columns_per_row, 0);

  const std::uint8_t expected = victim_byte(pattern);
  for (std::size_t i = 0; i < result.readback.size(); ++i) {
    const std::uint8_t got = result.readback[i];
    const auto diff = static_cast<std::uint8_t>(got ^ expected);
    if (diff == 0) continue;
    const auto column = static_cast<std::uint32_t>(i / geometry.bytes_per_column);
    for (std::uint32_t j = 0; j < 8; ++j) {
      if (((diff >> j) & 1) == 0) continue;
      const auto bit = static_cast<std::uint32_t>(i) * 8 + j;
      profile.flipped_bits.push_back(bit);
      ++profile.flips_per_column[column];
      if ((expected >> j) & 1) {
        ++profile.directions.one_to_zero;
      } else {
        ++profile.directions.zero_to_one;
      }
    }
  }
  return profile;
}

double BitflipAnalyzer::repeatability(const Site& site, std::uint32_t physical_row,
                                      DataPattern pattern, std::uint64_t hammers) {
  const auto first = profile_row(site, physical_row, pattern, hammers);
  const auto second = profile_row(site, physical_row, pattern, hammers);
  if (first.flipped_bits.empty()) return 1.0;
  std::size_t again = 0;
  for (const auto bit : first.flipped_bits) {
    if (std::binary_search(second.flipped_bits.begin(), second.flipped_bits.end(), bit)) ++again;
  }
  return static_cast<double>(again) / static_cast<double>(first.flipped_bits.size());
}

FlipDirectionStats BitflipAnalyzer::direction_census(const Site& site, std::uint32_t first_row,
                                                     std::uint32_t rows, std::uint32_t stride,
                                                     DataPattern pattern,
                                                     std::uint64_t hammers) {
  RH_EXPECTS(stride >= 1);
  FlipDirectionStats census;
  for (std::uint32_t i = 0; i < rows; ++i) {
    const auto profile = profile_row(site, first_row + i * stride, pattern, hammers);
    census.zero_to_one += profile.directions.zero_to_one;
    census.one_to_zero += profile.directions.one_to_zero;
  }
  return census;
}

}  // namespace rh::core
