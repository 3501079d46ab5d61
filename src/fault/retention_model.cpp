#include "fault/retention_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/assert.hpp"
#include "fault/cell_traits.hpp"
#include "fault/row_pass.hpp"

namespace rh::fault {

static_assert(std::endian::native == std::endian::little,
              "apply() reads row bytes as little-endian 64-bit words");

RetentionModel::RetentionModel(const FaultConfig& cfg, const hbm::Geometry& geometry)
    : cfg_(cfg),
      geometry_(geometry),
      anti_below_(common::unit_below(cfg.anti_cell_fraction)) {
  RH_EXPECTS(cfg_.retention_median_s > 0 && cfg_.retention_sigma > 0);
}

double RetentionModel::temp_scale(double temperature_c) const {
  // Retention halves every +retention_temp_step_c above the reference.
  return std::exp2((cfg_.retention_ref_temp_c - temperature_c) / cfg_.retention_temp_step_c);
}

double RetentionModel::retention_of_z(double z, double temperature_c) const {
  return cfg_.retention_median_s * std::exp(cfg_.retention_sigma * z) * temp_scale(temperature_c);
}

double RetentionModel::cell_retention_s(const BankContext& b, std::uint32_t physical_row,
                                        std::uint32_t bit, double temperature_c) const {
  const std::uint64_t h = cell_hash(cfg_.seed, Stream::kRetentionZ, b, physical_row, bit);
  return retention_of_z(common::approx_normal(h), temperature_c);
}

double RetentionModel::row_min_retention_s(const BankContext& b, std::uint32_t physical_row,
                                           double temperature_c) const {
  // Retention grows with z, and z with the lane sum, so the row's shortest
  // retention is the one of its smallest lane sum.
  const std::uint64_t base = row_hash_base(cfg_.seed, Stream::kRetentionZ, b, physical_row);
  const std::uint32_t bits = geometry_.row_bits();
  std::int32_t sums[row_pass::kBlock];
  std::int32_t s_min = common::kLaneSumMax;
  for (std::uint32_t first = 0; first < bits; first += row_pass::kBlock) {
    (void)row_pass::block_sums(base, first, 0, sums);
    const std::uint32_t n = std::min(row_pass::kBlock, bits - first);
    s_min = std::min(s_min, *std::min_element(sums, sums + n));
  }
  return retention_of_z(common::z_of_sum(s_min), temperature_c);
}

double RetentionModel::global_min_retention_s(double temperature_c) const {
  return retention_of_z(common::kZMin, temperature_c);
}

std::size_t RetentionModel::apply(const BankContext& b, std::uint32_t physical_row,
                                  std::span<std::uint8_t> data, double elapsed_s,
                                  double temperature_c) const {
  RH_EXPECTS(data.size() == geometry_.row_bytes());
  if (elapsed_s <= 0.0) return 0;
  if (elapsed_s < global_min_retention_s(temperature_c)) return 0;

  // A charged cell decays iff elapsed > t(cell), i.e. z_ret(cell) < z_max,
  // i.e. its lane sum is below s_max.
  const double z_max =
      std::log(elapsed_s / (cfg_.retention_median_s * temp_scale(temperature_c))) /
      cfg_.retention_sigma;
  const std::int32_t s_max = common::sum_below(z_max);
  if (s_max == 0) return 0;

  const std::uint64_t z_base = row_hash_base(cfg_.seed, Stream::kRetentionZ, b, physical_row);
  const std::uint64_t o_base = row_hash_base(cfg_.seed, Stream::kOrientation, b, physical_row);

  // Word by word: weak cells (lane sum below s_max) that are charged decay
  // to their discharged value. A true cell is charged when it stores 1 and
  // an anti cell when it stores 0, so the charged cells are data ^ anti.
  const std::size_t bytes = data.size();
  std::int32_t sums[row_pass::kBlock];
  std::size_t flips = 0;
  for (std::size_t first_byte = 0; first_byte < bytes; first_byte += 8) {
    const std::size_t n = std::min<std::size_t>(8, bytes - first_byte);
    const std::uint64_t first = first_byte * 8;
    std::uint64_t weak = row_pass::block_sums(z_base, first, s_max, sums);
    if (n < 8) weak &= (1ULL << (8 * n)) - 1;
    if (weak == 0) continue;
    const std::uint64_t anti = row_pass::block_anti(o_base, first, anti_below_);
    std::uint64_t word = 0;
    std::memcpy(&word, data.data() + first_byte, n);
    const std::uint64_t decayed = (word ^ anti) & weak;
    word ^= decayed;
    std::memcpy(data.data() + first_byte, &word, n);
    flips += static_cast<std::size_t>(std::popcount(decayed));
  }
  return flips;
}

}  // namespace rh::fault
