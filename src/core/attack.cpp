#include "core/attack.hpp"

#include "bender/program.hpp"
#include "common/assert.hpp"
#include "core/test_program.hpp"

namespace rh::core {

AttackResult AttackRunner::double_sided(const Site& site, std::uint32_t victim_physical,
                                        const AttackConfig& config) {
  return run(site, victim_physical, config, /*with_decoy=*/false);
}

AttackResult AttackRunner::decoy_evasion(const Site& site, std::uint32_t victim_physical,
                                         const AttackConfig& config) {
  return run(site, victim_physical, config, /*with_decoy=*/true);
}

ManySidedResult AttackRunner::many_sided(const Site& site, std::uint32_t first_physical,
                                         std::uint32_t victim_count,
                                         const AttackConfig& config) {
  const auto& geometry = host_->device().geometry();
  const auto& timings = host_->device().timings();
  RH_EXPECTS(victim_count >= 1);
  const std::uint32_t span = 2 * victim_count + 1;  // A V A V ... A
  RH_EXPECTS(first_physical + span <= geometry.rows_per_bank);
  const auto bank = static_cast<std::uint8_t>(site.bank);

  bender::ProgramBuilder b(geometry, timings);
  raw_flip_prologue(b, 0x00, 0xFF);

  std::vector<std::uint32_t> aggressors;
  std::vector<std::uint32_t> victims;
  for (std::uint32_t off = 0; off < span; ++off) {
    const std::uint32_t p = first_physical + off;
    const bool is_aggressor = (off % 2 == 0);
    (is_aggressor ? aggressors : victims).push_back(p);
    b.init_row(bank, map_->physical_to_logical(p), is_aggressor ? kAggressorWide : kVictimWide);
  }

  // Split the double-sided activation budget (2 x hammers) over the
  // aggressor set and the REF chunks.
  const std::uint64_t chunks = config.refs == 0 ? 1 : config.refs;
  const std::uint64_t acts_per_agg_chunk =
      std::max<std::uint64_t>(1, 2 * config.hammers / (chunks * aggressors.size()));
  for (std::uint64_t c = 0; c < chunks; ++c) {
    for (const std::uint32_t agg : aggressors) {
      b.ldi(0, map_->physical_to_logical(agg));
      b.hammer_single(bank, 0, static_cast<std::int64_t>(acts_per_agg_chunk));
    }
    if (config.refs > 0) {
      b.ref();
      b.sleep(static_cast<std::int64_t>(timings.tRFC));
    }
  }
  for (const std::uint32_t v : victims) {
    b.read_row(bank, map_->physical_to_logical(v));
  }

  const auto result = host_->run(b.take(), site.channel, site.pseudo_channel);

  ManySidedResult out;
  out.dram_time_ms = result.elapsed_ms();
  const std::size_t row_bytes = geometry.row_bytes();
  const std::span<const std::uint8_t> readback(result.readback);
  for (std::size_t v = 0; v < victims.size(); ++v) {
    const std::uint64_t flips = tally_flips(readback.subspan(v * row_bytes, row_bytes), 0x00).bits;
    out.per_victim_flips.push_back(flips);
    out.total_victim_flips += flips;
  }
  return out;
}

AttackResult AttackRunner::run(const Site& site, std::uint32_t victim_physical,
                               const AttackConfig& config, bool with_decoy) {
  const auto& geometry = host_->device().geometry();
  const auto& timings = host_->device().timings();
  RH_EXPECTS(victim_physical >= 1 && victim_physical + 1 < geometry.rows_per_bank);
  RH_EXPECTS(victim_physical + config.decoy_distance < geometry.rows_per_bank);
  const auto bank = static_cast<std::uint8_t>(site.bank);

  bender::ProgramBuilder b(geometry, timings);
  raw_flip_prologue(b, 0x00, 0xFF);

  // Victim + aggressors; the decoy keeps its power-on content (an attacker
  // does not care what the decoy row holds).
  b.init_row(bank, map_->physical_to_logical(victim_physical), kVictimWide);
  b.init_row(bank, map_->physical_to_logical(victim_physical - 1), kAggressorWide);
  b.init_row(bank, map_->physical_to_logical(victim_physical + 1), kAggressorWide);

  b.ldi(0, map_->physical_to_logical(victim_physical - 1));
  b.ldi(1, map_->physical_to_logical(victim_physical + 1));
  const std::uint32_t decoy_logical =
      map_->physical_to_logical(victim_physical + config.decoy_distance);

  const std::uint64_t chunks = config.refs == 0 ? 1 : config.refs;
  const std::uint64_t chunk = config.hammers / chunks;
  for (std::uint64_t c = 0; c < chunks; ++c) {
    b.hammer(bank, 0, 1, static_cast<std::int64_t>(chunk));
    if (config.refs > 0) {
      if (with_decoy) {
        // Poison the sampler: the last activation before the REF is the
        // decoy, so a firing TRR refreshes the decoy's neighbours instead
        // of ours.
        b.touch_row(bank, decoy_logical);
      }
      b.ref();
      b.sleep(static_cast<std::int64_t>(timings.tRFC));
    }
  }
  b.read_row(bank, map_->physical_to_logical(victim_physical));

  const auto result = host_->run(b.take(), site.channel, site.pseudo_channel);

  AttackResult out;
  out.dram_time_ms = result.elapsed_ms();
  out.victim_flips = tally_flips(result.readback, 0x00).bits;
  return out;
}

}  // namespace rh::core
