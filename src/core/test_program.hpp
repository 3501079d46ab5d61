// The RowHammer test program every experiment builds (§3.1, Table 1).
//
// A raw-flip test turns on-die ECC off, preloads the victim image into wide
// register 0 and the aggressor image into wide register 1, writes the
// neighbourhood around the victim, hammers, reads the victim back, and
// scores the readback against the byte it was written with. This header is
// the one place that layout and that score are defined.
#pragma once

#include <cstdint>
#include <span>

#include "bender/program.hpp"
#include "core/row_map.hpp"

namespace rh::core {

/// Wide register holding the victim (and V±[2:radius]) image.
inline constexpr std::uint8_t kVictimWide = 0;
/// Wide register holding the aggressor (V±1) image.
inline constexpr std::uint8_t kAggressorWide = 1;

/// Emits MRS ECC <- 0 so the readback shows raw bitflips (§3.1), and loads
/// `victim` into wide register 0 and `aggressor` into wide register 1.
void raw_flip_prologue(bender::ProgramBuilder& b, std::uint8_t victim, std::uint8_t aggressor);

/// Writes physical rows victim-radius ... victim+radius, in ascending order,
/// skipping rows outside the bank. V±1 take wide register 1; every other row
/// (the victim and V±[2:radius]) takes wide register 0.
void init_neighbourhood(bender::ProgramBuilder& b, const RowMap& map, std::uint8_t bank,
                        std::uint32_t victim_physical, std::uint32_t radius);

/// Bitflips in a readback, split by direction.
struct FlipTally {
  std::uint64_t bits = 0;
  std::uint64_t ones_to_zeros = 0;  ///< written 1, read 0
  std::uint64_t zeros_to_ones = 0;  ///< written 0, read 1
};

/// Compares every byte of `readback` against `expected`, the byte the rows
/// were written with.
[[nodiscard]] FlipTally tally_flips(std::span<const std::uint8_t> readback,
                                    std::uint8_t expected);

}  // namespace rh::core
