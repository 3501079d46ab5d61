#include "core/test_program.hpp"

#include <bit>
#include <cstring>

#include "core/data_patterns.hpp"
#include "hbm/mode_registers.hpp"

namespace rh::core {

void raw_flip_prologue(bender::ProgramBuilder& b, std::uint8_t victim, std::uint8_t aggressor) {
  b.mrs(hbm::ModeRegisters::kEccRegister, 0x0);
  b.program().set_wide_register(kVictimWide, make_row_image(b.geometry(), victim));
  b.program().set_wide_register(kAggressorWide, make_row_image(b.geometry(), aggressor));
}

void init_neighbourhood(bender::ProgramBuilder& b, const RowMap& map, std::uint8_t bank,
                        std::uint32_t victim_physical, std::uint32_t radius) {
  const auto v = static_cast<std::int64_t>(victim_physical);
  const std::int64_t rows = b.geometry().rows_per_bank;
  for (std::int64_t p = v - radius; p <= v + radius; ++p) {
    if (p < 0 || p >= rows) continue;
    const bool is_aggressor = (p == v - 1 || p == v + 1);
    b.init_row(bank, map.physical_to_logical(static_cast<std::uint32_t>(p)),
               is_aggressor ? kAggressorWide : kVictimWide);
  }
}

FlipTally tally_flips(std::span<const std::uint8_t> readback, std::uint8_t expected) {
  // Eight bytes per step: the default x86-64 target has no popcount
  // instruction, so each std::popcount is a libgcc call; three calls per
  // byte made the tally a large share of a BER measurement.
  // A 1 -> 0 flip is a differing bit that was written 1; the rest went 0 -> 1.
  const std::uint64_t written = 0x0101010101010101ULL * expected;
  FlipTally out;
  std::size_t i = 0;
  for (; i + 8 <= readback.size(); i += 8) {
    std::uint64_t got = 0;
    std::memcpy(&got, readback.data() + i, sizeof got);
    const std::uint64_t diff = got ^ written;
    out.bits += static_cast<std::uint64_t>(std::popcount(diff));
    out.ones_to_zeros += static_cast<std::uint64_t>(std::popcount(diff & written));
  }
  for (; i < readback.size(); ++i) {
    const auto diff = static_cast<unsigned>(readback[i] ^ expected);
    out.bits += static_cast<std::uint64_t>(std::popcount(diff));
    out.ones_to_zeros += static_cast<std::uint64_t>(std::popcount(diff & expected));
  }
  out.zeros_to_ones = out.bits - out.ones_to_zeros;
  return out;
}

}  // namespace rh::core
