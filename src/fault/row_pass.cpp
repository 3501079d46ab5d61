#include "fault/row_pass.hpp"

#include <cstring>

#include "common/rng.hpp"

// One body per function, compiled for the default target and for x86-64-v4
// and dispatched once by the loader (an ifunc). Elsewhere the default build
// is the only one, and so it is under ThreadSanitizer, whose runtime is not
// up yet when the loader runs an ifunc resolver (the process crashes).
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define RH_ROW_PASS __attribute__((target_clones("default", "arch=x86-64-v4")))
#else
#define RH_ROW_PASS
#endif

namespace rh::fault::row_pass {

namespace {

/// Packs 64 0/1 bytes into a mask, byte i to bit i: each multiply gathers
/// eight flags into the top byte.
std::uint64_t pack_flags(const std::uint8_t* flags) {
  std::uint64_t mask = 0;
  for (unsigned k = 0; k < 8; ++k) {
    std::uint64_t x = 0;
    std::memcpy(&x, flags + 8 * k, sizeof x);
    mask |= ((x * 0x0102040810204080ULL) >> 56) << (8 * k);
  }
  return mask;
}

}  // namespace

static_assert(kBlock == 64, "block masks are one 64-bit word");

RH_ROW_PASS std::uint64_t block_sums(std::uint64_t base, std::uint64_t first, std::int32_t bound,
                                     std::int32_t* sums) {
  std::uint8_t below[kBlock];
  for (std::uint32_t i = 0; i < kBlock; ++i) {
    const std::int32_t s = common::lane_sum(common::hash_combine(base, first + i));
    sums[i] = s;
    below[i] = s < bound ? 1 : 0;
  }
  return pack_flags(below);
}

RH_ROW_PASS std::uint64_t block_anti(std::uint64_t base, std::uint64_t first,
                                     std::uint64_t anti_below) {
  std::uint8_t anti[kBlock];
  for (std::uint32_t i = 0; i < kBlock; ++i) {
    anti[i] = (common::hash_combine(base, first + i) >> 11) < anti_below ? 1 : 0;
  }
  return pack_flags(anti);
}

RH_ROW_PASS void block_mark_anti(std::uint64_t base, std::uint64_t anti_below,
                                 std::uint32_t* slots) {
  for (std::uint32_t i = 0; i < kBlock; ++i) {
    const std::uint32_t slot = slots[i];
    const bool anti = (common::hash_combine(base, slot & kSlotBitMask) >> 11) < anti_below;
    slots[i] = slot | (anti ? kSlotAnti : 0u);
  }
}

RH_ROW_PASS void block_bytes(std::uint64_t base, std::uint64_t first, std::uint8_t* out) {
  for (std::uint32_t i = 0; i < kBlock; ++i) {
    out[i] = static_cast<std::uint8_t>(common::hash_combine(base, first + i));
  }
}

}  // namespace rh::fault::row_pass
