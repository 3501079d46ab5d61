// The integer row pass every fault kernel runs through.
//
// A row's cells are hashed as hash_combine(base, i), where `base` folds
// (stream, bank, row) once (row_hash_base in cell_traits.hpp). The pass
// hashes one block of 64 consecutive cells at a time and turns the hashes
// into lane sums (the integer domain of approx_normal, see common/rng.hpp),
// orientation masks or bytes. Blocks have a fixed length so the compiler
// vectorizes every loop, and each function is compiled twice: for the
// default target and for x86-64-v4, whose 64-bit vector multiply runs
// SplitMix64 eight lanes at a time. The loader picks the copy once per
// process. Both copies compute the same integers, and no double ever enters
// them: thresholds arrive as integers (sum_at_most, sum_below, unit_below),
// so the choice of copy cannot change a result.
#pragma once

#include <cstdint>

namespace rh::fault::row_pass {

/// Cells per block; bit i of a block mask is cell first + i.
inline constexpr std::uint32_t kBlock = 64;

/// Writes sums[i] = lane_sum(hash_combine(base, first + i)) for the block
/// and returns the mask of cells with sums[i] < bound.
std::uint64_t block_sums(std::uint64_t base, std::uint64_t first, std::int32_t bound,
                         std::int32_t* sums);

/// Mask of the block's cells whose hash satisfies (h >> 11) < anti_below:
/// the anti cells, for anti_below = unit_below(anti_cell_fraction).
std::uint64_t block_anti(std::uint64_t base, std::uint64_t first, std::uint64_t anti_below);

/// Weak-tail slot layout: one uint32 per cell, bit index in bits 0-12, the
/// anti flag in bit 13 and the lane sum in bits 14-31.
inline constexpr std::uint32_t kSlotBitMask = 0x1fffu;
inline constexpr std::uint32_t kSlotAnti = 1u << 13;
inline constexpr unsigned kSlotSumShift = 14;
/// Largest row the slot layout addresses.
inline constexpr std::uint32_t kMaxRowBits = kSlotBitMask + 1;

/// Sets kSlotAnti on each of 64 slots whose cell (slot & kSlotBitMask)
/// is an anti cell under (base, anti_below); the other bits are kept.
void block_mark_anti(std::uint64_t base, std::uint64_t anti_below, std::uint32_t* slots);

/// Writes out[i] = low byte of hash_combine(base, first + i) for the block.
void block_bytes(std::uint64_t base, std::uint64_t first, std::uint8_t* out);

}  // namespace rh::fault::row_pass
