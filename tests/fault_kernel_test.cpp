// Exactness of the fault kernels' integer domain: the lane-sum cuts and the
// orientation threshold decide exactly what the double-domain tests they
// replace decided, and the row pass computes exactly the scalar hashes.
#include "fault/row_pass.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "fault/rowhammer_model.hpp"

namespace rh::fault {
namespace {

using common::kLaneSumMax;
using common::lane_sum;
using common::sum_at_most;
using common::sum_below;
using common::z_of_sum;

static_assert(RowHammerModel::kTierS == 93'234, "the z <= -1 tier cut");
static_assert(z_of_sum(0) == common::kZMin, "all-zero lanes are the weakest cell");

/// z <= t  <=>  S <= sum_at_most(t), checked at the cut: since z_of_sum is
/// strictly increasing (pinned below), the cut's two sides decide every S.
void expect_at_most_cut(double t) {
  const std::int32_t cut = sum_at_most(t);
  ASSERT_GE(cut, -1);
  ASSERT_LE(cut, kLaneSumMax);
  if (cut >= 0) {
    EXPECT_LE(z_of_sum(cut), t) << "t=" << t;
  }
  if (cut < kLaneSumMax) {
    EXPECT_FALSE(z_of_sum(cut + 1) <= t) << "t=" << t;
  }
}

/// z < t  <=>  S < sum_below(t), checked the same way.
void expect_below_cut(double t) {
  const std::int32_t cut = sum_below(t);
  ASSERT_GE(cut, 0);
  ASSERT_LE(cut, kLaneSumMax + 1);
  if (cut > 0) {
    EXPECT_LT(z_of_sum(cut - 1), t) << "t=" << t;
  }
  if (cut <= kLaneSumMax) {
    EXPECT_FALSE(z_of_sum(cut) < t) << "t=" << t;
  }
}

TEST(FaultKernelExactness, ZOfSumIsStrictlyIncreasingOverEveryLaneSum) {
  for (std::int32_t s = 1; s <= kLaneSumMax; ++s) {
    ASSERT_LT(z_of_sum(s - 1), z_of_sum(s)) << "S=" << s;
  }
}

TEST(FaultKernelExactness, ApproxNormalIsZOfTheLaneSum) {
  for (std::uint64_t i = 0; i < 1'000'000; ++i) {
    const std::uint64_t h = common::splitmix64(i * 0x9e3779b97f4a7c15ULL + 11);
    ASSERT_EQ(common::approx_normal(h), z_of_sum(lane_sum(h))) << "h=" << h;
  }
  for (const std::uint64_t h : {0ULL, ~0ULL, 0xffffULL, 0xffff000000000000ULL}) {
    EXPECT_EQ(common::approx_normal(h), z_of_sum(lane_sum(h)));
  }
  EXPECT_EQ(lane_sum(~0ULL), kLaneSumMax);
}

TEST(FaultKernelExactness, SumCutsHoldAtEveryZAndItsNeighbours) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::int32_t s = 0; s <= kLaneSumMax; ++s) {
    const double z = z_of_sum(s);
    for (const double t : {std::nextafter(z, -kInf), z, std::nextafter(z, kInf)}) {
      expect_at_most_cut(t);
      expect_below_cut(t);
      if (HasFatalFailure() || HasNonfatalFailure()) return;
    }
    ASSERT_EQ(sum_at_most(z), s);
    ASSERT_EQ(sum_below(z), s);
  }
}

TEST(FaultKernelExactness, SumCutsHandleOutOfRangeThresholds) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(sum_at_most(-kInf), -1);
  EXPECT_EQ(sum_at_most(-4.0), -1);
  EXPECT_EQ(sum_at_most(nan), -1);
  EXPECT_EQ(sum_at_most(kInf), kLaneSumMax);
  EXPECT_EQ(sum_at_most(4.0), kLaneSumMax);
  EXPECT_EQ(sum_below(-kInf), 0);
  EXPECT_EQ(sum_below(nan), 0);
  EXPECT_EQ(sum_below(kInf), kLaneSumMax + 1);
  for (const double t : {-3.5, -1.0, -0.5, 0.0, 1e-300, 2.5, 3.4641016151377544, 3.5}) {
    expect_at_most_cut(t);
    expect_below_cut(t);
  }
}

TEST(FaultKernelExactness, OrientationThresholdSplitsAtItsCut) {
  std::vector<double> fractions{0.0, 0.62, 0.5, 1.0, 0x1.0p-60, 1e-9, std::nextafter(1.0, 0.0),
                                0.3333333333333333, 1.5, -0.25};
  for (std::uint64_t i = 0; i < 2'000; ++i) {
    fractions.push_back(common::to_unit_double(common::splitmix64(i + 77)));
  }
  for (const double f : fractions) {
    const std::uint64_t a = common::unit_below(f);
    ASSERT_LE(a, 1ULL << 53);
    // The low 11 bits never matter; probe both ends of them.
    for (const std::uint64_t low : {0ULL, 0x7ffULL}) {
      if (a > 0) {
        EXPECT_LT(common::to_unit_double(((a - 1) << 11) | low), f) << "f=" << f;
      }
      if (a < (1ULL << 53)) {
        EXPECT_FALSE(common::to_unit_double((a << 11) | low) < f) << "f=" << f;
      }
    }
  }
}

TEST(FaultKernelExactness, RowPassMatchesTheScalarHashes) {
  const std::uint64_t anti_below = common::unit_below(0.62);
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    const std::uint64_t base = common::splitmix64(trial);
    const std::uint64_t first = (trial % 130) * row_pass::kBlock;
    const auto bound = static_cast<std::int32_t>(common::splitmix64(trial + 9) % (kLaneSumMax + 2));
    std::int32_t sums[row_pass::kBlock];
    const std::uint64_t below = row_pass::block_sums(base, first, bound, sums);
    const std::uint64_t anti = row_pass::block_anti(base, first, anti_below);
    std::uint8_t bytes[row_pass::kBlock];
    row_pass::block_bytes(base, first, bytes);
    std::uint32_t slots[row_pass::kBlock];
    for (std::uint32_t i = 0; i < row_pass::kBlock; ++i) {
      slots[i] = static_cast<std::uint32_t>((first + i * 97) % row_pass::kMaxRowBits) |
                 (i << row_pass::kSlotSumShift);
    }
    const std::vector<std::uint32_t> before(slots, slots + row_pass::kBlock);
    row_pass::block_mark_anti(base, anti_below, slots);
    for (std::uint32_t i = 0; i < row_pass::kBlock; ++i) {
      const std::uint64_t h = common::hash_combine(base, first + i);
      ASSERT_EQ(sums[i], lane_sum(h));
      ASSERT_EQ(((below >> i) & 1) != 0, lane_sum(h) < bound);
      ASSERT_EQ(((anti >> i) & 1) != 0, common::to_unit_double(h) < 0.62);
      ASSERT_EQ(bytes[i], static_cast<std::uint8_t>(h & 0xff));
      const std::uint64_t hs = common::hash_combine(base, before[i] & row_pass::kSlotBitMask);
      const std::uint32_t flag = common::to_unit_double(hs) < 0.62 ? row_pass::kSlotAnti : 0u;
      ASSERT_EQ(slots[i], before[i] | flag);
    }
  }
}

}  // namespace
}  // namespace rh::fault
