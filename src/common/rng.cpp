#include "common/rng.hpp"

// Header-only by design; this translation unit pins the library and hosts
// compile-time self-checks for the hash and distribution helpers.

namespace rh::common {

static_assert(splitmix64(0) != 0, "splitmix64 must avalanche the zero input");
static_assert(splitmix64(1) != splitmix64(2), "splitmix64 must separate adjacent inputs");
static_assert(hash_coords(1, 2, 3) != hash_coords(1, 3, 2), "hash_coords must be order-sensitive");
static_assert(to_unit_double(~0ULL) < 1.0, "unit doubles stay below 1");
static_assert(approx_normal(0) < 0.0, "all-zero lanes map to the lower tail");
static_assert(approx_normal(0) == kZMin && approx_normal(~0ULL) == z_of_sum(kLaneSumMax),
              "approx_normal is z_of_sum of the lane sum at both ends");
static_assert(sum_at_most(kZMin) == 0 && sum_below(kZMin) == 0, "kZMin is the lowest sum");
static_assert(sum_at_most(-1.0) == 93'234, "the z <= -1 cut is an exact lane sum");
static_assert(unit_below(0.0) == 0 && unit_below(1.0) == (1ULL << 53), "unit thresholds clamp");

}  // namespace rh::common
