// Deterministic randomness for the device simulator and the fault model.
//
// Two kinds of randomness are needed:
//
//  1. *Counter-based* ("hash") randomness: every DRAM cell owns random
//     quantities (RowHammer threshold, retention time, orientation jitter)
//     that must be (a) reproducible across runs, (b) addressable without
//     storing per-cell state (a 4 GiB stack has 2^35 cells), and (c)
//     statistically independent. We derive them as pure functions of
//     (seed, channel, pseudo-channel, bank, row, bit) via SplitMix64
//     finalization, the standard stateless construction.
//
//  2. *Sequential* randomness for host-side experiment decisions (row
//     sampling, shuffles): a small xoshiro256** engine, seeded explicitly.
//
// All distribution helpers are branch-light so the fault model can evaluate
// millions of cells per second.
#pragma once

#include <array>
#include <cstdint>

namespace rh::common {

/// SplitMix64 finalizer: bijective avalanche mixer over 64-bit words.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combines a running hash with one more word (order-sensitive).
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) noexcept {
  return splitmix64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

/// Stateless hash of up to five coordinates, used to address per-cell
/// randomness: hash_coords(seed, channel, bank, row, bit) and similar.
[[nodiscard]] constexpr std::uint64_t hash_coords(std::uint64_t seed, std::uint64_t a,
                                                  std::uint64_t b = 0, std::uint64_t c = 0,
                                                  std::uint64_t d = 0) noexcept {
  std::uint64_t h = splitmix64(seed);
  h = hash_combine(h, a);
  h = hash_combine(h, b);
  h = hash_combine(h, c);
  h = hash_combine(h, d);
  return h;
}

/// Maps a 64-bit hash to a uniform double in [0, 1).
[[nodiscard]] constexpr double to_unit_double(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Approximate standard normal from a single 64-bit hash via the Irwin-Hall
/// construction (sum of four 16-bit uniforms, centered and scaled).
/// Max abs error vs a true normal is small in the central region; tails are
/// bounded at ~±3.46 sigma, which is adequate (and convenient) for modelling
/// bounded physical parameter variation.
[[nodiscard]] constexpr double approx_normal(std::uint64_t h) noexcept {
  // Four independent 16-bit lanes of the hash.
  const double u0 = static_cast<double>(h & 0xffffULL);
  const double u1 = static_cast<double>((h >> 16) & 0xffffULL);
  const double u2 = static_cast<double>((h >> 32) & 0xffffULL);
  const double u3 = static_cast<double>((h >> 48) & 0xffffULL);
  // Sum of 4 U(0,1): mean 2, variance 4/12 = 1/3  =>  scale by sqrt(3).
  constexpr double inv = 1.0 / 65536.0;
  constexpr double sqrt3 = 1.7320508075688772;
  return ((u0 + u1 + u2 + u3) * inv - 2.0) * sqrt3;
}

// --- The integer domain of the distribution helpers ----------------------
//
// approx_normal(h) adds four exact 16-bit lanes in double, so the sum S is
// exact, S * 2^-16 - 2 is exact, and only the final multiply by sqrt(3)
// rounds. It is therefore a function of the integer lane sum alone,
// z_of_sum(lane_sum(h)), and strictly increasing in S (adjacent sums differ
// by ~2.6e-5, far above one rounding). Every threshold test on z thus has
// an exact integer twin: z <= t  <=>  S <= sum_at_most(t), and
// z < t  <=>  S < sum_below(t). Likewise to_unit_double(h) < f  <=>
// (h >> 11) < unit_below(f), because (h >> 11) * 2^-53 and f * 2^53 are
// exact. The fault kernels compare integers only and never build a double
// per cell.

/// Largest lane sum: four lanes of 0xffff.
inline constexpr std::int32_t kLaneSumMax = 4 * 0xffff;

/// Exact sum of the four 16-bit lanes approx_normal() reads.
[[nodiscard]] constexpr std::int32_t lane_sum(std::uint64_t h) noexcept {
  return static_cast<std::int32_t>((h & 0xffffULL) + ((h >> 16) & 0xffffULL) +
                                   ((h >> 32) & 0xffffULL) + (h >> 48));
}

/// approx_normal() as a function of the lane sum: the same operations on
/// the same exact operands, so approx_normal(h) == z_of_sum(lane_sum(h)).
[[nodiscard]] constexpr double z_of_sum(std::int32_t s) noexcept {
  constexpr double inv = 1.0 / 65536.0;
  constexpr double sqrt3 = 1.7320508075688772;
  return (static_cast<double>(s) * inv - 2.0) * sqrt3;
}

/// The smallest approx_normal() value (all lanes zero): -2 * sqrt(3).
inline constexpr double kZMin = z_of_sum(0);

namespace detail {
/// A lane sum near z_of_sum's inverse at t, clamped to [0, kLaneSumMax];
/// callers correct it by exact comparisons, so its rounding is harmless.
[[nodiscard]] constexpr std::int32_t sum_estimate(double t) noexcept {
  const double s = (t / 1.7320508075688772 + 2.0) * 65536.0;
  if (!(s > 0.0)) return 0;
  if (s >= static_cast<double>(kLaneSumMax)) return kLaneSumMax;
  return static_cast<std::int32_t>(s);
}
}  // namespace detail

/// Largest lane sum S with z_of_sum(S) <= t, or -1 when there is none
/// (t below kZMin, or NaN). So z_of_sum(S) <= t  <=>  S <= sum_at_most(t).
[[nodiscard]] constexpr std::int32_t sum_at_most(double t) noexcept {
  if (!(t >= z_of_sum(0))) return -1;
  std::int32_t s = detail::sum_estimate(t);
  while (s < kLaneSumMax && z_of_sum(s + 1) <= t) ++s;
  while (z_of_sum(s) > t) --s;  // stops at 0 at the latest: z_of_sum(0) <= t
  return s;
}

/// Number of lane sums S with z_of_sum(S) < t, in [0, kLaneSumMax + 1].
/// So z_of_sum(S) < t  <=>  S < sum_below(t).
[[nodiscard]] constexpr std::int32_t sum_below(double t) noexcept {
  if (!(t > z_of_sum(0))) return 0;
  std::int32_t s = detail::sum_estimate(t);
  while (s < kLaneSumMax && z_of_sum(s + 1) < t) ++s;
  while (z_of_sum(s) >= t) --s;  // stops at 0 at the latest: z_of_sum(0) < t
  return s + 1;
}

/// Integer twin of a unit-double threshold: ceil(f * 2^53) clamped to
/// [0, 2^53], so to_unit_double(h) < f  <=>  (h >> 11) < unit_below(f).
[[nodiscard]] constexpr std::uint64_t unit_below(double f) noexcept {
  constexpr double kScale = 0x1.0p53;
  const double x = f * kScale;
  if (!(x > 0.0)) return 0;
  if (x >= kScale) return 1ULL << 53;
  const auto m = static_cast<std::uint64_t>(x);
  return static_cast<double>(m) < x ? m + 1 : m;
}

/// xoshiro256** sequential PRNG for host-side sampling decisions.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
public:
  using result_type = std::uint64_t;

  /// Seeds the four state words via SplitMix64 expansion of `seed`.
  explicit Xoshiro256(std::uint64_t seed) noexcept {
    std::uint64_t s = seed;
    for (auto& w : state_) {
      s += 0x9e3779b97f4a7c15ULL;
      w = splitmix64(s);
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept { return to_unit_double((*this)()); }

  /// Uniform integer in [0, n) without modulo bias for the n we use
  /// (n << 2^64; single multiply-shift reduction).
  std::uint64_t below(std::uint64_t n) noexcept {
    return static_cast<std::uint64_t>((static_cast<__uint128_t>((*this)()) * n) >> 64);
  }

private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace rh::common
