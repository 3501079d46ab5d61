#include "fault/rowhammer_model.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"
#include "fault/cell_traits.hpp"
#include "fault/row_pass.hpp"

namespace rh::fault {

namespace {

using common::kZMin;
using row_pass::kBlock;

static_assert(RowHammerModel::kTierS == 93'234, "the cache tier is z <= -1");
static_assert(RowHammerModel::kTierS < (1 << (32 - row_pass::kSlotSumShift)),
              "a tail slot holds its lane sum");

/// Index of threshold class [charged][opposite-aggressor count k][intra-row
/// damped][anti cell] in a flat 24-entry class table.
constexpr std::size_t class_index(int charged, int k, int intra, int anti) {
  return static_cast<std::size_t>(((charged * 3 + k) * 2 + intra) * 2 + anti);
}

/// A row's two hash cursors and the integer orientation threshold: all a
/// slot collection needs.
struct RowCells {
  std::uint64_t z_base;      ///< RowHammer-threshold stream cursor
  std::uint64_t o_base;      ///< orientation stream cursor
  std::uint64_t anti_below;  ///< unit_below(anti_cell_fraction)
  std::uint32_t bits;
};

/// Writes, in bit order, one slot (row_pass layout) for every cell whose
/// lane sum is at most `s_bound`; returns the count. `slots` holds the
/// row's bits rounded up to a block. `s_min` receives the smallest lane
/// sum collected (unchanged when none is). The lane sums come from one
/// block pass over the row; only the collected cells get an orientation
/// hash.
std::size_t collect_slots(const RowCells& row, std::int32_t s_bound, std::uint32_t* slots,
                          std::int32_t& s_min) {
  std::int32_t sums[kBlock];
  std::size_t m = 0;
  for (std::uint32_t first = 0; first < row.bits; first += kBlock) {
    std::uint64_t hit = row_pass::block_sums(row.z_base, first, s_bound + 1, sums);
    if (row.bits - first < kBlock) hit &= (1ULL << (row.bits - first)) - 1;
    for (; hit != 0; hit &= hit - 1) {
      const auto j = static_cast<std::uint32_t>(std::countr_zero(hit));
      slots[m++] = (first + j) | (static_cast<std::uint32_t>(sums[j]) << row_pass::kSlotSumShift);
      s_min = std::min(s_min, sums[j]);
    }
  }
  const std::size_t padded = (m + kBlock - 1) / kBlock * kBlock;
  std::fill(slots + m, slots + padded, 0u);
  for (std::size_t s = 0; s < padded; s += kBlock) {
    row_pass::block_mark_anti(row.o_base, row.anti_below, slots + s);
  }
  return m;
}

}  // namespace

/// Fast-kernel memo: every cell's lane sum and orientation are pure
/// functions of (seed, flat bank, physical row, bit), so a row that settles
/// repeatedly (every probe of a hammer bisection re-senses the same victim)
/// can skip the 8192-bit rescan. Per row we keep only the *weak tail* —
/// cells with lane sum <= kTierS, the only ones a batch taking the cached
/// path can flip — as one uint32 slot per cell in natural bit order
/// (row_pass layout: bit index, anti flag, lane sum). apply() walks the
/// tail filtering on the batch's most permissive lane-sum cut: bit order
/// already matches the reference scan, so no sorting happens anywhere. A
/// batch whose cut exceeds kTierS (extreme disturbance; absent from every
/// bench workload) collects its candidates from a fresh row pass instead,
/// so the cache never needs the strong cells at all. Entries are evicted
/// least-recently-used in O(1).
class RowFaultCache {
public:
  struct Entry {
    std::vector<std::uint32_t> slots;  ///< weak-tail slots, ascending bit
    /// Smallest lane sum in the tail; a batch whose cut is below it flips
    /// nothing.
    std::int32_t s_min = 0;
  };

  /// The cached tail of `key`'s row, built from `row` on a miss through
  /// `scratch` (one slot per row bit, rounded up to a block).
  const Entry& get(std::uint64_t key, const RowCells& row, std::uint32_t* scratch) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return lru_.front().entry;
    }
    if (lru_.size() < kMaxEntries) {
      lru_.emplace_front();
    } else {
      // Recycle the least-recently-used node, slot storage included.
      index_.erase(lru_.back().key);
      lru_.splice(lru_.begin(), lru_, std::prev(lru_.end()));
    }
    Node& node = lru_.front();
    node.key = key;
    node.entry.s_min = std::numeric_limits<std::int32_t>::max();
    const std::size_t m = collect_slots(row, RowHammerModel::kTierS, scratch, node.entry.s_min);
    node.entry.slots.assign(scratch, scratch + m);
    index_.emplace(key, lru_.begin());
    return node.entry;
  }

private:
  /// Tail entries are ~5 KiB (~1,300 four-byte slots); 512 of them cover
  /// several shards' working sets (victims, aggressors, blast-radius
  /// neighbours) without LRU thrash — a fig4-style shard set touches ~140
  /// distinct rows.
  static constexpr std::size_t kMaxEntries = 512;

  struct Node {
    std::uint64_t key = 0;
    Entry entry;
  };
  std::list<Node> lru_;  ///< most recently used first
  std::unordered_map<std::uint64_t, std::list<Node>::iterator> index_;
};

RowHammerModel::~RowHammerModel() = default;

void RowHammerModel::set_fast_kernel(bool enabled) {
  if (enabled && cache_ == nullptr) {
    cache_ = std::make_unique<RowFaultCache>();
  } else if (!enabled) {
    cache_.reset();
  }
}

RowHammerModel::RowHammerModel(const FaultConfig& cfg, const hbm::Geometry& geometry,
                               const hbm::SubarrayLayout& layout,
                               const ProcessVariation& variation)
    : cfg_(cfg), geometry_(geometry), layout_(layout), variation_(&variation) {
  RH_EXPECTS(cfg_.hc0 > 0 && cfg_.sigma_cell > 0);
  RH_EXPECTS(layout_.total_rows() == geometry_.rows_per_bank);
  RH_EXPECTS(geometry_.row_bits() <= row_pass::kMaxRowBits);
  ln_hc0_ = std::log(cfg_.hc0);
  anti_below_ = common::unit_below(cfg_.anti_cell_fraction);

  // Coupling depends only on config, so its logarithm is hoisted here;
  // apply() adds it to ln(disturbance * vulnerability) per threshold class.
  for (int charged = 0; charged < 2; ++charged) {
    for (int k = 0; k < 3; ++k) {
      for (int intra = 0; intra < 2; ++intra) {
        for (int anti = 0; anti < 2; ++anti) {
          double coupling = charged != 0
                                ? cfg_.coupling_base + k * cfg_.coupling_opposite_aggressor
                                : cfg_.coupling_discharged;
          if (intra != 0) coupling *= cfg_.intra_row_opposite_factor;
          if (anti != 0) coupling *= cfg_.anti_cell_relative;
          ln_coupling_[class_index(charged, k, intra, anti)] = std::log(coupling);
        }
      }
    }
  }

  // Conservative bound: the most vulnerable cell anywhere has z = kZMin,
  // max coupling, max position factor, and max process factor. Disturbance
  // below hc0 * exp(sigma*zmin) / (all maxed factors) cannot flip anything.
  double max_factor = 0.0;
  for (double f : cfg_.die_factor) max_factor = std::max(max_factor, f);
  max_factor *= std::exp(3.0 * cfg_.sigma_channel) * std::exp(3.0 * cfg_.sigma_bank) *
                std::exp(3.5 * cfg_.sigma_row);
  max_factor *= cfg_.position_base + cfg_.position_amp;
  max_factor *= 1.5;  // headroom for temperature
  const double max_coupling =
      (cfg_.coupling_base + 2.0 * cfg_.coupling_opposite_aggressor) * 1.0;
  global_min_disturbance_ =
      cfg_.hc0 * std::exp(cfg_.sigma_cell * kZMin) / (max_factor * max_coupling);
}

double RowHammerModel::temperature_factor(double temperature_c) const {
  return 1.0 + cfg_.rh_temp_coeff_per_10c * (temperature_c - 85.0) / 10.0;
}

double RowHammerModel::row_vulnerability(const BankContext& b, std::uint32_t physical_row,
                                         double temperature_c) const {
  const double x = layout_.relative_position(physical_row);
  double position = cfg_.position_base + cfg_.position_amp * 4.0 * x * (1.0 - x);
  if (layout_.in_last_subarray(physical_row)) position *= cfg_.last_subarray_factor;
  return position * variation_->bank_factor(b) * variation_->row_jitter(b, physical_row) *
         temperature_factor(temperature_c);
}

std::size_t RowHammerModel::apply(const BankContext& b, std::uint32_t physical_row,
                                  std::span<std::uint8_t> data,
                                  std::span<const std::uint8_t> above,
                                  std::span<const std::uint8_t> below, double disturbance,
                                  double temperature_c) const {
  RH_EXPECTS(data.size() == geometry_.row_bytes());
  RH_EXPECTS(above.empty() || above.size() == data.size());
  RH_EXPECTS(below.empty() || below.size() == data.size());
  if (disturbance <= 0.0) return 0;

  const double vuln = row_vulnerability(b, physical_row, temperature_c);
  const double ln_d = std::log(disturbance * vuln);

  // Lane-sum cut per threshold class: a bit of class c flips iff its z <=
  // z_c, i.e. iff its lane sum <= cut[c] (-1 when no cell can). The
  // per-class log(coupling) is precomputed at construction, so this
  // per-batch build sees no logarithms beyond ln_d above, and the per-bit
  // path sees no doubles at all.
  std::array<std::int32_t, 24> cut{};
  for (std::size_t c = 0; c < cut.size(); ++c) {
    cut[c] = common::sum_at_most((ln_d + ln_coupling_[c] - ln_hc0_) / cfg_.sigma_cell);
  }
  // Fast reject: even the weakest threshold class can't reach the strongest
  // cell -> nothing flips.
  if (cut[class_index(1, 2, 0, 0)] < 0) return 0;
  // The batch's most permissive cut: no cell above it can flip.
  const std::int32_t s_cap = *std::max_element(cut.begin(), cut.end());

  const RowCells row{row_hash_base(cfg_.seed, Stream::kRowHammerZ, b, physical_row),
                     row_hash_base(cfg_.seed, Stream::kOrientation, b, physical_row),
                     anti_below_, geometry_.row_bits()};
  std::uint32_t scratch[row_pass::kMaxRowBits];
  std::span<const std::uint32_t> slots;
  if (cache_ != nullptr && s_cap <= kTierS) {
    // Fast kernel: the cut is within the cached tier, so the row's weak
    // tail holds every candidate, already in the reference scan's bit order.
    const std::uint64_t key = (static_cast<std::uint64_t>(b.flat_bank) << 32) | physical_row;
    const RowFaultCache::Entry& entry = cache_->get(key, row, scratch);
    if (s_cap < entry.s_min) return 0;
    slots = entry.slots;
  } else {
    // Reference scan (and the cache's fallback past the tier): candidates
    // straight from a row pass.
    std::int32_t s_min = std::numeric_limits<std::int32_t>::max();
    slots = std::span<const std::uint32_t>(scratch, collect_slots(row, s_cap, scratch, s_min));
  }

  // Only candidates (lane sum <= s_cap) can flip; every other bit is
  // untouched, so skipping it leaves bytes — and the cross-byte edges later
  // bytes read — exactly as a full scan would. Bit j of byte i is decided
  // from the byte's value pre-flip, aggressor bits from above/below,
  // same-row neighbours with the cross-byte edges (previous byte post-flip,
  // next byte pre-flip; a missing edge counts as the bit itself), and the
  // slot's orientation.
  const std::uint64_t limit = (static_cast<std::uint64_t>(s_cap) + 1) << row_pass::kSlotSumShift;
  const std::size_t n = data.size();
  const std::size_t m = slots.size();
  std::size_t flips = 0;
  for (std::size_t s = 0; s < m;) {
    if (slots[s] >= limit) {
      ++s;
      continue;
    }
    const std::size_t i = (slots[s] & row_pass::kSlotBitMask) >> 3;
    const unsigned v = data[i];
    // Per-bit masks of the byte: aggressor bits opposite to the victim bit,
    // and bits whose left and right neighbours are both opposite.
    const unsigned up_opposite = (above.empty() ? v : above[i]) ^ v;
    const unsigned dn_opposite = (below.empty() ? v : below[i]) ^ v;
    const unsigned left = (v << 1) | (i > 0 ? (data[i - 1] >> 7) & 1u : v & 1u);
    const unsigned right = (v >> 1) | ((i + 1 < n ? data[i + 1] & 1u : (v >> 7) & 1u) << 7);
    const unsigned intra_damped = (left ^ v) & (right ^ v);
    unsigned flipped = 0;
    for (; s < m && ((slots[s] & row_pass::kSlotBitMask) >> 3) == i; ++s) {
      const std::uint32_t slot = slots[s];
      if (slot >= limit) continue;
      const std::uint32_t j = slot & 7u;
      const int anti = (slot & row_pass::kSlotAnti) != 0 ? 1 : 0;
      // A true cell is charged storing 1, an anti cell storing 0.
      const int charged = static_cast<int>((v >> j) & 1u) ^ anti;
      const int k = static_cast<int>(((up_opposite >> j) & 1u) + ((dn_opposite >> j) & 1u));
      const int intra = static_cast<int>((intra_damped >> j) & 1u);
      const auto sum = static_cast<std::int32_t>(slot >> row_pass::kSlotSumShift);
      if (sum <= cut[class_index(charged, k, intra, anti)]) {
        flipped |= 1u << j;
        ++flips;
      }
    }
    data[i] ^= static_cast<std::uint8_t>(flipped);
  }
  return flips;
}

}  // namespace rh::fault
