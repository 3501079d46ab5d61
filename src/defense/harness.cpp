#include "defense/harness.hpp"

#include "bender/program.hpp"
#include "common/assert.hpp"
#include "core/test_program.hpp"

namespace rh::defense {

DefenseHarness::DefenseHarness(bender::BenderHost& host, const core::RowMap& map)
    : host_(&host), map_(&map) {}

DefenseRunResult DefenseHarness::run_double_sided(const core::Site& site,
                                                  std::uint32_t victim_physical,
                                                  std::uint64_t hammers,
                                                  MitigationPolicy* policy) {
  auto& device = host_->device();
  const auto& geometry = device.geometry();
  const auto& timings = device.timings();
  RH_EXPECTS(victim_physical >= 1 && victim_physical + 1 < geometry.rows_per_bank);

  // Initialize the neighbourhood through the regular program path.
  {
    bender::ProgramBuilder b(geometry, timings);
    core::raw_flip_prologue(b, 0x00, 0xFF);
    core::init_neighbourhood(b, *map_, static_cast<std::uint8_t>(site.bank), victim_physical, 2);
    (void)host_->run(b.take(), site.channel, site.pseudo_channel);
  }

  // Play the memory controller: every ACT goes past the policy.
  DefenseRunResult result;
  const hbm::BankAddress bank = site.bank_address();
  const hbm::Cycle step = timings.tRAS + timings.tRP;
  hbm::Cycle t = host_->now();
  const hbm::Cycle start = t;

  const auto issue_act_pre = [&](std::uint32_t logical_row) {
    device.activate(bank, logical_row, t);
    device.precharge(bank, t + timings.tRAS);
    t += step;
  };
  const auto mitigate = [&](std::uint32_t logical_row) {
    if (policy == nullptr) return;
    for (const std::uint32_t victim : policy->on_activate(site.bank, logical_row)) {
      issue_act_pre(victim);
      ++result.preventive_activations;
      // Preventive activations are themselves activations the policy must
      // observe — a real controller's mitigation traffic is in-band. (PARA
      // ignores them statistically; Graphene counts them, as it should.)
    }
  };

  const std::uint32_t agg_a = map_->physical_to_logical(victim_physical - 1);
  const std::uint32_t agg_b = map_->physical_to_logical(victim_physical + 1);
  for (std::uint64_t i = 0; i < hammers; ++i) {
    for (const std::uint32_t agg : {agg_a, agg_b}) {
      issue_act_pre(agg);
      ++result.attack_activations;
      mitigate(agg);
    }
  }
  host_->idle_cycles(t - start);
  result.dram_time_ms = hbm::cycles_to_ms(t - start);

  // Read the victim back.
  bender::ProgramBuilder b(geometry, timings);
  b.read_row(static_cast<std::uint8_t>(site.bank), map_->physical_to_logical(victim_physical));
  const auto readback = host_->run(b.take(), site.channel, site.pseudo_channel);
  result.victim_flips = core::tally_flips(readback.readback, 0x00).bits;
  return result;
}

}  // namespace rh::defense
