// The FPGA-side program executor: the one engine every Bender program runs
// on.
//
// Runs one Bender program against one pseudo channel of the device, with the
// exact cycle accounting the ProgramBuilder assumes: one cycle per
// instruction, 1+imm for SLEEP, and the unrolled-equivalent duration for the
// HAMMER macro-ops. Collects RD bursts into a readback FIFO that the host
// drains after the run (the PCIe DMA path of the real infrastructure).
//
// The device's engine (hbm::Device::engine, see common/engine.hpp) selects
// how the run loop advances:
//   - kInterp, the reference: every instruction is fetched, dispatched and
//     charged one at a time.
//   - kFast: the same loop, plus one closed-form fast-forward step. Before
//     the run, one pass over the program finds each backward BLT whose body
//     is branch-free, writes every register at most once (LDI, or ADDI with
//     rd == rs1), writes no device-operand register or loop bound, and
//     counts a single positive-step ADDI induction register. Every future
//     iteration of such a loop is identical except for the induction value,
//     so when the BLT is about to be taken the loop runs its remaining
//     N = ceil((bound - induction) / step) iterations at once: only the
//     body's device commands are replayed (through the same dispatch, at
//     their exact per-iteration issue cycles), then registers advance by N
//     times their per-iteration effect and the clock by N times the body's
//     cycle count. Iterations past the instruction budget are left to
//     stepping, so the budget error is raised exactly where the reference
//     raises it.
// Both engines produce the same ExecutionResult, the same device side
// effects in the same order, and the same error strings with the same
// attached context; tests/engine_diff_test.cpp and the verify::Property
// campaign identities enforce the contract.
#pragma once

#include <cstdint>
#include <vector>

#include "bender/program.hpp"
#include "hbm/device.hpp"

namespace rh::bender {

/// Per-run command mix, filled by the executor on every successful run.
/// ACTs include the unrolled equivalents of HAMMER macro-ops, so the mix
/// matches what real silicon would have seen.
struct RunMetrics {
  std::uint64_t acts = 0;
  std::uint64_t precharges = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t mode_register_writes = 0;

  /// Simulated wall-clock time the program occupied the interface.
  double sim_wall_ms = 0.0;
  /// ACT commands per simulated second (the paper's hammer-rate axis).
  double act_rate_hz = 0.0;
};

struct ExecutionResult {
  /// RD bursts in program order, bytes_per_column each.
  std::vector<std::uint8_t> readback;
  hbm::Cycle start_cycle = 0;
  hbm::Cycle end_cycle = 0;
  std::uint64_t instructions_executed = 0;
  /// Command mix snapshot for this run.
  RunMetrics metrics;

  [[nodiscard]] hbm::Cycle cycles() const { return end_cycle - start_cycle; }
  [[nodiscard]] double elapsed_ms() const { return hbm::cycles_to_ms(cycles()); }
};

class Executor {
public:
  explicit Executor(hbm::Device& device) : device_(&device) {}

  /// Executes `program` on (channel, pseudo_channel), with the global clock
  /// starting at `start`, on the device's engine. Throws ProgramError if the
  /// instruction budget is exceeded (runaway loop) and propagates device
  /// Timing/Protocol errors; propagated rh::common::Errors carry
  /// executed-instruction count, program counter, the offending
  /// instruction's disassembly, and the cycle as attached context, so failed
  /// runs are diagnosable from what() alone.
  ExecutionResult run(const Program& program, std::uint32_t channel,
                      std::uint32_t pseudo_channel, hbm::Cycle start,
                      std::uint64_t instruction_budget = 100'000'000);

private:
  hbm::Device* device_;
};

}  // namespace rh::bender
