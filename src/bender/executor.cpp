#include "bender/executor.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "common/error.hpp"

namespace rh::bender {

namespace {

/// Cycles one instruction occupies: all Bender costs are static. Inlined,
/// so where the opcode is known (in the dispatch) it folds to its one case.
__attribute__((always_inline)) inline hbm::Cycle static_cost(
    const Instruction& ins, const hbm::TimingParams& timings) {
  switch (ins.op) {
    case Opcode::kSleep:
      return 1 + static_cast<hbm::Cycle>(ins.imm);
    case Opcode::kHammer:
      return static_cast<hbm::Cycle>(ins.imm) * 2 * hammer_period(timings, ins.imm2);
    case Opcode::kHammerSingle:
      return static_cast<hbm::Cycle>(ins.imm) * hammer_period(timings, ins.imm2);
    default:
      return 1;
  }
}

/// Opcodes a fast-forwarded loop body may replay.
bool is_device_op(Opcode op) {
  switch (op) {
    case Opcode::kAct:
    case Opcode::kPre:
    case Opcode::kPreA:
    case Opcode::kRd:
    case Opcode::kWr:
    case Opcode::kRef:
    case Opcode::kHammer:
    case Opcode::kHammerSingle:
      return true;
    default:
      return false;
  }
}

/// One device command inside a fast-forwardable loop body.
struct Record {
  std::size_t pc = 0;     ///< instruction index in the program
  hbm::Cycle offset = 0;  ///< issue cycle relative to iteration start
};

/// Closed-form register update applied per fast-forwarded iteration.
struct RegEffect {
  std::uint8_t rd = 0;
  bool is_ldi = false;  ///< LDI pins to imm; ADDI accumulates n * imm
  std::int64_t imm = 0;
};

/// Static analysis of one backward BLT loop (stored only when eligible).
struct LoopInfo {
  std::size_t target = 0;      ///< body start (branch target)
  std::size_t blt_pc = 0;      ///< the closing BLT
  std::uint64_t body_len = 0;  ///< instructions per iteration (incl. BLT)
  hbm::Cycle delta_t = 0;      ///< cycles per iteration (incl. BLT)
  std::uint8_t induction_reg = 0;
  std::int64_t induction_step = 0;  ///< > 0
  std::uint8_t bound_reg = 0;       ///< invariant inside the body
  std::vector<Record> records;
  std::vector<RegEffect> reg_effects;
};

struct LoopTable {
  std::vector<std::int32_t> loop_at;  ///< pc -> index into loops, or -1
  std::vector<LoopInfo> loops;
};

/// Finds every fast-forwardable loop (see executor.hpp for the rules).
LoopTable analyze_loops(const std::vector<Instruction>& code, const hbm::TimingParams& timings) {
  LoopTable table;
  table.loop_at.assign(code.size(), -1);

  for (std::size_t p = 0; p < code.size(); ++p) {
    const Instruction& blt = code[p];
    if (blt.op != Opcode::kBlt) continue;
    const auto target = static_cast<std::size_t>(blt.imm);
    if (target >= p) continue;  // forward branch: not a loop

    // Pass 1: per-register write counts and opcode eligibility.
    std::array<std::uint8_t, kScalarRegisters> writes{};
    bool viable = true;
    for (std::size_t q = target; q < p && viable; ++q) {
      const Instruction& ins = code[q];
      switch (ins.op) {
        case Opcode::kNop:
        case Opcode::kSleep:
          break;
        case Opcode::kLdi:
          if (++writes[ins.rd] > 1) viable = false;
          break;
        case Opcode::kAddi:
          // Only self-accumulating ADDIs have a closed form per iteration.
          if (ins.rd != ins.rs1 || ++writes[ins.rd] > 1) viable = false;
          break;
        default:
          if (!is_device_op(ins.op)) viable = false;
          break;
      }
    }
    if (!viable) continue;

    // Pass 2: operand invariance — device operand registers and the loop
    // bound must not change inside the body; the BLT induction register
    // must be exactly one positive-step ADDI.
    if (writes[blt.rs2] != 0) continue;
    LoopInfo info;
    info.target = target;
    info.blt_pc = p;
    info.body_len = static_cast<std::uint64_t>(p - target) + 1;
    info.induction_reg = blt.rs1;
    info.bound_reg = blt.rs2;
    hbm::Cycle off = 1;  // the taken BLT itself costs one cycle
    for (std::size_t q = target; q < p && viable; ++q) {
      const Instruction& ins = code[q];
      switch (ins.op) {
        case Opcode::kLdi:
          info.reg_effects.push_back({ins.rd, /*is_ldi=*/true, ins.imm});
          break;
        case Opcode::kAddi:
          if (ins.rd == blt.rs1) {
            if (ins.imm <= 0) viable = false;
            info.induction_step = ins.imm;
          }
          info.reg_effects.push_back({ins.rd, /*is_ldi=*/false, ins.imm});
          break;
        case Opcode::kAct:
        case Opcode::kRd:
        case Opcode::kWr:
        case Opcode::kHammerSingle:
          if (writes[ins.rs1] != 0) viable = false;
          break;
        case Opcode::kHammer:
          if (writes[ins.rs1] != 0 || writes[ins.rs2] != 0) viable = false;
          break;
        default:
          break;
      }
      if (is_device_op(ins.op)) {
        // Zero-count hammers issue nothing; their cost still shapes the
        // cadence.
        const bool issues =
            (ins.op != Opcode::kHammer && ins.op != Opcode::kHammerSingle) || ins.imm > 0;
        if (issues) info.records.push_back({q, off});
      }
      off += static_cost(ins, timings);
    }
    if (!viable || info.induction_step <= 0) continue;
    info.delta_t = off;
    table.loop_at[p] = static_cast<std::int32_t>(table.loops.size());
    table.loops.push_back(std::move(info));
  }
  return table;
}

/// Successor pc that ends the run (set by END).
constexpr std::size_t kHalt = static_cast<std::size_t>(-1);

}  // namespace

ExecutionResult Executor::run(const Program& program, std::uint32_t channel,
                              std::uint32_t pseudo_channel, hbm::Cycle start,
                              std::uint64_t instruction_budget) {
  hbm::Device& device = *device_;
  program.validate(device.geometry());
  const auto& code = program.instructions();
  const auto& geometry = device.geometry();
  const auto& timings = device.timings();
  // The loop analysis is the fast engine's only per-program work; the
  // reference interpreter steps every instruction.
  const bool fast = device.engine() == common::EngineKind::kFast;
  const LoopTable loops = fast ? analyze_loops(code, timings) : LoopTable{};
  const bool drop_last_iteration =
      device.planted_bug() == common::PlantedBug::kOffByOneFastForward;

  ExecutionResult result;
  result.start_cycle = start;
  RunMetrics& metrics = result.metrics;
  std::array<std::int64_t, kScalarRegisters> regs{};
  std::vector<std::uint8_t> burst(geometry.bytes_per_column);
  hbm::Cycle t = start;
  std::size_t pc = 0;
  std::uint64_t executed = 0;
  const Instruction* current = nullptr;

  const auto bank_addr = [&](std::uint8_t bank) {
    return hbm::BankAddress{channel, pseudo_channel, bank};
  };
  const auto reg_row = [&](std::uint8_t reg) {
    const std::int64_t row = regs[reg];
    if (row < 0 || row >= static_cast<std::int64_t>(geometry.rows_per_bank)) {
      throw common::ProgramError("row register value out of range: " + std::to_string(row));
    }
    return static_cast<std::uint32_t>(row);
  };
  const auto reg_col = [&](std::uint8_t reg) {
    const std::int64_t col = regs[reg];
    if (col < 0 || col >= static_cast<std::int64_t>(geometry.columns_per_row)) {
      throw common::ProgramError("column register value out of range: " + std::to_string(col));
    }
    return static_cast<std::uint32_t>(col);
  };

  // The one opcode dispatch: applies `ins` at cycle t and returns its cost;
  // a taken branch (or END) overwrites `next`. Fast-forward replay calls it
  // for a loop's device commands, which never branch. Inlined into both
  // callers, so neither stepping nor replay pays a call per instruction.
  const auto dispatch = [&](const Instruction& ins,
                            std::size_t& next) __attribute__((always_inline)) -> hbm::Cycle {
    switch (ins.op) {
      case Opcode::kNop:
        break;
      case Opcode::kLdi:
        regs[ins.rd] = ins.imm;
        break;
      case Opcode::kAddi:
        regs[ins.rd] = regs[ins.rs1] + ins.imm;
        break;
      case Opcode::kBlt:
        if (regs[ins.rs1] < regs[ins.rs2]) next = static_cast<std::size_t>(ins.imm);
        break;
      case Opcode::kJmp:
        next = static_cast<std::size_t>(ins.imm);
        break;
      case Opcode::kAct:
        device.activate(bank_addr(ins.bank), reg_row(ins.rs1), t);
        ++metrics.acts;
        break;
      case Opcode::kPre:
        device.precharge(bank_addr(ins.bank), t);
        ++metrics.precharges;
        break;
      case Opcode::kPreA:
        device.precharge_all(channel, pseudo_channel, t);
        ++metrics.precharges;
        break;
      case Opcode::kWr: {
        const std::uint32_t col = reg_col(ins.rs1);
        const auto wide = program.wide_register(ins.wide);
        const std::size_t off = static_cast<std::size_t>(col) * geometry.bytes_per_column;
        device.write(bank_addr(ins.bank), col, wide.subspan(off, geometry.bytes_per_column), t);
        ++metrics.writes;
        break;
      }
      case Opcode::kRd: {
        const std::uint32_t col = reg_col(ins.rs1);
        device.read(bank_addr(ins.bank), col, t, burst);
        result.readback.insert(result.readback.end(), burst.begin(), burst.end());
        ++metrics.reads;
        break;
      }
      case Opcode::kRef:
        device.refresh(channel, pseudo_channel, t);
        ++metrics.refreshes;
        break;
      case Opcode::kMrs:
        device.mode_register_set(channel, ins.rd, static_cast<std::uint32_t>(ins.imm), t);
        ++metrics.mode_register_writes;
        break;
      case Opcode::kSleep:
        return static_cost(ins, timings);
      case Opcode::kHammer: {
        const hbm::Cycle cost = static_cost(ins, timings);
        if (ins.imm > 0) {
          const auto count = static_cast<std::uint64_t>(ins.imm);
          device.hammer_pair(bank_addr(ins.bank), reg_row(ins.rs1), reg_row(ins.rs2), count,
                             hammer_on_time(timings, ins.imm2), t + cost);
          metrics.acts += 2 * count;
          metrics.precharges += 2 * count;
        }
        return cost;
      }
      case Opcode::kHammerSingle: {
        const hbm::Cycle cost = static_cost(ins, timings);
        if (ins.imm > 0) {
          const auto count = static_cast<std::uint64_t>(ins.imm);
          device.hammer_single(bank_addr(ins.bank), reg_row(ins.rs1), count,
                               hammer_on_time(timings, ins.imm2), t + cost);
          metrics.acts += count;
          metrics.precharges += count;
        }
        return cost;
      }
      case Opcode::kSrEnter:
        device.self_refresh_enter(channel, pseudo_channel, t);
        break;
      case Opcode::kSrExit:
        device.self_refresh_exit(channel, pseudo_channel, t);
        break;
      case Opcode::kEnd:
        next = kHalt;
        break;
    }
    return 1;
  };

  // The fast engine's closed-form step, taken at an eligible loop's closing
  // BLT while it is about to be taken. Each replayed command first mirrors
  // the stepping state (pc / current / executed / t), so a device throw
  // carries exactly the context stepping would have attached. Returns false
  // when nothing was fast-forwarded (the loop exits here, or not one whole
  // iteration fits the budget); the BLT is then stepped as usual.
  const auto fast_forward = [&](const LoopInfo& loop) {
    const std::int64_t r1 = regs[loop.induction_reg];
    const std::int64_t r2 = regs[loop.bound_reg];
    if (r1 >= r2) return false;
    using Wide = __int128;
    const Wide need =
        (static_cast<Wide>(r2) - static_cast<Wide>(r1) + loop.induction_step - 1) /
        loop.induction_step;
    // Whole iterations that still fit in the instruction budget; stepping
    // raises the budget error for a loop that overruns it.
    const std::uint64_t head_room =
        instruction_budget > executed ? instruction_budget - executed : 0;
    const std::uint64_t n = static_cast<std::uint64_t>(
        std::min<Wide>(need, static_cast<Wide>(head_room / loop.body_len)));
    if (n == 0) return false;
    const hbm::Cycle t0 = t;
    const std::uint64_t executed0 = executed;
    // Planted bug: drop the device commands of the final iteration while
    // still advancing registers, clock, and instruction count as if it ran.
    const std::uint64_t replayed = drop_last_iteration ? n - 1 : n;
    for (std::uint64_t k = 0; k < replayed; ++k) {
      for (const Record& rec : loop.records) {
        pc = rec.pc;
        current = &code[rec.pc];
        t = t0 + k * loop.delta_t + rec.offset;
        executed = executed0 + k * loop.body_len +
                   static_cast<std::uint64_t>(rec.pc - loop.target) + 2;
        std::size_t next = pc + 1;
        dispatch(*current, next);
      }
    }
    t = t0 + n * loop.delta_t;
    executed = executed0 + n * loop.body_len;
    for (const RegEffect& eff : loop.reg_effects) {
      if (eff.is_ldi) {
        regs[eff.rd] = eff.imm;
      } else {
        regs[eff.rd] += static_cast<std::int64_t>(n) * eff.imm;
      }
    }
    pc = loop.blt_pc;
    current = loop.blt_pc > loop.target ? &code[loop.blt_pc - 1] : &code[loop.blt_pc];
    return true;  // the BLT is re-evaluated (not taken when n == need)
  };

  try {
    while (pc < code.size()) {
      if (fast && loops.loop_at[pc] >= 0 &&
          fast_forward(loops.loops[static_cast<std::size_t>(loops.loop_at[pc])])) {
        continue;
      }
      if (++executed > instruction_budget) {
        throw common::ProgramError("instruction budget exceeded (runaway loop?)");
      }
      current = &code[pc];
      std::size_t next = pc + 1;
      t += dispatch(*current, next);
      pc = next;
    }
    if (pc != kHalt) throw common::ProgramError("program ran off the end without END");
  } catch (common::Error& e) {
    std::string ctx = "after " + std::to_string(executed) + " instructions, cycle " +
                      std::to_string(t);
    if (current != nullptr) {
      ctx += ", pc " + std::to_string(pc) + ": " + disassemble(*current);
    }
    e.attach_context(ctx);
    throw;
  }

  result.end_cycle = t;
  result.instructions_executed = executed;
  metrics.sim_wall_ms = hbm::cycles_to_ms(result.end_cycle - result.start_cycle);
  if (metrics.sim_wall_ms > 0.0) {
    metrics.act_rate_hz = static_cast<double>(metrics.acts) / (metrics.sim_wall_ms * 1e-3);
  }
  return result;
}

}  // namespace rh::bender
