#include "bender/program.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/data_patterns.hpp"
#include "hbm/geometry.hpp"
#include "hbm/timing.hpp"

namespace rh::bender {
namespace {

class ProgramTest : public ::testing::Test {
protected:
  hbm::Geometry geometry_ = hbm::paper_geometry();
  hbm::TimingParams timings_ = hbm::paper_timings();
};

TEST_F(ProgramTest, ValidateRejectsEmptyProgram) {
  const Program p;
  EXPECT_THROW(p.validate(geometry_), common::ProgramError);
}

TEST_F(ProgramTest, ValidateRequiresEnd) {
  Program p;
  p.push({.op = Opcode::kNop});
  EXPECT_THROW(p.validate(geometry_), common::ProgramError);
  p.push({.op = Opcode::kEnd});
  p.validate(geometry_);
}

TEST_F(ProgramTest, ValidateRejectsBadBank) {
  Program p;
  p.push({.op = Opcode::kAct, .rs1 = 0, .bank = 16});
  p.push({.op = Opcode::kEnd});
  EXPECT_THROW(p.validate(geometry_), common::ProgramError);
}

TEST_F(ProgramTest, ValidateRejectsJumpOutOfRange) {
  Program p;
  p.push({.op = Opcode::kJmp, .imm = 99});
  p.push({.op = Opcode::kEnd});
  EXPECT_THROW(p.validate(geometry_), common::ProgramError);
}

TEST_F(ProgramTest, ValidateRejectsUnloadedWideRegister) {
  Program p;
  p.push({.op = Opcode::kWr, .rs1 = 0, .bank = 0, .wide = 2});
  p.push({.op = Opcode::kEnd});
  EXPECT_THROW(p.validate(geometry_), common::ProgramError);
  p.set_wide_register(2, std::vector<std::uint8_t>(geometry_.row_bytes(), 0xFF));
  p.validate(geometry_);
}

TEST_F(ProgramTest, ValidateRejectsBadModeRegister) {
  Program p;
  p.push({.op = Opcode::kMrs, .rd = 16, .imm = 0});
  p.push({.op = Opcode::kEnd});
  EXPECT_THROW(p.validate(geometry_), common::ProgramError);
}

TEST_F(ProgramTest, ValidateRejectsNegativeHammerCount) {
  Program p;
  p.push({.op = Opcode::kHammer, .imm = -1});
  p.push({.op = Opcode::kEnd});
  EXPECT_THROW(p.validate(geometry_), common::ProgramError);
}

TEST_F(ProgramTest, BuilderAppendsEndOnTake) {
  ProgramBuilder b(geometry_, timings_);
  b.nop();
  const Program p = b.take();
  EXPECT_EQ(p.instructions().back().op, Opcode::kEnd);
}

TEST_F(ProgramTest, BuilderTracksVirtualTime) {
  ProgramBuilder b(geometry_, timings_);
  b.nop();            // 1
  b.ldi(0, 5);        // 1
  b.sleep(10);        // 11
  EXPECT_EQ(b.virtual_cycles(), 13u);
}

TEST_F(ProgramTest, HammerMacroChargesUnrolledDuration) {
  ProgramBuilder b(geometry_, timings_);
  b.ldi(0, 10);
  b.ldi(1, 12);
  const hbm::Cycle before = b.virtual_cycles();
  b.hammer(0, 0, 1, 1000);
  EXPECT_EQ(b.virtual_cycles() - before, 1000ULL * 2 * b.hammer_period(0));
}

TEST_F(ProgramTest, HammerPeriodGrowsWithOnTime) {
  ProgramBuilder b(geometry_, timings_);
  // Minimal on-time: the pair period is bounded by both tRC and tRAS+tRP.
  const hbm::Cycle minimal = std::max(timings_.tRC, timings_.tRAS + timings_.tRP);
  EXPECT_EQ(b.hammer_period(0), minimal);
  EXPECT_EQ(b.hammer_period(static_cast<std::int64_t>(timings_.tRAS)), minimal);
  const auto long_on = static_cast<std::int64_t>(4 * timings_.tRAS);
  EXPECT_EQ(b.hammer_period(long_on), 4 * timings_.tRAS + timings_.tRP);
}

TEST_F(ProgramTest, InitRowEmitsOneWritePerColumn) {
  ProgramBuilder b(geometry_, timings_);
  b.program().set_wide_register(0, core::make_row_image(geometry_, 0xAB));
  b.init_row(0, 5, 0);
  const Program p = b.take();
  int writes = 0;
  int acts = 0;
  int pres = 0;
  for (const auto& ins : p.instructions()) {
    writes += ins.op == Opcode::kWr;
    acts += ins.op == Opcode::kAct;
    pres += ins.op == Opcode::kPre;
  }
  EXPECT_EQ(writes, static_cast<int>(geometry_.columns_per_row));
  EXPECT_EQ(acts, 1);
  EXPECT_EQ(pres, 1);
}

TEST_F(ProgramTest, ReadRowEmitsOneReadPerColumn) {
  ProgramBuilder b(geometry_, timings_);
  b.read_row(0, 5);
  const Program p = b.take();
  int reads = 0;
  for (const auto& ins : p.instructions()) reads += ins.op == Opcode::kRd;
  EXPECT_EQ(reads, static_cast<int>(geometry_.columns_per_row));
}

TEST_F(ProgramTest, LabelsResolveToInstructionIndices) {
  ProgramBuilder b(geometry_, timings_);
  b.ldi(0, 0);
  b.ldi(1, 3);
  const Label loop = b.here();
  EXPECT_EQ(loop.index, 2u);
  b.addi(0, 0, 1);
  b.blt(0, 1, loop);
  const Program p = b.take();
  EXPECT_EQ(p.instructions()[3].imm, 2);
}

TEST_F(ProgramTest, WideRegisterRoundTrip) {
  Program p;
  std::vector<std::uint8_t> image(geometry_.row_bytes(), 0x3C);
  p.set_wide_register(1, image);
  const auto view = p.wide_register(1);
  ASSERT_EQ(view.size(), image.size());
  EXPECT_EQ(view[0], 0x3C);
  EXPECT_TRUE(p.wide_register(0).empty());
}

// The row emitters' exact lowering on a 3-column row at the paper timings
// (tRCD 12, tCCD 2, tRAS 20, tWR 10, tRTP 5, tRP 9): the first column waits
// out tRCD, the others follow at tCCD, PRE waits for tRAS and the write or
// read recovery, and the row then closes for tRP.
TEST_F(ProgramTest, InitRowEmitsOneWritePerColumnAtMinimalSpacing) {
  geometry_.columns_per_row = 3;
  ProgramBuilder b(geometry_, timings_);
  b.init_row(2, 7, 1);
  EXPECT_EQ(disassemble(b.program()),
            (std::vector<std::string>{"0: LDI r31, 7", "1: ACT b2, row=r31", "2: LDI r30, 0",
                                      "3: SLEEP 9", "4: WR b2, col=r30, w1", "5: LDI r30, 1",
                                      "6: WR b2, col=r30, w1", "7: LDI r30, 2",
                                      "8: WR b2, col=r30, w1", "9: SLEEP 8", "10: PRE b2",
                                      "11: SLEEP 7"}));
  // ACT at 1, writes at 13/15/17, PRE at 27 = 17 + tWR, closed at 36.
  EXPECT_EQ(b.virtual_cycles(), 36u);
}

TEST_F(ProgramTest, ReadRowEmitsOneReadPerColumnAndRecoversForTRtp) {
  geometry_.columns_per_row = 3;
  ProgramBuilder b(geometry_, timings_);
  b.read_row(2, 7);
  EXPECT_EQ(disassemble(b.program()),
            (std::vector<std::string>{"0: LDI r31, 7", "1: ACT b2, row=r31", "2: LDI r30, 0",
                                      "3: SLEEP 9", "4: RD b2, col=r30", "5: LDI r30, 1",
                                      "6: RD b2, col=r30", "7: LDI r30, 2", "8: RD b2, col=r30",
                                      "9: SLEEP 3", "10: PRE b2", "11: SLEEP 7"}));
  // PRE at 22 = max(ACT + tRAS, 17 + tRTP), closed at 31.
  EXPECT_EQ(b.virtual_cycles(), 31u);
}

TEST_F(ProgramTest, TouchRowIsOneActPreAtTRasAndTRc) {
  ProgramBuilder b(geometry_, timings_);
  b.touch_row(3, 9);
  EXPECT_EQ(disassemble(b.program()),
            (std::vector<std::string>{"0: LDI r31, 9", "1: ACT b3, row=r31", "2: SLEEP 18",
                                      "3: PRE b3", "4: SLEEP 7"}));
  // PRE at 21 = ACT + tRAS; the next ACT may issue at 30 = PRE + tRP.
  EXPECT_EQ(b.virtual_cycles(), 30u);
}

TEST_F(ProgramTest, FullRowEmittersAtPaperGeometry) {
  // 32 columns: 2 + 32 x (LDI, op) + 4 pads/PRE = 70 instructions each;
  // the last column issues at 13 + 2 x 31 = 75.
  ProgramBuilder init(geometry_, timings_);
  init.init_row(0, 42, 0);
  EXPECT_EQ(init.program().instructions().size(), 70u);
  EXPECT_EQ(init.virtual_cycles(), 75u + timings_.tWR + timings_.tRP);
  ProgramBuilder read(geometry_, timings_);
  read.read_row(0, 42);
  EXPECT_EQ(read.program().instructions().size(), 70u);
  EXPECT_EQ(read.virtual_cycles(), 75u + timings_.tRTP + timings_.tRP);
}

TEST_F(ProgramTest, PaddingUsesANopForAOneCycleGap) {
  // tRAS 2 leaves a one-cycle gap between the ACT and its PRE: a NOP, since
  // a SLEEP costs at least two cycles.
  timings_.tRAS = 2;
  timings_.tRC = 3;
  ProgramBuilder b(geometry_, timings_);
  b.touch_row(0, 5);
  EXPECT_EQ(disassemble(b.program()),
            (std::vector<std::string>{"0: LDI r31, 5", "1: ACT b0, row=r31", "2: NOP",
                                      "3: PRE b0", "4: SLEEP 7"}));
  EXPECT_EQ(b.virtual_cycles(), 3u + timings_.tRP);
}

}  // namespace
}  // namespace rh::bender
