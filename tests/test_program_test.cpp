// The shared RowHammer test-program layout (core/test_program): the §3.1
// prologue, the Table 1 neighbourhood at the bank edges, and the flip tally.
#include "core/test_program.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "bender/instruction.hpp"
#include "core/data_patterns.hpp"
#include "hbm/geometry.hpp"
#include "hbm/mode_registers.hpp"
#include "hbm/timing.hpp"

namespace rh::core {
namespace {

/// (logical row, wide register) of every init_row, in program order: each
/// init_row is LDI r31 <row>, ACT, then WRs from one wide register.
std::vector<std::pair<std::uint32_t, std::uint8_t>> written_rows(
    const bender::Program& program) {
  std::vector<std::pair<std::uint32_t, std::uint8_t>> rows;
  std::int64_t row = -1;
  for (const auto& ins : program.instructions()) {
    if (ins.op == bender::Opcode::kLdi && ins.rd == 31) row = ins.imm;
    if (ins.op == bender::Opcode::kWr &&
        (rows.empty() || rows.back().first != static_cast<std::uint32_t>(row))) {
      rows.emplace_back(static_cast<std::uint32_t>(row), ins.wide);
    }
  }
  return rows;
}

class TestProgramTest : public ::testing::Test {
protected:
  TestProgramTest() {
    // A non-identity map, so the test sees logical rows being written.
    map_.set(0, 1);
    map_.set(1, 0);
  }

  hbm::Geometry geometry_ = hbm::paper_geometry();
  hbm::TimingParams timings_ = hbm::paper_timings();
  RowMap map_{geometry_.rows_per_bank};
  bender::ProgramBuilder b_{geometry_, timings_};
};

TEST_F(TestProgramTest, PrologueTurnsEccOffAndLoadsBothImages) {
  raw_flip_prologue(b_, 0x55, 0xAA);
  const auto& code = b_.program().instructions();
  ASSERT_EQ(code.size(), 1u);
  EXPECT_EQ(code[0].op, bender::Opcode::kMrs);
  EXPECT_EQ(code[0].rd, hbm::ModeRegisters::kEccRegister);
  EXPECT_EQ(code[0].imm, 0);
  const auto victim = make_row_image(geometry_, 0x55);
  const auto aggressor = make_row_image(geometry_, 0xAA);
  EXPECT_TRUE(std::ranges::equal(b_.program().wide_register(kVictimWide), victim));
  EXPECT_TRUE(std::ranges::equal(b_.program().wide_register(kAggressorWide), aggressor));
}

TEST_F(TestProgramTest, NeighbourhoodAtRowZeroHasNoRowsAbove) {
  raw_flip_prologue(b_, 0x00, 0xFF);
  init_neighbourhood(b_, map_, 0, 0, 2);
  // Physical 0, 1, 2 -> logical 1, 0, 2; only V+1 is an aggressor.
  EXPECT_EQ(written_rows(b_.program()),
            (std::vector<std::pair<std::uint32_t, std::uint8_t>>{
                {1, kVictimWide}, {0, kAggressorWide}, {2, kVictimWide}}));
}

TEST_F(TestProgramTest, NeighbourhoodAtRowOneClipsAtTheBankEdge) {
  raw_flip_prologue(b_, 0x00, 0xFF);
  init_neighbourhood(b_, map_, 0, 1, 2);
  // Physical -1 does not exist; physical 0 .. 3 in ascending order.
  EXPECT_EQ(written_rows(b_.program()),
            (std::vector<std::pair<std::uint32_t, std::uint8_t>>{{1, kAggressorWide},
                                                                 {0, kVictimWide},
                                                                 {2, kAggressorWide},
                                                                 {3, kVictimWide}}));
}

TEST_F(TestProgramTest, NeighbourhoodAtTheLastRowHasNoRowsBelow) {
  raw_flip_prologue(b_, 0x00, 0xFF);
  const std::uint32_t last = geometry_.rows_per_bank - 1;
  init_neighbourhood(b_, map_, 0, last, 8);
  std::vector<std::pair<std::uint32_t, std::uint8_t>> expected;
  for (std::uint32_t p = last - 8; p <= last; ++p) {
    expected.emplace_back(p, p == last - 1 ? kAggressorWide : kVictimWide);
  }
  EXPECT_EQ(written_rows(b_.program()), expected);
}

TEST_F(TestProgramTest, NeighbourhoodLowersEachRowThroughInitRow) {
  raw_flip_prologue(b_, 0x00, 0xFF);
  init_neighbourhood(b_, map_, 4, 100, 8);
  bender::ProgramBuilder by_hand(geometry_, timings_);
  raw_flip_prologue(by_hand, 0x00, 0xFF);
  for (std::uint32_t p = 92; p <= 108; ++p) {
    by_hand.init_row(4, map_.physical_to_logical(p),
                     p == 99 || p == 101 ? kAggressorWide : kVictimWide);
  }
  EXPECT_EQ(bender::disassemble(b_.program()), bender::disassemble(by_hand.program()));
  EXPECT_EQ(b_.virtual_cycles(), by_hand.virtual_cycles());
}

TEST(TallyFlips, SplitsFlipsByDirection) {
  // Written 0x55 = 0101'0101. 0x54 loses a 1; 0x57 gains a 1; 0xAA flips
  // all eight bits (four each way); 0x55 is intact.
  const std::vector<std::uint8_t> readback{0x54, 0x57, 0xAA, 0x55};
  const FlipTally t = tally_flips(readback, 0x55);
  EXPECT_EQ(t.bits, 10u);
  EXPECT_EQ(t.ones_to_zeros, 5u);
  EXPECT_EQ(t.zeros_to_ones, 5u);
}

TEST(TallyFlips, CountsWholeWordsAndTheTrailingBytesAlike) {
  // 19 bytes: two 8-byte words and a 3-byte tail, one flip of each
  // direction in each part. Written 0xF0: bit 7 can only fall, bit 0 only
  // rise.
  std::vector<std::uint8_t> readback(19, 0xF0);
  for (const std::size_t i : {2u, 13u, 17u}) readback[i] = 0x70;   // 1 -> 0
  for (const std::size_t i : {5u, 8u, 18u}) readback[i] = 0xF1;    // 0 -> 1
  const FlipTally t = tally_flips(readback, 0xF0);
  EXPECT_EQ(t.bits, 6u);
  EXPECT_EQ(t.ones_to_zeros, 3u);
  EXPECT_EQ(t.zeros_to_ones, 3u);
}

TEST(TallyFlips, AllZeroAndAllOneRowsFlipOneWayOnly) {
  const std::vector<std::uint8_t> readback{0x01, 0x80, 0x00};
  const FlipTally up = tally_flips(readback, 0x00);
  EXPECT_EQ(up.bits, 2u);
  EXPECT_EQ(up.ones_to_zeros, 0u);
  EXPECT_EQ(up.zeros_to_ones, 2u);
  const FlipTally down = tally_flips(readback, 0xFF);
  EXPECT_EQ(down.bits, 22u);
  EXPECT_EQ(down.ones_to_zeros, 22u);
  EXPECT_EQ(down.zeros_to_ones, 0u);
  EXPECT_EQ(tally_flips({}, 0xFF).bits, 0u);
}

}  // namespace
}  // namespace rh::core
