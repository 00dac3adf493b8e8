// Unit tests for the HRISC ISA: encode/decode round trips, the 28-bit jump-range rule
// (the linchpin of the trampoline machinery), and the disassembler.
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/base/layout.h"
#include "src/isa/isa.h"

namespace hemlock {
namespace {

TEST(IsaTest, EncodeDecodeRType) {
  uint32_t word = EncodeR(Funct::kAdd, kRegV0, kRegT0, kRegT1);
  std::optional<Instr> in = Decode(word);
  ASSERT_TRUE(in.has_value());
  EXPECT_EQ(in->op, Op::kRType);
  EXPECT_EQ(in->funct, Funct::kAdd);
  EXPECT_EQ(in->rd, kRegV0);
  EXPECT_EQ(in->rs, kRegT0);
  EXPECT_EQ(in->rt, kRegT1);
}

TEST(IsaTest, EncodeDecodeIType) {
  uint32_t word = EncodeI(Op::kAddi, kRegSp, kRegSp, static_cast<uint16_t>(-8));
  std::optional<Instr> in = Decode(word);
  ASSERT_TRUE(in.has_value());
  EXPECT_EQ(in->op, Op::kAddi);
  EXPECT_EQ(in->rt, kRegSp);
  EXPECT_EQ(in->rs, kRegSp);
  EXPECT_EQ(in->imm, -8);
}

TEST(IsaTest, EncodeDecodeJType) {
  uint32_t word = EncodeJ(Op::kJal, 0x123456);
  std::optional<Instr> in = Decode(word);
  ASSERT_TRUE(in.has_value());
  EXPECT_EQ(in->op, Op::kJal);
  EXPECT_EQ(in->target, 0x123456u);
}

TEST(IsaTest, IllegalOpcodesRejected) {
  // Opcode 0x3F is unassigned.
  EXPECT_FALSE(Decode(0xFC000000u).has_value());
  // R-type with unassigned funct 0x3F.
  EXPECT_FALSE(Decode(0x0000003Fu).has_value());
}

TEST(IsaTest, NopIsSllZero) {
  std::optional<Instr> in = Decode(EncodeNop());
  ASSERT_TRUE(in.has_value());
  EXPECT_EQ(in->op, Op::kRType);
  EXPECT_EQ(in->funct, Funct::kSll);
  EXPECT_EQ(Disassemble(EncodeNop(), 0), "nop");
}

TEST(IsaTest, JumpRangeIsThe256MbRegion) {
  // Same region: reachable.
  EXPECT_TRUE(JumpInRange(0x00001000, 0x00002000));
  EXPECT_TRUE(JumpInRange(0x00001000, 0x0FFFFFFC));
  // Private text (region 0) to the shared region (region 3): unreachable — this is
  // exactly why lds must emit trampolines for calls into public modules.
  EXPECT_FALSE(JumpInRange(0x00001000, kSfsBase));
  EXPECT_FALSE(JumpInRange(kSfsBase, 0x00001000));
  // Within the shared region but across a 256 MB boundary: unreachable.
  EXPECT_FALSE(JumpInRange(0x3FFFFFF8, 0x40000000));
  // The region is computed from pc+4 (delay-slot-free variant of the MIPS rule).
  EXPECT_TRUE(JumpInRange(0x0FFFFFFC, 0x10000000));
}

TEST(IsaTest, JumpTargetComposition) {
  uint32_t pc = 0x30001000;
  uint32_t target = 0x30345678;
  uint32_t t26 = (target >> 2) & 0x03FFFFFF;
  EXPECT_EQ(JumpTarget(pc, t26), target);
}

// Property: Decode(Encode(x)) == fields for a sweep of field values.
class IsaRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(IsaRoundTripTest, ITypeImmediates) {
  int16_t imm = static_cast<int16_t>(GetParam() * 3181);
  for (Op op : {Op::kAddi, Op::kOri, Op::kLw, Op::kSw, Op::kBeq, Op::kLui}) {
    uint32_t word = EncodeI(op, kRegT3, kRegT4, static_cast<uint16_t>(imm));
    std::optional<Instr> in = Decode(word);
    ASSERT_TRUE(in.has_value());
    EXPECT_EQ(in->op, op);
    EXPECT_EQ(in->imm, imm);
    EXPECT_EQ(in->rt, kRegT3);
    EXPECT_EQ(in->rs, kRegT4);
  }
}
INSTANTIATE_TEST_SUITE_P(Sweep, IsaRoundTripTest, ::testing::Range(-10, 11));

// Rows of the syscall table may not share a number or an intrinsic name, every
// number indexes a table kSysLimit long, and arguments fit in $a0..$a2.
TEST(IsaTest, SyscallTableRowsAreDistinct) {
  std::set<uint32_t> numbers;
  std::set<std::string> intrinsics;
  for (const SyscallInfo& sys : kSyscalls) {
    EXPECT_TRUE(numbers.insert(static_cast<uint32_t>(sys.number)).second) << sys.intrinsic;
    EXPECT_TRUE(intrinsics.insert(sys.intrinsic).second) << sys.intrinsic;
    EXPECT_LT(static_cast<uint32_t>(sys.number), kSysLimit) << sys.intrinsic;
    EXPECT_LE(sys.nargs, 3) << sys.intrinsic;
  }
  EXPECT_EQ(numbers.count(0), 0u) << "0 stays unknown";
}

TEST(IsaTest, RegNames) {
  EXPECT_STREQ(RegName(kRegZero), "$zero");
  EXPECT_STREQ(RegName(kRegSp), "$sp");
  EXPECT_STREQ(RegName(kRegGp), "$gp");
  EXPECT_STREQ(RegName(kRegRa), "$ra");
  EXPECT_STREQ(RegName(99), "$??");
}

TEST(DisassembleTest, SpotChecks) {
  EXPECT_EQ(Disassemble(EncodeR(Funct::kAdd, kRegV0, kRegA0, kRegA1), 0),
            "add $v0, $a0, $a1");
  EXPECT_EQ(Disassemble(EncodeLui(kRegT0, 0x3000), 0), "lui $t0, 0x3000");
  EXPECT_EQ(Disassemble(EncodeOri(kRegT0, kRegT0, 0x1234), 0), "ori $t0, $t0, 0x1234");
  EXPECT_EQ(Disassemble(EncodeJr(kRegAt), 0), "jr $at");
  EXPECT_EQ(Disassemble(EncodeSyscall(), 0), "syscall");
  EXPECT_EQ(Disassemble(EncodeI(Op::kLw, kRegV0, kRegFp, static_cast<uint16_t>(-4)), 0),
            "lw $v0, -4($fp)");
  // Branch displacement is shown as the resolved address.
  uint32_t branch = EncodeI(Op::kBeq, kRegZero, kRegZero, 3);
  EXPECT_EQ(Disassemble(branch, 0x100), "beq $zero, $zero, 0x00000110");
  // Jump target composes with the pc's region.
  uint32_t j = EncodeJ(Op::kJ, (0x00400u >> 2));
  EXPECT_EQ(Disassemble(j, 0x1000), "j 0x00000400");
  // Undecodable words render as .word.
  EXPECT_EQ(Disassemble(0xFC000000u, 0), ".word 0xfc000000");
}

TEST(IsaTest, TrampolineSequenceEncodes) {
  // The three-instruction far-jump fragment must decode to what the paper describes:
  // load the target address into a register and jump indirectly.
  uint32_t target = 0x30455678;
  uint32_t lui = EncodeLui(kRegAt, static_cast<uint16_t>(target >> 16));
  uint32_t ori = EncodeOri(kRegAt, kRegAt, static_cast<uint16_t>(target));
  uint32_t jr = EncodeJr(kRegAt);
  EXPECT_EQ(Disassemble(lui, 0), "lui $at, 0x3045");
  EXPECT_EQ(Disassemble(ori, 4), "ori $at, $at, 0x5678");
  EXPECT_EQ(Disassemble(jr, 8), "jr $at");
}

}  // namespace
}  // namespace hemlock
