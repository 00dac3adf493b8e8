// Tests for the template-JIT tier above the decoded-block cache: hot blocks
// compile to host code and chain to each other, but every architectural edge —
// quantum cuts, faults, division traps, self-modifying stores, arena exhaustion
// — must land exactly where the reference decode-every-step loop lands. The
// world-level tests pin the production configuration (JIT on by default) against
// the reference interpreter byte-for-byte, including under 4-core SMP SMC.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/layout.h"
#include "src/base/strings.h"
#include "src/isa/isa.h"
#include "src/kernel/scheduler.h"
#include "src/runtime/world.h"
#include "src/vm/cpu.h"
#include "src/vm/exec_cache.h"
#include "src/vm/jit.h"
#include "src/vm/machine.h"

namespace hemlock {
namespace {

uint64_t MetricValue(const MetricsSnapshot& m, const std::string& name) {
  auto it = m.find(name);
  return it == m.end() ? 0 : it->second;
}

// --- Cpu-level: the JIT wired next to the block cache, threshold 1 ---

class JitCpuTest : public ::testing::Test {
 protected:
  SharedFs sfs_;
  AddressSpace space_{&sfs_};
  ExecCache cache_;
  Jit jit_;
  uint64_t compiled_ = 0, chained_ = 0, deopts_ = 0, bailouts_ = 0;
  uint64_t arena_bytes_ = 0, tlb_hits_ = 0;

  void SetUp() override {
    if (!Jit::HostSupported()) {
      GTEST_SKIP() << "no template backend for this host architecture";
    }
    jit_.set_threshold(1);  // compile on first dispatch: every test exercises it
    jit_.WireCounters(&compiled_, &chained_, &deopts_, &bailouts_, &arena_bytes_,
                      &tlb_hits_);
  }

  // Writes |words| at vaddr 0 in a fresh kAll private page (code and data
  // legally share it, so stores can rewrite instructions).
  void InstallCode(const std::vector<uint32_t>& words) {
    auto backing = std::make_shared<std::vector<uint8_t>>(kPageSize, 0);
    ASSERT_TRUE(space_.MapPrivate(0, kPageSize, Prot::kAll, backing, 0).ok());
    for (size_t i = 0; i < words.size(); ++i) {
      Fault fault;
      ASSERT_TRUE(space_.Store32(static_cast<uint32_t>(4 * i), words[i], &fault));
    }
  }

  // Runs |words| on the reference decode-every-step loop in a throwaway space
  // and returns the final state, for differential assertions.
  struct RefRun {
    CpuState st;
    StopReason stop;
    uint64_t steps = 0;
    Fault fault;
  };
  RefRun RunReference(const std::vector<uint32_t>& words, uint64_t budget = 100000) {
    RefRun out;
    SharedFs sfs;
    AddressSpace space(&sfs);
    auto backing = std::make_shared<std::vector<uint8_t>>(kPageSize, 0);
    EXPECT_TRUE(space.MapPrivate(0, kPageSize, Prot::kAll, backing, 0).ok());
    for (size_t i = 0; i < words.size(); ++i) {
      Fault fault;
      EXPECT_TRUE(space.Store32(static_cast<uint32_t>(4 * i), words[i], &fault));
    }
    Cpu cpu(&space);  // no exec cache, no jit: the reference loop
    out.stop = cpu.Run(&out.st, budget, &out.steps, &out.fault);
    return out;
  }
};

TEST_F(JitCpuTest, CompilesChainsAndMatchesReferenceOnAHotLoop) {
  //   0x00 addi t0, zero, 0
  //   0x04 addi t1, zero, 1000
  //   0x08 addi t0, t0, 1        <- loop head (branch target: its own block)
  //   0x0C bne  t0, t1, -> 0x08
  //   0x10 break
  std::vector<uint32_t> words = {
      EncodeI(Op::kAddi, kRegT0, kRegZero, 0),
      EncodeI(Op::kAddi, kRegT1, kRegZero, 1000),
      EncodeI(Op::kAddi, kRegT0, kRegT0, 1),
      EncodeI(Op::kBne, kRegT1, kRegT0, static_cast<uint16_t>(-2)),
      EncodeBreak(),
  };
  InstallCode(words);
  Cpu cpu(&space_);
  cpu.set_exec_cache(&cache_);
  cpu.set_jit(&jit_);
  CpuState st;
  uint64_t steps = 0;
  Fault fault;
  EXPECT_EQ(cpu.Run(&st, 100000, &steps, &fault), StopReason::kBreak);
  EXPECT_EQ(st.regs[kRegT0], 1000u);

  RefRun ref = RunReference(words);
  EXPECT_EQ(ref.stop, StopReason::kBreak);
  EXPECT_EQ(st.regs, ref.st.regs);
  EXPECT_EQ(st.pc, ref.st.pc);
  EXPECT_EQ(steps, ref.steps) << "retired-instruction accounting diverged";

  // The loop head compiled and chained back to itself (and onward to break).
  EXPECT_GE(compiled_, 2u);
  EXPECT_GE(chained_, 1u);
  EXPECT_GT(arena_bytes_, 0u);
  EXPECT_EQ(deopts_, 0u);
}

TEST_F(JitCpuTest, QuantumEdgeStillCutsAtTheExactInstruction) {
  InstallCode({
      EncodeI(Op::kAddi, kRegT0, kRegZero, 1),
      EncodeI(Op::kAddi, kRegT1, kRegZero, 2),
      EncodeI(Op::kAddi, kRegT2, kRegZero, 3),
      EncodeBreak(),
  });
  Cpu cpu(&space_);
  cpu.set_exec_cache(&cache_);
  cpu.set_jit(&jit_);
  CpuState st;
  uint64_t steps = 0;
  Fault fault;
  // Budget 2 is shorter than the block: the JIT must decline (not round the
  // quantum up to a block boundary) and the interpreter cuts after exactly 2.
  EXPECT_EQ(cpu.Run(&st, 2, &steps, &fault), StopReason::kSteps);
  EXPECT_EQ(steps, 2u);
  EXPECT_EQ(st.pc, 8u);
  EXPECT_EQ(st.regs[kRegT2], 0u);
  EXPECT_EQ(cpu.Run(&st, 100, &steps, &fault), StopReason::kBreak);
  EXPECT_EQ(st.regs[kRegT2], 3u);
}

// A stand-in for the machine's in-place hook: serves every call it is offered
// (answering 42 in $v0) or declines them all.
struct HookProbe {
  CpuState* st = nullptr;
  bool serve = true;
  int offered = 0;
  static bool Hook(void* arg) {
    HookProbe* probe = static_cast<HookProbe*>(arg);
    ++probe->offered;
    if (!probe->serve) {
      return false;
    }
    probe->st->regs[kRegV0] = 42;
    return true;
  }
};

TEST_F(JitCpuTest, ServedSyscallChainsOnAndTakesItsBudgetStep) {
  //   0x00 addi t0, zero, 1
  //   0x04 syscall          <- served: chains to 0x08
  //   0x08 addi t0, t0, 1
  //   0x0C syscall          <- served
  //   0x10 break
  InstallCode({
      EncodeI(Op::kAddi, kRegT0, kRegZero, 1),
      EncodeSyscall(),
      EncodeI(Op::kAddi, kRegT0, kRegT0, 1),
      EncodeSyscall(),
      EncodeBreak(),
  });
  Cpu cpu(&space_);
  cpu.set_exec_cache(&cache_);
  cpu.set_jit(&jit_);
  CpuState st;
  HookProbe probe;
  probe.st = &st;
  jit_.set_syscall_hook(&HookProbe::Hook, &probe);
  uint64_t steps = 0;
  Fault fault;
  // The first pass compiles each block as it reaches it; the second runs the
  // syscalls' chain slots patched straight into their successors.
  for (int pass = 0; pass < 2; ++pass) {
    st = CpuState{};
    probe.offered = 0;
    EXPECT_EQ(cpu.Run(&st, 100000, &steps, &fault), StopReason::kBreak) << "pass " << pass;
    EXPECT_EQ(probe.offered, 2);
    EXPECT_EQ(st.regs[kRegV0], 42u);
    EXPECT_EQ(st.regs[kRegT0], 2u);
    EXPECT_EQ(st.pc, 0x14u);
    EXPECT_EQ(steps, 5u + 2u) << "five instructions plus one budget step per served call";
  }
  EXPECT_GE(chained_, 2u);

  // Declined: the syscall exits exactly as without a hook.
  st = CpuState{};
  probe.serve = false;
  probe.offered = 0;
  EXPECT_EQ(cpu.Run(&st, 100000, &steps, &fault), StopReason::kSyscall);
  EXPECT_EQ(probe.offered, 1);
  EXPECT_EQ(st.pc, 8u);
  EXPECT_EQ(steps, 2u);

  // Fuel that the budget step would use up: not offered, the kernel path ends
  // the quantum where it always has.
  st = CpuState{};
  probe.serve = true;
  probe.offered = 0;
  EXPECT_EQ(cpu.Run(&st, 3, &steps, &fault), StopReason::kSyscall);
  EXPECT_EQ(probe.offered, 0);
  EXPECT_EQ(steps, 2u);
}

TEST_F(JitCpuTest, FaultingLoadLeavesPcAtTheInstruction) {
  std::vector<uint32_t> words = {
      EncodeI(Op::kAddi, kRegT0, kRegZero, 1),
      EncodeI(Op::kLw, kRegT1, kRegZero, 0x7FF0),  // unmapped: faults
      EncodeBreak(),
  };
  InstallCode(words);
  Cpu cpu(&space_);
  cpu.set_exec_cache(&cache_);
  cpu.set_jit(&jit_);
  CpuState st;
  uint64_t steps = 0;
  Fault fault;
  EXPECT_EQ(cpu.Run(&st, 100, &steps, &fault), StopReason::kFault);
  EXPECT_EQ(steps, 1u);  // the faulting lw is not counted (fuel refunded)
  EXPECT_EQ(st.pc, 4u);  // pc at the faulting lw, ready for retry
  EXPECT_EQ(fault.addr, 0x7FF0u);
  EXPECT_GE(compiled_, 1u) << "the block never reached native code";

  RefRun ref = RunReference(words);
  EXPECT_EQ(ref.stop, StopReason::kFault);
  EXPECT_EQ(st.pc, ref.st.pc);
  EXPECT_EQ(steps, ref.steps);
  EXPECT_EQ(fault.addr, ref.fault.addr);
}

TEST_F(JitCpuTest, DivByZeroTrapsLikeTheReferenceLoop) {
  std::vector<uint32_t> words = {
      EncodeI(Op::kAddi, kRegT0, kRegZero, 7),
      EncodeI(Op::kAddi, kRegT1, kRegZero, 0),
      EncodeR(Funct::kDiv, kRegT2, kRegT0, kRegT1),
      EncodeBreak(),
  };
  InstallCode(words);
  Cpu cpu(&space_);
  cpu.set_exec_cache(&cache_);
  cpu.set_jit(&jit_);
  CpuState st;
  uint64_t steps = 0;
  Fault fault;
  StopReason stop = cpu.Run(&st, 100, &steps, &fault);

  RefRun ref = RunReference(words);
  EXPECT_EQ(stop, ref.stop);
  EXPECT_EQ(st.pc, ref.st.pc);
  EXPECT_EQ(steps, ref.steps);
  EXPECT_EQ(st.regs, ref.st.regs);
  EXPECT_EQ(stop, StopReason::kDivZero);
  EXPECT_GE(compiled_, 1u);
}

TEST_F(JitCpuTest, InBlockSelfModificationDeoptsAndMatchesReference) {
  // The store at 0x04 rewrites the instruction at 0x0C in its *own* compiled
  // block. The store helper sees the code epoch move and exits native code
  // after the store; the next dispatch retires the arena and recompiles.
  std::vector<uint32_t> words = {
      EncodeI(Op::kAddi, kRegT1, kRegZero, 0),
      EncodeI(Op::kSw, kRegT2, kRegZero, 0x0C),
      EncodeI(Op::kAddi, kRegT3, kRegZero, 11),
      EncodeI(Op::kAddi, kRegT4, kRegZero, 11),
      EncodeBreak(),
  };
  uint32_t patched = EncodeI(Op::kAddi, kRegT4, kRegZero, 22);
  InstallCode(words);
  Cpu cpu(&space_);
  cpu.set_exec_cache(&cache_);
  cpu.set_jit(&jit_);
  CpuState st;
  st.regs[kRegT2] = patched;
  uint64_t steps = 0;
  Fault fault;
  EXPECT_EQ(cpu.Run(&st, 100, &steps, &fault), StopReason::kBreak);
  EXPECT_EQ(steps, 5u);
  EXPECT_EQ(st.regs[kRegT4], 22u) << "stale compiled block executed after the store";
  EXPECT_EQ(st.regs[kRegT3], 11u);
  EXPECT_GE(compiled_, 1u);
  EXPECT_GE(deopts_, 1u) << "the SMC exit never retired the compiled block";
}

TEST_F(JitCpuTest, ArenaExhaustionFallsBackToTheBlockCache) {
  // A minimum-size (one page) arena and a straight-line block whose expansion
  // cannot fit it: the first Compile overflows, latches arena-full, and every
  // later dispatch stays on the interpreter tier.
  Jit tiny(/*arena_bytes=*/kPageSize);
  tiny.set_threshold(1);
  uint64_t c = 0, ch = 0, d = 0, b = 0, ab = 0, th = 0;
  tiny.WireCounters(&c, &ch, &d, &b, &ab, &th);
  std::vector<uint32_t> words;
  for (int i = 0; i < 256; ++i) {  // 256 TLB-probing loads ≫ one page of host code
    words.push_back(EncodeI(Op::kLw, kRegT0, kRegZero, 0x800));
  }
  words.push_back(EncodeI(Op::kAddi, kRegT1, kRegZero, 7));
  words.push_back(EncodeBreak());
  InstallCode(words);
  Cpu cpu(&space_);
  cpu.set_exec_cache(&cache_);
  cpu.set_jit(&tiny);
  CpuState st;
  uint64_t steps = 0;
  Fault fault;
  EXPECT_EQ(cpu.Run(&st, 1000, &steps, &fault), StopReason::kBreak);
  EXPECT_EQ(st.regs[kRegT1], 7u);
  EXPECT_EQ(tiny.compiled_blocks(), 0u);
  EXPECT_TRUE(tiny.arena_full());
  EXPECT_GE(b, 1u);
  // And the run still re-dispatches safely: a second pass is pure bailouts.
  CpuState st2;
  EXPECT_EQ(cpu.Run(&st2, 1000, &steps, &fault), StopReason::kBreak);
  EXPECT_EQ(st2.regs[kRegT1], 7u);
}

// --- The one-compare probe: every tag miss lands where the reference lands ---
//
// Each case runs one program under all three engines and checks the JIT
// against the reference loop (stop reason, pc, registers, retired steps, fault)
// and against the block cache (the same, plus vm.tlb.hits and vm.tlb.misses:
// the inline probe must hit exactly where Resolve would). Code sits at
// kProbeCode, so page 0 stays unmapped and its TLB entry empty.

constexpr uint32_t kProbeCode = 0x10000;
constexpr uint32_t kProbeData = 0x20000;
constexpr uint32_t kProbeLazy = 0x30000;

struct ProbeProgram {
  std::vector<uint32_t> code;  // at kProbeCode, in a kAll page
  Prot data_prot = Prot::kReadWrite;  // the page at kProbeData
  // Initial bytes of the data page (offset, value).
  std::vector<std::pair<uint32_t, uint8_t>> data_bytes;
  // kProbeLazy is mapped read-write only when the program first faults on it,
  // the way ldl maps a segment on its first touch.
  bool lazy_page = false;
};

enum class Engine { kReference, kBlockCache, kJit };

struct EngineRun {
  CpuState st;
  StopReason stop = StopReason::kSteps;
  uint64_t steps = 0;
  Fault fault;
  uint64_t tlb_hits = 0, tlb_misses = 0;
  uint64_t compiled = 0, deopts = 0;
  int syscalls = 0, map_faults = 0;
};

// Runs |p| in 64-step quanta until it breaks, takes a fatal fault or retires
// 100000 steps. Syscall exits resume at once; a fault on the lazy page maps it
// first.
EngineRun RunProbeProgram(Engine engine, const ProbeProgram& p) {
  EngineRun out;
  SharedFs sfs;
  AddressSpace space(&sfs);
  auto page = [] { return std::make_shared<std::vector<uint8_t>>(kPageSize, 0); };
  EXPECT_TRUE(space.MapPrivate(kProbeCode, kPageSize, Prot::kAll, page(), 0).ok());
  EXPECT_TRUE(space
                  .WriteBytes(kProbeCode, reinterpret_cast<const uint8_t*>(p.code.data()),
                              static_cast<uint32_t>(4 * p.code.size()))
                  .ok());
  EXPECT_TRUE(space.MapPrivate(kProbeData, kPageSize, p.data_prot, page(), 0).ok());
  for (auto [off, value] : p.data_bytes) {
    EXPECT_TRUE(space.WriteBytes(kProbeData + off, &value, 1).ok());
  }
  uint64_t flushes = 0, chained = 0, bailouts = 0, arena_bytes = 0;
  space.WireVmCounters(&out.tlb_hits, &out.tlb_misses, &flushes);  // count the run only
  ExecCache cache;
  Jit jit;
  Cpu cpu(&space);
  if (engine != Engine::kReference) {
    cpu.set_exec_cache(&cache);
  }
  if (engine == Engine::kJit) {
    jit.set_threshold(1);
    jit.WireCounters(&out.compiled, &chained, &out.deopts, &bailouts, &arena_bytes,
                     &out.tlb_hits);
    cpu.set_jit(&jit);
  }
  out.st.pc = kProbeCode;
  while (out.steps < 100000) {
    uint64_t steps = 0;
    out.stop = cpu.Run(&out.st, /*max_steps=*/64, &steps, &out.fault);
    out.steps += steps;
    if (out.stop == StopReason::kSyscall) {
      ++out.syscalls;
    } else if (out.stop == StopReason::kFault && p.lazy_page && out.map_faults == 0 &&
               PageFloor(out.fault.addr) == kProbeLazy) {
      ++out.map_faults;
      EXPECT_TRUE(space.MapPrivate(kProbeLazy, kPageSize, Prot::kReadWrite, page(), 0).ok());
    } else if (out.stop != StopReason::kSteps) {
      break;
    }
  }
  return out;
}

void ExpectSameArchitecturalOutcome(const EngineRun& got, const EngineRun& want) {
  EXPECT_EQ(got.stop, want.stop);
  EXPECT_EQ(got.st.pc, want.st.pc);
  EXPECT_EQ(got.st.regs, want.st.regs);
  EXPECT_EQ(got.steps, want.steps) << "retired-instruction accounting diverged";
  EXPECT_EQ(got.syscalls, want.syscalls);
  EXPECT_EQ(got.map_faults, want.map_faults);
  if (want.stop == StopReason::kFault) {
    EXPECT_EQ(got.fault.addr, want.fault.addr);
    EXPECT_EQ(got.fault.access, want.fault.access);
    EXPECT_EQ(got.fault.kind, want.fault.kind);
  }
}

// Runs |p| on all three engines and returns the JIT's run after checking it.
EngineRun ExpectJitMatchesReference(const ProbeProgram& p) {
  EngineRun ref = RunProbeProgram(Engine::kReference, p);
  EngineRun blocks = RunProbeProgram(Engine::kBlockCache, p);
  EngineRun jit = RunProbeProgram(Engine::kJit, p);
  {
    SCOPED_TRACE("jit vs reference");
    ExpectSameArchitecturalOutcome(jit, ref);
  }
  {
    SCOPED_TRACE("jit vs block cache");
    ExpectSameArchitecturalOutcome(jit, blocks);
    EXPECT_EQ(jit.tlb_hits, blocks.tlb_hits);
    EXPECT_EQ(jit.tlb_misses, blocks.tlb_misses);
  }
  EXPECT_GE(jit.compiled, 1u) << "the program never reached native code";
  return jit;
}

// lui + ori: rt = |value|.
void LoadImm(std::vector<uint32_t>* code, uint8_t rt, uint32_t value) {
  code->push_back(EncodeLui(rt, static_cast<uint16_t>(value >> 16)));
  code->push_back(EncodeOri(rt, rt, static_cast<uint16_t>(value)));
}

class JitProbeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Jit::HostSupported()) {
      GTEST_SKIP() << "no template backend for this host architecture";
    }
  }
};

TEST_F(JitProbeTest, MisalignedWordAccessesFaultLikeTheReference) {
  // A warm entry (the aligned access fills it) must still miss on a misaligned
  // address in its page; and address 1 — page 0, never mapped, whose entry
  // holds the empty tag — must miss too: kTlbNoTag equals no masked address.
  for (Op op : {Op::kLw, Op::kSw}) {
    for (uint32_t addr : {kProbeData + 2, kProbeData + 0x7FD, 1u}) {
      SCOPED_TRACE(testing::Message() << (op == Op::kLw ? "lw" : "sw") << " at " << addr);
      ProbeProgram p;
      LoadImm(&p.code, kRegT0, kProbeData);
      LoadImm(&p.code, kRegT1, addr);
      p.code.push_back(EncodeI(op, kRegT2, kRegT0, 0));  // aligned: fills the entry
      p.code.push_back(EncodeI(op, kRegT2, kRegT0, 0));  // aligned: an inline hit
      p.code.push_back(EncodeI(op, kRegT2, kRegT1, 0));  // misaligned
      p.code.push_back(EncodeBreak());
      EngineRun jit = ExpectJitMatchesReference(p);
      EXPECT_EQ(jit.stop, StopReason::kFault);
      EXPECT_EQ(jit.fault.addr, addr);
      EXPECT_EQ(jit.st.pc, kProbeCode + 24);
      EXPECT_EQ(jit.fault.access, op == Op::kLw ? AccessKind::kRead : AccessKind::kWrite);
    }
  }
}

TEST_F(JitProbeTest, StoreIntoReadOnlyPageFaults) {
  // The load sets the entry's read tag; the store must not hit through it.
  ProbeProgram p;
  p.data_prot = Prot::kRead;
  LoadImm(&p.code, kRegT0, kProbeData);
  p.code.push_back(EncodeI(Op::kLw, kRegT1, kRegT0, 8));
  p.code.push_back(EncodeI(Op::kLw, kRegT1, kRegT0, 12));
  p.code.push_back(EncodeI(Op::kSb, kRegT1, kRegT0, 3));
  p.code.push_back(EncodeBreak());
  EngineRun jit = ExpectJitMatchesReference(p);
  EXPECT_EQ(jit.stop, StopReason::kFault);
  EXPECT_EQ(jit.fault.kind, FaultKind::kProtection);
  EXPECT_EQ(jit.fault.access, AccessKind::kWrite);
  EXPECT_EQ(jit.fault.addr, kProbeData + 3);
}

TEST_F(JitProbeTest, LoadFromAnUnreadablePageFaults) {
  // The kernel's write (it ignores protections) leaves a current entry for the
  // kNone page behind: it must carry no read tag, or the load would hit.
  ProbeProgram p;
  p.data_prot = Prot::kNone;
  p.data_bytes = {{0, 7}};
  LoadImm(&p.code, kRegT0, kProbeData);
  p.code.push_back(EncodeI(Op::kLw, kRegT1, kRegT0, 0));
  p.code.push_back(EncodeBreak());
  EngineRun jit = ExpectJitMatchesReference(p);
  EXPECT_EQ(jit.stop, StopReason::kFault);
  EXPECT_EQ(jit.fault.kind, FaultKind::kProtection);
  EXPECT_EQ(jit.st.regs[kRegT1], 0u);
}

TEST_F(JitProbeTest, StoreIntoExecPageTakesTheSmcDeopt) {
  // The code page is readable, writable and executable: its entry gets a read
  // tag (the lw hits inline) but never a write tag, so the sw reaches
  // NoteExecStore and rewrites the instruction at +36 in its own block.
  ProbeProgram p;
  uint32_t patched = EncodeI(Op::kAddi, kRegT4, kRegZero, 22);
  LoadImm(&p.code, kRegT0, kProbeCode);                     // +0
  LoadImm(&p.code, kRegT2, patched);                        // +8
  p.code.push_back(EncodeI(Op::kLw, kRegT1, kRegT0, 0x80));  // +16: fills the entry
  p.code.push_back(EncodeI(Op::kLw, kRegT1, kRegT0, 0x84));  // +20: inline hit
  p.code.push_back(EncodeI(Op::kSw, kRegT2, kRegT0, 36));    // +24
  p.code.push_back(EncodeI(Op::kAddi, kRegT3, kRegZero, 11));
  p.code.push_back(EncodeI(Op::kAddi, kRegT3, kRegT3, 1));
  p.code.push_back(EncodeI(Op::kAddi, kRegT4, kRegZero, 11));  // +36
  p.code.push_back(EncodeBreak());
  EngineRun jit = ExpectJitMatchesReference(p);
  EXPECT_EQ(jit.stop, StopReason::kBreak);
  EXPECT_EQ(jit.st.regs[kRegT4], 22u) << "stale compiled code ran after the store";
  EXPECT_GE(jit.deopts, 1u) << "the store never took the SMC exit";
}

TEST_F(JitProbeTest, ByteAccessesAtAPagesLastByte) {
  ProbeProgram p;
  p.data_bytes = {{0xFFC, 0x11}, {0xFFD, 0x22}, {0xFFE, 0x33}, {0xFFF, 0x80}};
  LoadImm(&p.code, kRegT0, kProbeData);
  p.code.push_back(EncodeI(Op::kLb, kRegT1, kRegT0, 0xFFF));   // fills: -128
  p.code.push_back(EncodeI(Op::kLbu, kRegT2, kRegT0, 0xFFF));  // inline: 128
  p.code.push_back(EncodeI(Op::kLw, kRegT3, kRegT0, 0xFFC));
  p.code.push_back(EncodeI(Op::kSb, kRegT2, kRegT0, 0xFFE));
  p.code.push_back(EncodeI(Op::kLb, kRegT4, kRegT0, 0xFFE));
  p.code.push_back(EncodeI(Op::kLbu, kRegT5, kRegT0, 0x1000));  // next page: unmapped
  p.code.push_back(EncodeBreak());
  EngineRun jit = ExpectJitMatchesReference(p);
  EXPECT_EQ(jit.st.regs[kRegT1], 0xFFFFFF80u);
  EXPECT_EQ(jit.st.regs[kRegT2], 0x80u);
  EXPECT_EQ(jit.st.regs[kRegT3], 0x80332211u);
  EXPECT_EQ(jit.st.regs[kRegT4], 0xFFFFFF80u);
  EXPECT_EQ(jit.stop, StopReason::kFault);
  EXPECT_EQ(jit.fault.addr, kProbeData + kPageSize);
}

TEST_F(JitProbeTest, TlbCountersMatchTheBlockCacheAcrossEveryExit) {
  // A load/store loop over two pages, one of them mapped by the first fault
  // (after which every tag is stale and must be dropped at the next entry),
  // with a syscall every 8th iteration and a store into the code page every
  // 32nd (the SMC exit). Inline hits live in a register until an exit stores
  // them, so every exit path must hand them back.
  ProbeProgram p;
  p.lazy_page = true;
  std::vector<uint32_t>& c = p.code;
  LoadImm(&c, kRegT0, kProbeData);                             // +0
  LoadImm(&c, kRegT5, kProbeLazy);                             // +8
  LoadImm(&c, kRegS0, kProbeCode);                             // +16
  c.push_back(EncodeI(Op::kAddi, kRegT6, kRegZero, 200));      // +24
  // loop (+28):
  c.push_back(EncodeI(Op::kLw, kRegT1, kRegT0, 0));            // +28
  c.push_back(EncodeI(Op::kAddi, kRegT1, kRegT1, 3));          // +32
  c.push_back(EncodeI(Op::kSw, kRegT1, kRegT0, 0));            // +36
  c.push_back(EncodeI(Op::kSb, kRegT1, kRegT0, 5));            // +40
  c.push_back(EncodeI(Op::kLbu, kRegT2, kRegT0, 5));           // +44
  c.push_back(EncodeR(Funct::kAdd, kRegT3, kRegT3, kRegT2));   // +48
  c.push_back(EncodeI(Op::kLw, kRegT4, kRegT5, 0));            // +52: lazy page
  c.push_back(EncodeR(Funct::kAdd, kRegT4, kRegT4, kRegT1));   // +56
  c.push_back(EncodeI(Op::kSw, kRegT4, kRegT5, 0));            // +60
  c.push_back(EncodeI(Op::kAndi, kRegT7, kRegT6, 7));          // +64
  c.push_back(EncodeI(Op::kBne, kRegT7, kRegZero, 1));         // +68: skip the syscall
  c.push_back(EncodeSyscall());                                // +72
  c.push_back(EncodeI(Op::kAndi, kRegT7, kRegT6, 31));         // +76
  c.push_back(EncodeI(Op::kBne, kRegT7, kRegZero, 1));         // +80: skip the SMC store
  c.push_back(EncodeI(Op::kSw, kRegT6, kRegS0, 0x800));        // +84
  c.push_back(EncodeI(Op::kAddi, kRegT6, kRegT6, -1));         // +88
  c.push_back(EncodeI(Op::kBne, kRegT6, kRegZero, static_cast<uint16_t>(-17)));  // +92
  c.push_back(EncodeBreak());                                  // +96
  EngineRun jit = ExpectJitMatchesReference(p);
  EXPECT_EQ(jit.stop, StopReason::kBreak);
  EXPECT_EQ(jit.st.regs[kRegT1], 600u);
  EXPECT_EQ(jit.syscalls, 25);
  EXPECT_EQ(jit.map_faults, 1);
  EXPECT_GE(jit.deopts, 7u) << "fault and SMC exits never left native code";
  EXPECT_GT(jit.tlb_hits, 1000u);
}

// --- End-to-end: the JIT is the default engine and must be invisible ---

constexpr char kHotLoopProg[] = R"(
  int main(void) {
    int i;
    int acc;
    acc = 1;
    for (i = 1; i < 5000; i += 1) {
      acc = acc * 3 + i;
      acc = acc - acc / 7;
      acc = acc & 16777215;
    }
    putint(acc);
    puts("\n");
    return acc & 63;
  }
)";

TEST(JitEndToEnd, ByteIdenticalToTheReferenceInterpreter) {
  HemlockWorld jit_world;
  jit_world.machine().set_slow_interp(false);  // pin: CI sets HEMLOCK_SLOW_INTERP
  jit_world.machine().set_jit_enabled(true);   // pin: CI sets HEMLOCK_JIT=0
  jit_world.machine().set_jit_threshold(1);
  Result<RunOutcome> jit = jit_world.RunProgram(kHotLoopProg);
  ASSERT_TRUE(jit.ok()) << jit.status().ToString();

  HemlockWorld slow_world;
  slow_world.machine().set_slow_interp(true);
  Result<RunOutcome> slow = slow_world.RunProgram(kHotLoopProg);
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();

  EXPECT_EQ(jit->stdout_text, slow->stdout_text);
  EXPECT_EQ(jit->exit_code, slow->exit_code);
  if (Jit::HostSupported()) {
    EXPECT_GT(MetricValue(jit->metrics, "vm.jit.compiled_blocks"), 0u);
    EXPECT_GT(MetricValue(jit->metrics, "vm.jit.arena_bytes"), 0u);
  }
  EXPECT_EQ(MetricValue(slow->metrics, "vm.jit.compiled_blocks"), 0u);
}

TEST(JitEndToEnd, ExitReleasesTheArenaAndDecodedBlocks) {
  // A zombie keeps its exit status until reaped, but never runs again: its code
  // arena and decoded blocks go at exit, whether it exits on its own or is killed
  // between dispatches, and releasing them moves no counter.
  HemlockWorld world;
  world.machine().set_slow_interp(false);  // pin: CI sets HEMLOCK_SLOW_INTERP
  world.machine().set_jit_enabled(true);   // pin: CI sets HEMLOCK_JIT=0
  world.machine().set_jit_threshold(1);
  ASSERT_TRUE(world.CompileTo(kHotLoopProg, "/home/user/hot.o").ok());
  Result<LoadImage> image = world.Link({.inputs = {{"hot.o", ShareClass::kStaticPrivate}}});
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  const MetricsRegistry& metrics = world.machine().metrics();
  for (bool killed : {false, true}) {
    SCOPED_TRACE(killed ? "killed between dispatches" : "exited");
    Result<ExecResult> run = world.Exec(*image);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    Process* proc = world.machine().FindProcess(run->pid);
    ASSERT_NE(proc, nullptr);
    EXPECT_EQ(proc->jit() != nullptr, Jit::HostSupported());
    if (killed) {
      EXPECT_EQ(world.machine().RunProcess(run->pid, 20'000), SchedStatus::kOutOfGas);
      EXPECT_GT(proc->exec_cache().blocks(), 0u);
      world.machine().KillProcess(run->pid, 9, "killed between dispatches");
    } else {
      ASSERT_TRUE(world.RunToExit(run->pid).ok());
    }
    EXPECT_EQ(proc->state(), ProcState::kZombie);
    EXPECT_EQ(proc->jit(), nullptr);
    EXPECT_EQ(proc->exec_cache().blocks(), 0u);
    EXPECT_GT(metrics.Get("vm.icache.misses"), 0u);
    // A released cache still decodes on demand.
    EXPECT_NE(proc->exec_cache().Lookup(proc->cpu().pc, &proc->space()), nullptr);
    EXPECT_EQ(proc->exec_cache().blocks(), 1u);
  }
  // Neither release counted as a flush of a live cache.
  EXPECT_EQ(metrics.Get("vm.icache.invalidations"), 0u);
}

TEST(JitEndToEnd, LdlMapFaultBetweenDispatchesMatchesTheReference) {
  // A hot loop warms the TLB tags on private pages, then follows a pointer into
  // a plain SFS file the program never mapped: ldl's fault handler maps the
  // segment (the translation epoch moves between two dispatches), and the loop
  // goes on loading and storing through both. The next native entry must drop
  // every stale tag; the output must be the reference loop's.
  auto run = [](bool slow) -> Result<RunOutcome> {
    HemlockWorld world;
    world.machine().set_slow_interp(slow);
    world.machine().set_jit_enabled(true);  // pin: CI sets HEMLOCK_JIT=0
    world.machine().set_jit_threshold(1);
    Result<uint32_t> ino = world.sfs().Create("/plain.dat");
    if (!ino.ok()) return ino.status();
    uint32_t seed = 777;
    Status wrote = world.sfs().WriteAt(*ino, 0, reinterpret_cast<uint8_t*>(&seed), 4);
    if (!wrote.ok()) return wrote;
    Result<uint32_t> addr = world.sfs().AddressOf(*ino);
    if (!addr.ok()) return addr.status();
    return world.RunProgram(StrFormat(R"(
      int table[64];
      int main(void) {
        int i;
        int acc;
        int *p;
        acc = 0;
        for (i = 0; i < 2000; i += 1) {
          table[i & 63] = table[(i * 7) & 63] + i;
          acc = acc + table[i & 63];
        }
        p = %u;
        for (i = 0; i < 2000; i += 1) {
          p[i & 15] = p[(i + 1) & 15] + table[i & 63];
          acc = acc + p[i & 15];
        }
        putint(acc);
        puts("\n");
        return acc & 63;
      }
    )",
                                      *addr));
  };
  Result<RunOutcome> jit = run(/*slow=*/false);
  ASSERT_TRUE(jit.ok()) << jit.status().ToString();
  Result<RunOutcome> slow = run(/*slow=*/true);
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_EQ(jit->stdout_text, slow->stdout_text);
  EXPECT_EQ(jit->exit_code, slow->exit_code);
  EXPECT_GE(MetricValue(jit->metrics, "ldl.map_faults"), 1u);
  if (Jit::HostSupported()) {
    EXPECT_GT(MetricValue(jit->metrics, "vm.jit.compiled_blocks"), 0u);
  }
}

TEST(JitEndToEnd, RaceDetectorKeepsTheJitOff) {
  // The race detector needs the observed per-access interpreter loop; a quantum
  // that ran native code would silently drop accesses from the happens-before
  // graph. The engine must self-disable, not merely under-report. Tracing is
  // the opposite case: every trace event comes from the kernel path, so the JIT
  // stays on under it.
  HemlockWorld slow_world;
  slow_world.machine().set_slow_interp(true);
  Result<RunOutcome> slow = slow_world.RunProgram(kHotLoopProg);
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  for (bool race : {true, false}) {
    HemlockWorld world;
    world.machine().set_slow_interp(false);  // pin: CI sets HEMLOCK_SLOW_INTERP
    world.machine().set_jit_enabled(true);   // pin: CI sets HEMLOCK_JIT=0
    world.machine().set_jit_threshold(1);
    if (race) {
      world.machine().EnableRaceDetector();
    } else {
      world.machine().trace().set_enabled(true);
    }
    Result<RunOutcome> out = world.RunProgram(kHotLoopProg);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    if (race) {
      EXPECT_EQ(MetricValue(out->metrics, "vm.jit.compiled_blocks"), 0u)
          << "native code ran under the race detector";
    } else if (Jit::HostSupported()) {
      EXPECT_GT(MetricValue(out->metrics, "vm.jit.compiled_blocks"), 0u)
          << "tracing turned the JIT off";
    }
    EXPECT_EQ(out->stdout_text, slow->stdout_text);
    EXPECT_EQ(out->exit_code, slow->exit_code);
  }
}

// --- SMP: cross-core SMC with compiled blocks on every core ---

// The writer patches a shared function's code while readers on other cores sit
// in compiled blocks that called it. The code-epoch bump must unlink/retire the
// compiled code on every core exactly like it retires decoded blocks: 4 real
// cores must be byte-for-byte the single-core reference.
TEST(JitSmp, CrossCoreSmcByteIdenticalAcrossCoreCounts) {
  auto run_once = [](int cores) -> std::vector<std::string> {
    HemlockWorld world;
    world.machine().set_slow_interp(false);  // pin: CI sets HEMLOCK_SLOW_INTERP
    world.machine().set_jit_enabled(true);   // pin: CI sets HEMLOCK_JIT=0
    world.machine().set_jit_threshold(1);
    CompileOptions no_prelude;
    no_prelude.include_prelude = false;
    (void)world.vfs().MkdirAll("/shm/lib");
    EXPECT_TRUE(world
                    .CompileTo("int phase = 0;\nint f(void) { return 12345; }\n",
                               "/shm/lib/smc_db.o", no_prelude)
                    .ok());
    EXPECT_TRUE(world
                    .CompileTo(
                        "extern int phase;\n"
                        "extern int f[8];\n"
                        "int main(void) {\n"
                        "  int i;\n"
                        "  while (sys_cas(&phase, 2, 2) != 2) {\n"
                        "    sys_yield();\n"
                        "  }\n"
                        "  for (i = 0; i < 8; i += 1) {\n"
                        "    if (f[i] % 65536 == 12345) {\n"
                        "      f[i] = f[i] + 2;\n"
                        "    }\n"
                        "  }\n"
                        "  sys_cas(&phase, 2, 3);\n"
                        "  return 0;\n"
                        "}\n",
                        "/home/user/smc_writer.o")
                    .ok());
    EXPECT_TRUE(world
                    .CompileTo(
                        "extern int phase;\n"
                        "extern int f(void);\n"
                        "int main(void) {\n"
                        "  int before;\n"
                        "  int after;\n"
                        "  before = f();\n"
                        "  sys_cas(&phase, 0, 1);\n"
                        "  sys_cas(&phase, 1, 2);\n"
                        "  while (sys_cas(&phase, 3, 3) != 3) {\n"
                        "    sys_yield();\n"
                        "  }\n"
                        "  after = f();\n"
                        "  putint(before);\n"
                        "  puts(\"->\");\n"
                        "  putint(after);\n"
                        "  puts(\"\\n\");\n"
                        "  return 0;\n"
                        "}\n",
                        "/home/user/smc_reader.o")
                    .ok());
    auto link_one = [&](const char* obj) {
      LdsOptions lds;
      lds.inputs.push_back({obj, ShareClass::kStaticPrivate});
      lds.inputs.push_back({"/shm/lib/smc_db.o", ShareClass::kDynamicPublic});
      return world.Link(lds);
    };
    Result<LoadImage> writer = link_one("/home/user/smc_writer.o");
    Result<LoadImage> reader = link_one("/home/user/smc_reader.o");
    EXPECT_TRUE(writer.ok() && reader.ok());
    std::vector<int> pids;
    Result<ExecResult> r = world.Exec(*reader);
    EXPECT_TRUE(r.ok());
    pids.push_back(r->pid);
    Result<ExecResult> w = world.Exec(*writer);
    EXPECT_TRUE(w.ok());
    pids.push_back(w->pid);
    SchedParams params;
    params.quantum = 128;
    params.num_cores = cores;
    EXPECT_EQ(world.machine().RunScheduled(params, 100'000'000), SchedStatus::kExited)
        << "cores " << cores;
    std::vector<std::string> outs;
    for (int pid : pids) {
      Process* proc = world.machine().FindProcess(pid);
      EXPECT_NE(proc, nullptr);
      outs.push_back(proc != nullptr ? proc->stdout_text() : "<gone>");
    }
    if (Jit::HostSupported()) {
      EXPECT_GT(world.machine().metrics().Get("vm.jit.compiled_blocks"), 0u)
          << "cores " << cores << ": the run never reached native code";
    }
    return outs;
  };
  std::vector<std::string> reference = run_once(1);
  std::vector<std::string> smp = run_once(4);
  EXPECT_EQ(reference, smp) << "SMC visibility diverged between 1 and 4 cores";
  ASSERT_EQ(reference.size(), 2u);
  EXPECT_EQ(reference[0], "12345->12347\n");
}

}  // namespace
}  // namespace hemlock
