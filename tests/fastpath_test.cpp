// Tests for the fast-path execution engine: software-TLB staleness across
// unmap/protect/remap and SFS extent moves, decoded-block-cache invalidation on
// self-modifying code and on ldl's segment rebuild, and — most importantly —
// differential identity: the fast block engine and the reference decode-every-step
// interpreter must produce the same stdout, exit codes, and race reports, schedule
// for schedule, across a chaos-seed sweep.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/layout.h"
#include "src/isa/isa.h"
#include "src/kernel/race.h"
#include "src/kernel/scheduler.h"
#include "src/link/loader.h"
#include "src/runtime/sync.h"
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

// --- Software TLB: stale entries must die with the mapping ---

class TlbTest : public ::testing::Test {
 protected:
  SharedFs sfs_;
  AddressSpace space_{&sfs_};
  uint64_t hits_ = 0, misses_ = 0, flushes_ = 0, zero_filled_ = 0;

  void SetUp() override { space_.WireVmCounters(&hits_, &misses_, &flushes_, &zero_filled_); }

  PrivateBacking MakeBacking(uint32_t pages, uint8_t fill = 0) {
    return std::make_shared<std::vector<uint8_t>>(pages * kPageSize, fill);
  }
};

TEST_F(TlbTest, HitsAfterMissAndCounts) {
  ASSERT_TRUE(space_.MapPrivate(0x1000, kPageSize, Prot::kReadWrite, MakeBacking(1), 0).ok());
  Fault fault;
  uint32_t v = 0;
  ASSERT_TRUE(space_.Load32(0x1000, &v, &fault));  // cold: miss + fill
  EXPECT_EQ(misses_, 1u);
  uint64_t before_hits = hits_;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(space_.Load32(0x1000 + 4 * i, &v, &fault));
  }
  EXPECT_EQ(hits_, before_hits + 8);  // same page: all hits
  EXPECT_EQ(misses_, 1u);
}

TEST_F(TlbTest, UnmapInvalidatesCachedTranslation) {
  ASSERT_TRUE(space_.MapPrivate(0x1000, kPageSize, Prot::kReadWrite, MakeBacking(1), 0).ok());
  Fault fault;
  uint32_t v = 0;
  ASSERT_TRUE(space_.Load32(0x1000, &v, &fault));  // fill the TLB line
  uint64_t flushes_before = flushes_;
  ASSERT_TRUE(space_.Unmap(0x1000, kPageSize).ok());
  EXPECT_GT(flushes_, flushes_before);
  // The regression this pins: a stale TLB entry would happily return the old
  // host pointer here instead of faulting.
  EXPECT_FALSE(space_.Load32(0x1000, &v, &fault));
  EXPECT_EQ(fault.kind, FaultKind::kUnmapped);
}

TEST_F(TlbTest, ProtectDowngradeTakesEffectOnCachedPage) {
  ASSERT_TRUE(space_.MapPrivate(0x1000, kPageSize, Prot::kReadWrite, MakeBacking(1), 0).ok());
  Fault fault;
  ASSERT_TRUE(space_.Store32(0x1000, 7, &fault));  // fills the line with kReadWrite
  ASSERT_TRUE(space_.Protect(0x1000, kPageSize, Prot::kRead).ok());
  EXPECT_FALSE(space_.Store32(0x1000, 8, &fault));
  EXPECT_EQ(fault.kind, FaultKind::kProtection);
  // And an upgrade grants again (the epoch moved, so the stale kRead line dies).
  ASSERT_TRUE(space_.Protect(0x1000, kPageSize, Prot::kReadWrite).ok());
  EXPECT_TRUE(space_.Store32(0x1000, 9, &fault));
}

TEST_F(TlbTest, RemapReadsThroughTheNewBacking) {
  PrivateBacking a = MakeBacking(1, 0xAA);
  PrivateBacking b = MakeBacking(1, 0xBB);
  ASSERT_TRUE(space_.MapPrivate(0x1000, kPageSize, Prot::kRead, a, 0).ok());
  Fault fault;
  uint8_t v = 0;
  ASSERT_TRUE(space_.Load8(0x1001, &v, &fault));
  EXPECT_EQ(v, 0xAA);
  ASSERT_TRUE(space_.MapPrivate(0x1000, kPageSize, Prot::kRead, b, 0).ok());  // remap in place
  ASSERT_TRUE(space_.Load8(0x1001, &v, &fault));
  EXPECT_EQ(v, 0xBB) << "TLB served the old backing after a remap";
}

TEST_F(TlbTest, SfsExtentGrowthInvalidatesCachedHostPointer) {
  Result<uint32_t> ino = sfs_.Create("/seg");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(sfs_.EnsureExtent(*ino, kPageSize).ok());
  ASSERT_TRUE(space_.MapPublic(kSfsBase, kPageSize, Prot::kReadWrite, *ino, 0).ok());
  Fault fault;
  ASSERT_TRUE(space_.Store32(kSfsBase, 0xFEEDBEEF, &fault));  // caches a DataPtr
  // Growing the extent reallocates the inode's vector: the cached host pointer is
  // now dangling. Under ASan, a stale hit here is a heap-use-after-free.
  ASSERT_TRUE(sfs_.EnsureExtent(*ino, 64 * kPageSize).ok());
  uint32_t v = 0;
  ASSERT_TRUE(space_.Load32(kSfsBase, &v, &fault));
  EXPECT_EQ(v, 0xFEEDBEEFu);
}

TEST_F(TlbTest, UnlinkRevokesCachedTranslation) {
  Result<uint32_t> ino = sfs_.Create("/seg");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(sfs_.EnsureExtent(*ino, kPageSize).ok());
  ASSERT_TRUE(space_.MapPublic(kSfsBase, kPageSize, Prot::kReadWrite, *ino, 0).ok());
  Fault fault;
  ASSERT_TRUE(space_.Store32(kSfsBase, 1, &fault));
  ASSERT_TRUE(sfs_.Unlink("/seg").ok());
  uint32_t v = 0;
  EXPECT_FALSE(space_.Load32(kSfsBase, &v, &fault)) << "read through an unlinked segment";
}

// The JIT's inline probe trusts the access tags instead of comparing epochs, so
// SyncTlbTags must drop exactly the tags of entries filled under an older
// TranslationEpoch — and nothing Resolve reads, or vm.tlb.misses would move.
TEST_F(TlbTest, TagSyncDropsOnlyStaleTags) {
  constexpr uint32_t kA = 0x1000, kB = 0x2000, kX = 0x3000;
  constexpr uint32_t kNoTag = AddressSpace::kTlbNoTag;
  Result<uint32_t> ino = sfs_.Create("/seg");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(sfs_.EnsureExtent(*ino, kPageSize).ok());
  ASSERT_TRUE(space_.MapPublic(kSfsBase, kPageSize, Prot::kReadWrite, *ino, 0).ok());
  ASSERT_TRUE(space_.MapPrivate(kA, kPageSize, Prot::kReadWrite, MakeBacking(1), 0).ok());
  ASSERT_TRUE(space_.MapPrivate(kB, kPageSize, Prot::kReadWrite, MakeBacking(1), 0).ok());
  ASSERT_TRUE(space_.MapPrivate(kX, kPageSize, Prot::kAll, MakeBacking(1), 0).ok());
  auto entry = [&](uint32_t page) -> const AddressSpace::TlbEntry& {
    return space_.tlb_for_jit()[(page >> kPageBits) % AddressSpace::kTlbEntries];
  };
  auto touch = [&](uint32_t addr) {
    uint32_t v = 0;
    Fault fault;
    ASSERT_TRUE(space_.Load32(addr, &v, &fault));
  };
  for (uint32_t page : {kA, kB, kX, kSfsBase}) {
    touch(page);
  }
  space_.SyncTlbTags();
  for (uint32_t page : {kA, kB, kSfsBase}) {
    EXPECT_EQ(entry(page).rtag, page);
    EXPECT_EQ(entry(page).wtag, page);
  }
  // An exec page never gets a write tag: its stores must reach NoteExecStore.
  EXPECT_EQ(entry(kX).rtag, kX);
  EXPECT_EQ(entry(kX).wtag, kNoTag);

  // map_gen_: downgrade B, then refill A under the new epoch.
  ASSERT_TRUE(space_.Protect(kB, kPageSize, Prot::kRead).ok());
  touch(kA);
  space_.SyncTlbTags();
  EXPECT_EQ(entry(kA).rtag, kA) << "a current entry lost its tags";
  EXPECT_EQ(entry(kA).wtag, kA);
  for (uint32_t page : {kB, kX, kSfsBase}) {
    EXPECT_EQ(entry(page).rtag, kNoTag) << "a stale tag survived for page " << page;
    EXPECT_EQ(entry(page).wtag, kNoTag);
    EXPECT_EQ(entry(page).page, page) << "the sync must leave Resolve's fields alone";
  }
  // Resolve still counts exactly what it would have: the stale B misses, the
  // refill tags it for reads only.
  uint64_t misses = misses_;
  touch(kB);
  EXPECT_EQ(misses_, misses + 1);
  EXPECT_EQ(entry(kB).rtag, kB);
  EXPECT_EQ(entry(kB).wtag, kNoTag);

  // data_epoch_: an SFS extent grow (the host pointer may move). Refill the
  // public page afterwards; only the entries filled before the grow go stale.
  ASSERT_TRUE(sfs_.EnsureExtent(*ino, 64 * kPageSize).ok());
  touch(kSfsBase);
  space_.SyncTlbTags();
  EXPECT_EQ(entry(kSfsBase).rtag, kSfsBase);
  EXPECT_EQ(entry(kSfsBase).wtag, kSfsBase);
  for (uint32_t page : {kA, kB}) {
    EXPECT_EQ(entry(page).rtag, kNoTag);
    EXPECT_EQ(entry(page).wtag, kNoTag);
  }

  // Unmap: the unmapped page's tags go.
  touch(kA);
  ASSERT_TRUE(space_.Unmap(kA, kPageSize).ok());
  space_.SyncTlbTags();
  EXPECT_EQ(entry(kA).rtag, kNoTag);
  EXPECT_EQ(entry(kA).wtag, kNoTag);
}

// A demand-zero page is materialized on the TLB-miss path, so the same accesses
// count the same hits, misses and flushes as over an eagerly zeroed page.
TEST_F(TlbTest, DemandZeroPagesCountLikeEagerOnes) {
  SharedFs sfs;
  AddressSpace eager(&sfs);
  uint64_t hits = 0, misses = 0, flushes = 0, zero_filled = 0;
  eager.WireVmCounters(&hits, &misses, &flushes, &zero_filled);
  ASSERT_TRUE(space_.MapPrivate(0x1000, 3 * kPageSize, Prot::kReadWrite, nullptr, 0).ok());
  ASSERT_TRUE(eager.MapPrivate(0x1000, 3 * kPageSize, Prot::kReadWrite, MakeBacking(3), 0).ok());
  for (AddressSpace* space : {&space_, &eager}) {
    Fault fault;
    uint32_t v = 0;
    ASSERT_TRUE(space->Load32(0x1000, &v, &fault));
    ASSERT_TRUE(space->Store32(0x1004, 5, &fault));
    ASSERT_TRUE(space->Store32(0x3ffc, 6, &fault));
    uint8_t bytes[8] = {};
    ASSERT_TRUE(space->ReadBytes(0x1ffc, bytes, sizeof(bytes)).ok());
    ASSERT_TRUE(space->Load32(0x1004, &v, &fault));
    EXPECT_EQ(v, 5u);
  }
  EXPECT_EQ(hits_, hits);
  EXPECT_EQ(misses_, misses);
  EXPECT_EQ(flushes_, flushes);
  EXPECT_EQ(zero_filled_, 3u);
  EXPECT_EQ(zero_filled, 0u);
}

// The in-place sys_cas asks WordResolves whether the kernel path is needed; an
// untouched page must answer as a touched one does (and stay untouched).
TEST_F(TlbTest, WordResolvesTheSameForTouchedAndUntouchedPages) {
  constexpr uint32_t kRw = 0x1000, kRo = 0x3000;
  ASSERT_TRUE(space_.MapPrivate(kRw, 2 * kPageSize, Prot::kReadWrite, nullptr, 0).ok());
  ASSERT_TRUE(space_.MapPrivate(kRo, kPageSize, Prot::kRead, nullptr, 0).ok());
  auto answers = [&](uint32_t page) {
    return std::vector<bool>{space_.WordResolves(page), space_.WordResolves(page + 0x7fc),
                             space_.WordResolves(page + 2)};
  };
  const std::vector<bool> rw = {true, true, false};  // a misaligned word never resolves
  const std::vector<bool> ro = {false, false, false};
  EXPECT_EQ(answers(kRw), rw);
  EXPECT_EQ(answers(kRo), ro);
  EXPECT_EQ(zero_filled_, 0u) << "WordResolves materialized a page";
  EXPECT_EQ(hits_ + misses_, 0u) << "WordResolves counted an access";
  Fault fault;
  uint32_t v = 0;
  ASSERT_TRUE(space_.Store32(kRw, 1, &fault));
  ASSERT_TRUE(space_.Load32(kRo, &v, &fault));
  EXPECT_EQ(answers(kRw), rw) << "touched, answered from the TLB";
  EXPECT_EQ(answers(kRo), ro);
  // A map change makes the TLB lines stale: the page map answers.
  ASSERT_TRUE(space_.MapPrivate(0x8000, kPageSize, Prot::kReadWrite, nullptr, 0).ok());
  EXPECT_EQ(answers(kRw), rw) << "touched, answered from the page map";
  EXPECT_EQ(answers(kRw + kPageSize), rw) << "untouched";
  EXPECT_EQ(answers(kRo), ro);
  EXPECT_EQ(zero_filled_, 2u);
}

// --- Decoded-block cache ---

class ExecCacheTest : public ::testing::Test {
 protected:
  SharedFs sfs_;
  AddressSpace space_{&sfs_};
  ExecCache cache_;
  uint64_t hits_ = 0, misses_ = 0, invals_ = 0;

  void SetUp() override { cache_.WireCounters(&hits_, &misses_, &invals_); }

  // Writes |words| at vaddr 0 in a fresh kAll private page and returns a Cpu wired
  // to the cache.
  void InstallCode(const std::vector<uint32_t>& words) {
    auto backing = std::make_shared<std::vector<uint8_t>>(kPageSize, 0);
    ASSERT_TRUE(space_.MapPrivate(0, kPageSize, Prot::kAll, backing, 0).ok());
    for (size_t i = 0; i < words.size(); ++i) {
      Fault fault;
      ASSERT_TRUE(space_.Store32(static_cast<uint32_t>(4 * i), words[i], &fault));
    }
  }
};

TEST_F(ExecCacheTest, DecodesABlockOnceThenHits) {
  InstallCode({
      EncodeI(Op::kAddi, kRegT0, kRegZero, 5),
      EncodeI(Op::kAddi, kRegT1, kRegZero, 7),
      EncodeBreak(),
  });
  Cpu cpu(&space_);
  cpu.set_exec_cache(&cache_);
  CpuState st;
  uint64_t steps = 0;
  Fault fault;
  EXPECT_EQ(cpu.Run(&st, 100, &steps, &fault), StopReason::kBreak);
  EXPECT_EQ(st.regs[kRegT0], 5u);
  EXPECT_EQ(st.regs[kRegT1], 7u);
  EXPECT_EQ(steps, 3u);   // break counts, like the reference loop
  EXPECT_EQ(misses_, 1u);  // one block: [addi, addi, break]
  CpuState st2;
  EXPECT_EQ(cpu.Run(&st2, 100, &steps, &fault), StopReason::kBreak);
  EXPECT_EQ(misses_, 1u);
  EXPECT_GE(hits_, 1u);
}

TEST_F(ExecCacheTest, SelfModifyingStoreInvalidatesTheBlock) {
  // A loop body that rewrites an instruction *behind* itself, then re-runs it:
  //   0x00 addi t0, zero, 5
  //   0x04 break
  // After the first run, overwrite 0x00 with addi t0, zero, 9 through the VM's own
  // store path (the page is kAll, so code and data legally share it).
  InstallCode({
      EncodeI(Op::kAddi, kRegT0, kRegZero, 5),
      EncodeBreak(),
  });
  Cpu cpu(&space_);
  cpu.set_exec_cache(&cache_);
  CpuState st;
  uint64_t steps = 0;
  Fault fault;
  ASSERT_EQ(cpu.Run(&st, 100, &steps, &fault), StopReason::kBreak);
  ASSERT_EQ(st.regs[kRegT0], 5u);

  Fault f;
  ASSERT_TRUE(space_.Store32(0, EncodeI(Op::kAddi, kRegT0, kRegZero, 9), &f));
  CpuState st2;
  ASSERT_EQ(cpu.Run(&st2, 100, &steps, &fault), StopReason::kBreak);
  EXPECT_EQ(st2.regs[kRegT0], 9u) << "stale decoded block executed after the store";
  EXPECT_GE(invals_, 1u);
}

TEST_F(ExecCacheTest, SameBlockSelfModificationMatchesTheReferenceLoop) {
  // The store at 0x04 rewrites the instruction at 0x0C in its *own* block; the
  // refetch-every-step loop executes the new word, so the block engine must too.
  //   0x00 addi t1, zero, 0x00    (scratch address base: 0x40, below)
  //   0x04 sw   t2, 0x0C(zero)    overwrite the instr at 0x0C
  //   0x08 addi t3, zero, 11      untouched
  //   0x0C addi t4, zero, 11      becomes: addi t4, zero, 22
  //   0x10 break
  std::vector<uint32_t> words = {
      EncodeI(Op::kAddi, kRegT1, kRegZero, 0),
      EncodeI(Op::kSw, kRegT2, kRegZero, 0x0C),
      EncodeI(Op::kAddi, kRegT3, kRegZero, 11),
      EncodeI(Op::kAddi, kRegT4, kRegZero, 11),
      EncodeBreak(),
  };
  uint32_t patched = EncodeI(Op::kAddi, kRegT4, kRegZero, 22);

  auto run = [&](bool fast) -> CpuState {
    SharedFs sfs;
    AddressSpace space(&sfs);
    auto backing = std::make_shared<std::vector<uint8_t>>(kPageSize, 0);
    EXPECT_TRUE(space.MapPrivate(0, kPageSize, Prot::kAll, backing, 0).ok());
    for (size_t i = 0; i < words.size(); ++i) {
      Fault fault;
      EXPECT_TRUE(space.Store32(static_cast<uint32_t>(4 * i), words[i], &fault));
    }
    ExecCache cache;
    Cpu cpu(&space);
    if (fast) {
      cpu.set_exec_cache(&cache);
    }
    CpuState st;
    st.regs[kRegT2] = patched;
    uint64_t steps = 0;
    Fault fault;
    EXPECT_EQ(cpu.Run(&st, 100, &steps, &fault), StopReason::kBreak);
    EXPECT_EQ(steps, 5u);
    return st;
  };

  CpuState slow = run(/*fast=*/false);
  CpuState fast = run(/*fast=*/true);
  EXPECT_EQ(slow.regs[kRegT4], 22u);
  EXPECT_EQ(fast.regs[kRegT4], slow.regs[kRegT4]);
  EXPECT_EQ(fast.regs, slow.regs);
  EXPECT_EQ(fast.pc, slow.pc);
}

TEST_F(ExecCacheTest, QuantumEdgeCutsABlockAtTheExactInstruction) {
  InstallCode({
      EncodeI(Op::kAddi, kRegT0, kRegZero, 1),
      EncodeI(Op::kAddi, kRegT1, kRegZero, 2),
      EncodeI(Op::kAddi, kRegT2, kRegZero, 3),
      EncodeBreak(),
  });
  Cpu cpu(&space_);
  cpu.set_exec_cache(&cache_);
  CpuState st;
  uint64_t steps = 0;
  Fault fault;
  // Budget 2 stops mid-block after exactly 2 instructions, like the slow loop.
  EXPECT_EQ(cpu.Run(&st, 2, &steps, &fault), StopReason::kSteps);
  EXPECT_EQ(steps, 2u);
  EXPECT_EQ(st.pc, 8u);
  EXPECT_EQ(st.regs[kRegT1], 2u);
  EXPECT_EQ(st.regs[kRegT2], 0u);
  // Resuming finishes the block.
  EXPECT_EQ(cpu.Run(&st, 100, &steps, &fault), StopReason::kBreak);
  EXPECT_EQ(st.regs[kRegT2], 3u);
}

TEST_F(ExecCacheTest, FaultingLoadLeavesPcAtTheInstruction) {
  InstallCode({
      EncodeI(Op::kAddi, kRegT0, kRegZero, 1),
      EncodeI(Op::kLw, kRegT1, kRegZero, 0x7FF0),  // unmapped: faults
      EncodeBreak(),
  });
  Cpu cpu(&space_);
  cpu.set_exec_cache(&cache_);
  CpuState st;
  uint64_t steps = 0;
  Fault fault;
  EXPECT_EQ(cpu.Run(&st, 100, &steps, &fault), StopReason::kFault);
  EXPECT_EQ(steps, 1u);  // the faulting instruction is not counted
  EXPECT_EQ(st.pc, 4u);  // pc at the faulting lw, ready for retry
  EXPECT_EQ(fault.addr, 0x7FF0u);
}

// --- End-to-end: fast path on by default, --slow-interp identical ---

constexpr char kLoopProg[] = R"(
  int main(void) {
    int i;
    int acc;
    acc = 0;
    for (i = 0; i < 3000; i += 1) {
      acc = acc + i;
    }
    putint(acc);
    puts("\n");
    return 0;
  }
)";

TEST(FastPathEndToEnd, FastAndSlowProduceIdenticalOutcomes) {
  HemlockWorld fast_world;
  fast_world.machine().set_slow_interp(false);  // pin: CI sets HEMLOCK_SLOW_INTERP
  Result<RunOutcome> fast = fast_world.RunProgram(kLoopProg);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();

  HemlockWorld slow_world;
  slow_world.machine().set_slow_interp(true);
  Result<RunOutcome> slow = slow_world.RunProgram(kLoopProg);
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();

  EXPECT_EQ(fast->stdout_text, slow->stdout_text);
  EXPECT_EQ(fast->exit_code, slow->exit_code);
  EXPECT_EQ(MetricValue(fast->metrics, "vm.faults_delivered"),
            MetricValue(slow->metrics, "vm.faults_delivered"));
  // The fast path actually ran (and the slow one actually didn't).
  EXPECT_GT(MetricValue(fast->metrics, "vm.icache.hits"), 0u);
  EXPECT_EQ(MetricValue(slow->metrics, "vm.icache.hits"), 0u);
  EXPECT_GT(MetricValue(fast->metrics, "vm.tlb.hits"), 0u);
}

constexpr char kCounterSrc[] = R"(
  int counter = 0;
  int bump(void) { counter = counter + 1; return counter; }
)";
constexpr char kBumpProg[] = R"(
  extern int bump(void);
  int main(void) { putint(bump()); puts("\n"); return 0; }
)";

// ldl's creation-pending rebuild rewrites a public module's segment through
// SharedFs::WriteAt — under the feet of any process that cached decoded blocks
// from it. The kernel-side write must retire those blocks like a VM store would.
TEST(FastPathEndToEnd, LdlSegmentRebuildInvalidatesDecodedBlocks) {
  HemlockWorld world;
  world.machine().set_slow_interp(false);  // pin: CI sets HEMLOCK_SLOW_INTERP
  CompileOptions no_prelude;
  no_prelude.include_prelude = false;
  (void)world.vfs().MkdirAll("/shm/lib");
  ASSERT_TRUE(world.CompileTo(kCounterSrc, "/shm/lib/counter.o", no_prelude).ok());

  Result<RunOutcome> first =
      world.RunProgram(kBumpProg, {{"counter.o", ShareClass::kDynamicPublic}});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->stdout_text, "1\n");
  ASSERT_GT(MetricValue(first->metrics, "vm.icache.hits"), 0u);

  // Mark the module torn (dead creator): the next attacher rebuilds it in place.
  Result<SfsStat> st = world.sfs().Stat("/lib/counter");
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(world.sfs().SetCreationPending(st->ino, true).ok());
  ASSERT_TRUE(world.sfs().LockInode(st->ino, 9999).ok());

  Result<RunOutcome> second =
      world.RunProgram(kBumpProg, {{"counter.o", ShareClass::kDynamicPublic}});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->exit_code, 0);
  EXPECT_GE(MetricValue(second->metrics, "ldl.publics_rebuilt"), 1u);
  // The rebuild's WriteAt hit pages holding decoded shared code.
  EXPECT_GE(MetricValue(second->metrics, "vm.icache.invalidations"), 1u);
}

// --- Chaos-seed differential sweep: schedules, stdout, and race reports ---

const char kRacyDb[] = "int counter = 0;\n";
const char kRacyWorker[] =
    "extern int counter;\n"
    "int main() {\n"
    "  int i;\n"
    "  int t;\n"
    "  for (i = 0; i < 40; i += 1) {\n"
    "    t = counter;\n"
    "    sys_yield();\n"
    "    counter = t + 1;\n"
    "  }\n"
    "  putint(counter);\n"
    "  return 0;\n"
    "}\n";

struct SweepOutcome {
  SchedStatus status;
  std::vector<std::string> outs;
  std::vector<std::string> races;
  uint64_t ticks;
};

SweepOutcome RunChaosOnce(uint32_t seed, bool slow) {
  SweepOutcome out{};
  HemlockWorld world;
  world.machine().set_slow_interp(slow);
  world.machine().EnableRaceDetector();
  CompileOptions no_prelude;
  no_prelude.include_prelude = false;
  (void)world.vfs().MkdirAll("/shm/lib");
  EXPECT_TRUE(world.CompileTo(kRacyDb, "/shm/lib/racy_db.o", no_prelude).ok());
  EXPECT_TRUE(world.CompileTo(kRacyWorker, "/home/user/racy.o").ok());
  LdsOptions lds;
  lds.inputs.push_back({"/home/user/racy.o", ShareClass::kStaticPrivate});
  lds.inputs.push_back({"/shm/lib/racy_db.o", ShareClass::kDynamicPublic});
  Result<LoadImage> image = world.Link(lds);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  Result<ExecResult> p1 = world.Exec(*image);
  Result<ExecResult> p2 = world.Exec(*image);
  EXPECT_TRUE(p1.ok() && p2.ok());

  SchedParams params;
  params.policy = SchedPolicy::kRandom;
  params.seed = seed;
  params.quantum = 64;
  out.status = world.machine().RunScheduled(params, 100'000'000);
  out.ticks = world.machine().ticks();
  for (int pid : {p1->pid, p2->pid}) {
    Process* proc = world.machine().FindProcess(pid);
    out.outs.push_back(proc != nullptr ? proc->stdout_text() : "<reaped>");
  }
  const RaceDetector* race = world.machine().race();
  if (race != nullptr) {
    for (const RaceReport& r : race->reports()) {
      out.races.push_back(r.ToString());
    }
  }
  return out;
}

TEST(FastPathDifferential, ChaosSeedsProduceIdenticalSchedulesAndRaceReports) {
  for (uint32_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SweepOutcome fast = RunChaosOnce(seed, /*slow=*/false);
    SweepOutcome slow = RunChaosOnce(seed, /*slow=*/true);
    EXPECT_EQ(fast.status, slow.status);
    EXPECT_EQ(fast.ticks, slow.ticks) << "tick streams diverged: schedules differ";
    EXPECT_EQ(fast.outs, slow.outs);
    EXPECT_EQ(fast.races, slow.races) << "race reports diverged between interpreters";
  }
}

// The mutexed chaos sweep from race_test, re-run here explicitly on the fast path
// (ISSUE 4 satellite: 16-seed chaos sweep passes with the fast path on).
TEST(FastPathDifferential, MutexedProgramStaysCleanAcross16ChaosSeedsOnFastPath) {
  std::string locked_worker = HemSyncDecls() +
                              "extern int lock;\n"
                              "extern int counter;\n"
                              "int main() {\n"
                              "  int i;\n"
                              "  for (i = 0; i < 25; i += 1) {\n"
                              "    hem_mutex_lock(&lock);\n"
                              "    counter = counter + 1;\n"
                              "    hem_mutex_unlock(&lock);\n"
                              "  }\n"
                              "  return 0;\n"
                              "}\n";
  for (uint32_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    HemlockWorld world;
    world.machine().set_slow_interp(false);  // pin: CI sets HEMLOCK_SLOW_INTERP
    world.machine().EnableRaceDetector();
    ASSERT_TRUE(InstallHemSync(world).ok());
    CompileOptions no_prelude;
    no_prelude.include_prelude = false;
    ASSERT_TRUE(
        world.CompileTo("int lock = 0;\nint counter = 0;\n", "/shm/lib/locked_db.o", no_prelude)
            .ok());
    ASSERT_TRUE(world.CompileTo(locked_worker, "/home/user/locked.o").ok());
    LdsOptions lds;
    lds.inputs.push_back({"/home/user/locked.o", ShareClass::kStaticPrivate});
    lds.inputs.push_back({"/shm/lib/locked_db.o", ShareClass::kDynamicPublic});
    lds.inputs.push_back({"/shm/lib/hemsync.o", ShareClass::kDynamicPublic});
    Result<LoadImage> image = world.Link(lds);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    ASSERT_TRUE(world.Exec(*image).ok());
    ASSERT_TRUE(world.Exec(*image).ok());
    SchedParams params;
    params.policy = SchedPolicy::kRandom;
    params.seed = seed;
    params.quantum = 64;
    ASSERT_EQ(world.machine().RunScheduled(params, 200'000'000), SchedStatus::kExited);
    RaceDetector* race = world.machine().race();
    ASSERT_NE(race, nullptr);
    EXPECT_FALSE(race->HasRaces()) << race->reports()[0].ToString();
    // The sweep exercised the block cache, not the reference loop.
    EXPECT_GT(world.machine().metrics().Get("vm.icache.hits"), 0u);
  }
}

// --- SMP: cross-core invalidation ---
//
// With --cores > 1 the per-process TLBs and block caches are poked from real host
// threads: a kernel-side segment mutation on one core must *shoot down* every
// sibling core (drain them out of guest execution) before host pointers move, and
// a guest store into watched code pages must retire every core's stale blocks via
// the shared code epoch. These are the multi-core variants of the TLB-staleness
// and SMC cases above.

// ldl's creation-pending rebuild rewrites a public segment through SharedFs::
// WriteAt while sibling cores are mid-guest-execution with live TLB entries and
// decoded blocks. The shootdown protocol (unique world lock) must fire, and every
// process must still run to a correct exit. The rebuild is forced mid-SMP-run by
// spawning the module's user from a running parent: the child's exec-time attach
// (inside the sys_spawn syscall, on whichever core the parent holds) finds the
// torn module and rebuilds it under the other cores' feet.
TEST(FastPathSmp, LdlRebuildOnOneCoreShootsDownSiblings) {
  // At one core the same run must finish correctly with no shootdown at all:
  // nothing runs guest code while the rebuilding core is in the kernel.
  for (int cores : {1, 4}) {
    SCOPED_TRACE("cores=" + std::to_string(cores));
    HemlockWorld world;
    world.machine().set_slow_interp(false);  // pin: CI sets HEMLOCK_SLOW_INTERP
    CompileOptions no_prelude;
    no_prelude.include_prelude = false;
    (void)world.vfs().MkdirAll("/shm/lib");
    ASSERT_TRUE(world.CompileTo(kCounterSrc, "/shm/lib/counter.o", no_prelude).ok());

    // Build the module once (this warm run also arms the code-page watch on its
    // segment), then mark it torn with a dead creator's lock: the next attacher
    // breaks the lease and rebuilds in place.
    Result<RunOutcome> warm =
        world.RunProgram(kBumpProg, {{"counter.o", ShareClass::kDynamicPublic}});
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    Result<SfsStat> st = world.sfs().Stat("/lib/counter");
    ASSERT_TRUE(st.ok());
    ASSERT_TRUE(world.sfs().SetCreationPending(st->ino, true).ok());
    ASSERT_TRUE(world.sfs().LockInode(st->ino, 9999).ok());

    // The child links the torn module; the parents do not — their exec-time attach
    // must leave the module alone so the rebuild happens only at spawn time.
    ASSERT_TRUE(world
                    .CompileTo(
                        "extern int bump(void);\n"
                        "int main(void) {\n"
                        "  bump();\n"
                        "  return 0;\n"
                        "}\n",
                        "/home/user/rebump.o")
                    .ok());
    LdsOptions child_lds;
    child_lds.inputs.push_back({"/home/user/rebump.o", ShareClass::kStaticPrivate});
    child_lds.inputs.push_back({"/shm/lib/counter.o", ShareClass::kDynamicPublic});
    Result<LoadImage> child_image = world.Link(child_lds);
    ASSERT_TRUE(child_image.ok()) << child_image.status().ToString();
    ASSERT_TRUE(world.vfs().WriteFile("/home/user/rebump.hxe", child_image->Serialize()).ok());

    // Four parents spin (filling their own block caches on every core), then one
    // spawns the child whose startup rebuilds the segment.
    ASSERT_TRUE(world
                    .CompileTo(
                        "int main(void) {\n"
                        "  int i;\n"
                        "  int pid;\n"
                        "  for (i = 0; i < 5000; i += 1) {\n"
                        "  }\n"
                        "  pid = sys_spawn(\"/home/user/rebump.hxe\");\n"
                        "  if (pid <= 0) { return 90; }\n"
                        "  return sys_waitpid(pid);\n"
                        "}\n",
                        "/home/user/parent.o")
                    .ok());
    LdsOptions parent_lds;
    parent_lds.inputs.push_back({"/home/user/parent.o", ShareClass::kStaticPrivate});
    Result<LoadImage> parent_image = world.Link(parent_lds);
    ASSERT_TRUE(parent_image.ok()) << parent_image.status().ToString();
    InstallSpawnHandler(world.machine());
    std::vector<int> pids;
    for (int p = 0; p < 4; ++p) {
      Result<ExecResult> run = world.Exec(*parent_image);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      pids.push_back(run->pid);
    }
    SchedParams params;
    params.num_cores = cores;
    params.quantum = 256;
    ASSERT_EQ(world.machine().RunScheduled(params, 100'000'000), SchedStatus::kExited);
    for (int pid : pids) {
      Process* proc = world.machine().FindProcess(pid);
      ASSERT_NE(proc, nullptr);
      // waitpid round-trips the child's status: 0 only if bump() ran correctly
      // against the rebuilt segment.
      EXPECT_EQ(proc->exit_status(), 0);
    }
    // The rebuild completed: the module is whole again.
    st = world.sfs().Stat("/lib/counter");
    ASSERT_TRUE(st.ok());
    const MetricsRegistry& metrics = world.machine().metrics();
    if (cores == 1) {
      EXPECT_EQ(metrics.Get("vm.sched.shootdowns"), 0u);
      EXPECT_EQ(metrics.Get("vm.sched.core.0.dispatches"), metrics.Get("vm.sched.switches"));
    } else {
      // The rebuild ran while other cores were live: the kernel-side writes took
      // the shootdown path.
      EXPECT_GE(metrics.Get("vm.sched.shootdowns"), 1u);
    }
    // The code-epoch bump retired the other processes' cached blocks.
    EXPECT_GE(metrics.Get("vm.icache.invalidations"), 1u);
    if (world.machine().jit_enabled() && Jit::HostSupported()) {
      // Under the JIT engine the spinning parents ran native code across the
      // rebuild: their TLB tags were re-synced at the next entry.
      EXPECT_GT(metrics.Get("vm.jit.compiled_blocks"), 0u);
    }
  }
}

// Guest-store SMC across cores: a writer process patches a word inside a shared
// function's code while reader processes on other cores call it. The phases are
// ordered through a CAS flag (each phase boundary is a syscall, so every reader
// re-looks-up its next block and must observe the bumped code epoch). The run is
// pinned by differential identity: 4 real cores must produce byte-for-byte the
// stdout the single-core reference produces.
TEST(FastPathSmp, CrossCoreSmcMatchesSingleCoreReference) {
  auto run_once = [](int cores) -> std::vector<std::string> {
    HemlockWorld world;
    world.machine().set_slow_interp(false);  // pin: CI sets HEMLOCK_SLOW_INTERP
    CompileOptions no_prelude;
    no_prelude.include_prelude = false;
    (void)world.vfs().MkdirAll("/shm/lib");
    EXPECT_TRUE(world
                    .CompileTo("int phase = 0;\nint f(void) { return 12345; }\n",
                               "/shm/lib/smc_db.o", no_prelude)
                    .ok());
    // The writer sees the function symbol as plain words (the linker is type-
    // blind) and bumps the immediate inside the instruction that loads 12345 —
    // scanned by its low half, so prologue layout doesn't matter.
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
    if (cores > 1) {
      // The reader decoded f() before the patch; the writer's store must have
      // retired those blocks, not raced past them.
      EXPECT_GE(world.machine().metrics().Get("vm.icache.invalidations"), 1u);
    }
    return outs;
  };
  std::vector<std::string> reference = run_once(1);
  std::vector<std::string> smp = run_once(4);
  EXPECT_EQ(reference, smp) << "SMC visibility diverged between 1 and 4 cores";
  ASSERT_EQ(reference.size(), 2u);
  EXPECT_EQ(reference[0], "12345->12347\n");
}

// Attach reads a public module in place (SharedFs::View + LinkedModule::
// ParseTrailer) while other cores may be storing into the module's data pages.
// A writer process bumps every cell of an initialized public table (file bytes,
// not bss, so a parser that copied the image would read them) on one core while a
// spawner, on another, starts children (once the writer is storing) whose
// exec-time link attaches that same module through the view. The view parses only the footer and the trailer past
// the mapped pages, so under TSan nothing is reported; and the run must end as
// the single-core reference does: the same exit codes and the same ldl counters.
TEST(FastPathSmp, AttachViewWhileAnotherCoreStoresIntoTheModule) {
  auto run_once = [](int cores) {
    HemlockWorld world;
    world.machine().set_slow_interp(false);  // pin: CI sets HEMLOCK_SLOW_INTERP
    CompileOptions no_prelude;
    no_prelude.include_prelude = false;
    (void)world.vfs().MkdirAll("/shm/lib");
    EXPECT_TRUE(world
                    .CompileTo("int cells[64] = {1, 2, 3};\nint started = 0;\nint done = 0;\n"
                               "int peek(void) { return 7; }\n",
                               "/shm/lib/store_db.o", no_prelude)
                    .ok());
    EXPECT_TRUE(world
                    .CompileTo(
                        "extern int cells[64];\n"
                        "extern int started;\n"
                        "extern int done;\n"
                        "int main(void) {\n"
                        "  int i;\n"
                        "  sys_cas(&started, 0, 1);\n"
                        "  while (sys_cas(&done, 1, 1) != 1) {\n"
                        "    for (i = 0; i < 64; i += 1) {\n"
                        "      cells[i] = cells[i] + 1;\n"
                        "    }\n"
                        "  }\n"
                        "  return 0;\n"
                        "}\n",
                        "/home/user/store_writer.o")
                    .ok());
    EXPECT_TRUE(world
                    .CompileTo("extern int peek(void);\n"
                               "int main(void) { return peek() - 7; }\n",
                               "/home/user/attacher.o")
                    .ok());
    EXPECT_TRUE(world
                    .CompileTo(
                        "extern int started;\n"
                        "extern int done;\n"
                        "int main(void) {\n"
                        "  int k;\n"
                        "  int pid;\n"
                        "  int bad;\n"
                        "  bad = 0;\n"
                        "  while (sys_cas(&started, 1, 1) != 1) {\n"
                        "    sys_yield();\n"
                        "  }\n"
                        "  for (k = 0; k < 4; k += 1) {\n"
                        "    pid = sys_spawn(\"/home/user/attacher.hxe\");\n"
                        "    if (pid <= 0) { bad = bad + 100; }\n"
                        "    else { bad = bad + sys_waitpid(pid); }\n"
                        "  }\n"
                        "  sys_cas(&done, 0, 1);\n"
                        "  return bad;\n"
                        "}\n",
                        "/home/user/spawner.o")
                    .ok());
    auto link_one = [&](const char* obj) {
      LdsOptions lds;
      lds.inputs.push_back({obj, ShareClass::kStaticPrivate});
      lds.inputs.push_back({"/shm/lib/store_db.o", ShareClass::kDynamicPublic});
      return world.Link(lds);
    };
    Result<LoadImage> attacher = link_one("/home/user/attacher.o");
    EXPECT_TRUE(attacher.ok());
    EXPECT_TRUE(world.vfs().WriteFile("/home/user/attacher.hxe", attacher->Serialize()).ok());
    Result<LoadImage> writer = link_one("/home/user/store_writer.o");
    Result<LoadImage> spawner = link_one("/home/user/spawner.o");
    EXPECT_TRUE(writer.ok() && spawner.ok());
    // Every process's linker, children included (spawns run under the kernel
    // lock, so the list needs no lock of its own).
    std::vector<std::shared_ptr<Ldl>> linkers;
    world.machine().SetSpawnHandler(
        [&linkers](Machine& m, const std::string& path) -> Result<int> {
          ASSIGN_OR_RETURN(ExecResult exec, ExecuteFile(m, path));
          linkers.push_back(exec.ldl);
          return exec.pid;
        });
    std::vector<int> pids;
    for (const LoadImage* image : {&*writer, &*spawner}) {
      Result<ExecResult> run = world.Exec(*image);
      EXPECT_TRUE(run.ok());
      pids.push_back(run.ok() ? run->pid : -1);
      if (run.ok()) {
        linkers.push_back(run->ldl);
      }
    }
    SchedParams params;
    params.num_cores = cores;
    params.quantum = 256;
    EXPECT_EQ(world.machine().RunScheduled(params, 100'000'000), SchedStatus::kExited)
        << "cores " << cores;
    std::vector<uint64_t> outcome;
    for (int pid : pids) {
      Process* proc = world.machine().FindProcess(pid);
      EXPECT_NE(proc, nullptr);
      outcome.push_back(proc != nullptr ? static_cast<uint64_t>(proc->exit_status()) : 999);
    }
    MetricsSnapshot ldl;
    for (const std::shared_ptr<Ldl>& linker : linkers) {
      MetricsRegistry::Merge(&ldl, linker->metrics().Snapshot());
    }
    ldl.erase("ldl.startup_ns");  // wall-clock, not a count
    return std::make_pair(outcome, ldl);
  };
  auto reference = run_once(1);
  auto smp = run_once(4);
  EXPECT_EQ(reference.first, (std::vector<uint64_t>{0, 0}));
  EXPECT_EQ(smp.first, reference.first);
  EXPECT_EQ(smp.second, reference.second);
  // The writer's exec created the module; the spawner and the four children
  // attached it.
  EXPECT_EQ(MetricValue(reference.second, "ldl.publics_created"), 1u);
  EXPECT_EQ(MetricValue(reference.second, "ldl.publics_attached"), 5u);
}

}  // namespace
}  // namespace hemlock
