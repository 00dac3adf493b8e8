// Unit tests for the VM layer: address space semantics, CPU instruction behaviour,
// and kernel (Machine) syscalls.
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/layout.h"
#include "src/base/strings.h"
#include "src/isa/isa.h"
#include "src/link/lds.h"
#include "src/link/loader.h"
#include "src/runtime/world.h"
#include "src/vm/cpu.h"
#include "src/vm/jit.h"
#include "src/vm/machine.h"

namespace hemlock {
namespace {

// --- AddressSpace ---

class AddressSpaceTest : public ::testing::Test {
 protected:
  SharedFs sfs_;
  AddressSpace space_{&sfs_};

  PrivateBacking MakeBacking(uint32_t pages, uint8_t fill = 0) {
    return std::make_shared<std::vector<uint8_t>>(pages * kPageSize, fill);
  }
};

TEST_F(AddressSpaceTest, MapReadWrite) {
  ASSERT_TRUE(space_.MapPrivate(0x1000, kPageSize, Prot::kReadWrite, MakeBacking(1), 0).ok());
  Fault fault;
  ASSERT_TRUE(space_.Store32(0x1004, 0xABCD, &fault));
  uint32_t v = 0;
  ASSERT_TRUE(space_.Load32(0x1004, &v, &fault));
  EXPECT_EQ(v, 0xABCDu);
  uint8_t b = 0;
  ASSERT_TRUE(space_.Load8(0x1004, &b, &fault));
  EXPECT_EQ(b, 0xCD);  // little-endian
}

TEST_F(AddressSpaceTest, ProtectionEnforced) {
  ASSERT_TRUE(space_.MapPrivate(0x1000, kPageSize, Prot::kRead, MakeBacking(1), 0).ok());
  Fault fault;
  uint32_t v = 0;
  EXPECT_TRUE(space_.Load32(0x1000, &v, &fault));
  EXPECT_FALSE(space_.Store32(0x1000, 1, &fault));
  EXPECT_EQ(fault.kind, FaultKind::kProtection);
  EXPECT_EQ(fault.access, AccessKind::kWrite);
  EXPECT_FALSE(space_.Fetch(0x1000, &v, &fault));
  EXPECT_EQ(fault.access, AccessKind::kExec);
  // PROT_NONE faults on everything (the lazy-link mapping state).
  ASSERT_TRUE(space_.Protect(0x1000, kPageSize, Prot::kNone).ok());
  EXPECT_FALSE(space_.Load32(0x1000, &v, &fault));
  EXPECT_EQ(fault.kind, FaultKind::kProtection);
  // Kernel paths ignore protections.
  uint8_t byte = 9;
  EXPECT_TRUE(space_.WriteBytes(0x1000, &byte, 1).ok());
}

TEST_F(AddressSpaceTest, UnmappedFaults) {
  Fault fault;
  uint32_t v = 0;
  EXPECT_FALSE(space_.Load32(0x5000, &v, &fault));
  EXPECT_EQ(fault.kind, FaultKind::kUnmapped);
  EXPECT_EQ(fault.addr, 0x5000u);
  // Misaligned word access faults too.
  ASSERT_TRUE(space_.MapPrivate(0x1000, kPageSize, Prot::kAll, MakeBacking(1), 0).ok());
  EXPECT_FALSE(space_.Load32(0x1002, &v, &fault));
}

TEST_F(AddressSpaceTest, UnmapRemoves) {
  ASSERT_TRUE(space_.MapPrivate(0x1000, 2 * kPageSize, Prot::kAll, MakeBacking(2), 0).ok());
  ASSERT_TRUE(space_.Unmap(0x1000, kPageSize).ok());
  EXPECT_FALSE(space_.IsMapped(0x1000));
  EXPECT_TRUE(space_.IsMapped(0x2000));
}

TEST_F(AddressSpaceTest, PublicMappingSharesFileBytes) {
  uint32_t ino = *sfs_.Create("/seg");
  ASSERT_TRUE(sfs_.EnsureExtent(ino, kPageSize).ok());
  uint32_t base = SfsAddressForInode(ino);
  ASSERT_TRUE(space_.MapPublic(base, kPageSize, Prot::kReadWrite, ino, 0).ok());
  Fault fault;
  ASSERT_TRUE(space_.Store32(base, 0x1234, &fault));
  // The write went through to the file bytes.
  uint32_t from_file = 0;
  std::memcpy(&from_file, sfs_.DataPtr(ino), 4);
  EXPECT_EQ(from_file, 0x1234u);
  EXPECT_EQ(space_.PublicInodeAt(base), ino);
  EXPECT_EQ(space_.PublicInodeAt(0x1000), 0u);
}

TEST_F(AddressSpaceTest, TwoSpacesShareOnePublicSegment) {
  uint32_t ino = *sfs_.Create("/seg");
  ASSERT_TRUE(sfs_.EnsureExtent(ino, kPageSize).ok());
  uint32_t base = SfsAddressForInode(ino);
  AddressSpace other(&sfs_);
  ASSERT_TRUE(space_.MapPublic(base, kPageSize, Prot::kReadWrite, ino, 0).ok());
  ASSERT_TRUE(other.MapPublic(base, kPageSize, Prot::kReadWrite, ino, 0).ok());
  Fault fault;
  ASSERT_TRUE(space_.Store32(base + 8, 77, &fault));
  uint32_t v = 0;
  ASSERT_TRUE(other.Load32(base + 8, &v, &fault));
  EXPECT_EQ(v, 77u);
}

TEST_F(AddressSpaceTest, ForkCopiesPrivateSharesPublic) {
  auto backing = MakeBacking(1);
  ASSERT_TRUE(space_.MapPrivate(0x1000, kPageSize, Prot::kReadWrite, backing, 0).ok());
  uint32_t ino = *sfs_.Create("/seg");
  ASSERT_TRUE(sfs_.EnsureExtent(ino, kPageSize).ok());
  uint32_t pub = SfsAddressForInode(ino);
  ASSERT_TRUE(space_.MapPublic(pub, kPageSize, Prot::kReadWrite, ino, 0).ok());

  Fault fault;
  ASSERT_TRUE(space_.Store32(0x1000, 1, &fault));
  std::unique_ptr<AddressSpace> child = space_.Fork();

  // Parent's later private write is invisible to the child.
  ASSERT_TRUE(space_.Store32(0x1000, 2, &fault));
  uint32_t v = 0;
  ASSERT_TRUE(child->Load32(0x1000, &v, &fault));
  EXPECT_EQ(v, 1u);
  // Public writes are visible both ways.
  ASSERT_TRUE(child->Store32(pub, 42, &fault));
  ASSERT_TRUE(space_.Load32(pub, &v, &fault));
  EXPECT_EQ(v, 42u);
}

TEST_F(AddressSpaceTest, ForkSharesBackingAcrossPagesOfOneSegment) {
  // One 4-page backing mapped as one segment must be duplicated once, preserving the
  // page->backing relationship.
  auto backing = MakeBacking(4, 0x11);
  ASSERT_TRUE(space_.MapPrivate(0x1000, 4 * kPageSize, Prot::kReadWrite, backing, 0).ok());
  std::unique_ptr<AddressSpace> child = space_.Fork();
  Fault fault;
  ASSERT_TRUE(child->Store32(0x1000, 0xAA, &fault));
  uint32_t v = 0;
  // Write via page 0 is visible via the same backing at page 0 only.
  ASSERT_TRUE(child->Load32(0x1000, &v, &fault));
  EXPECT_EQ(v, 0xAAu);
  ASSERT_TRUE(space_.Load32(0x1000, &v, &fault));
  EXPECT_NE(v, 0xAAu);
}

// --- Demand-zero private ranges (a null backing) ---

class DemandZeroTest : public AddressSpaceTest {
 protected:
  uint64_t hits_ = 0, misses_ = 0, flushes_ = 0, zero_filled_ = 0;

  void SetUp() override {
    space_.WireVmCounters(&hits_, &misses_, &flushes_, &zero_filled_);
    ASSERT_TRUE(space_.MapPrivate(0x1000, 4 * kPageSize, Prot::kReadWrite, nullptr, 0).ok());
  }
};

TEST_F(DemandZeroTest, UntouchedPageReadsZero) {
  Fault fault;
  uint32_t v = 7;
  ASSERT_TRUE(space_.Load32(0x2ffc, &v, &fault));
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(zero_filled_, 1u);
  // The kernel's read materializes each page it crosses, and only those.
  uint8_t bytes[8];
  std::memset(bytes, 0xFF, sizeof(bytes));
  ASSERT_TRUE(space_.ReadBytes(0x3ffc, bytes, sizeof(bytes)).ok());
  EXPECT_EQ(std::vector<uint8_t>(bytes, bytes + 8), std::vector<uint8_t>(8, 0));
  EXPECT_EQ(zero_filled_, 3u);
}

TEST_F(DemandZeroTest, FirstWriteMaterializesExactlyOnePage) {
  Fault fault;
  ASSERT_TRUE(space_.Store32(0x2004, 0xAB, &fault));
  EXPECT_EQ(zero_filled_, 1u);
  ASSERT_TRUE(space_.Store8(0x2ff0, 0xCD, &fault));
  uint8_t more[4] = {1, 2, 3, 4};
  ASSERT_TRUE(space_.WriteBytes(0x2100, more, 4).ok());
  EXPECT_EQ(zero_filled_, 1u) << "later writes to a touched page allocate nothing";
  uint32_t v = 0;
  ASSERT_TRUE(space_.Load32(0x2004, &v, &fault));
  EXPECT_EQ(v, 0xABu);
  // Its neighbours are pages of their own, still zero.
  ASSERT_TRUE(space_.Load32(0x1004, &v, &fault));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(space_.Load32(0x3004, &v, &fault));
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(zero_filled_, 3u);
}

TEST_F(DemandZeroTest, ForkCopiesTouchedPagesAndLeavesTheRestDemandZero) {
  Fault fault;
  ASSERT_TRUE(space_.Store32(0x2000, 0x11, &fault));
  ASSERT_TRUE(space_.Store32(0x4000, 0x33, &fault));
  ASSERT_EQ(zero_filled_, 2u);
  std::unique_ptr<AddressSpace> child = space_.Fork();
  EXPECT_EQ(zero_filled_, 2u) << "a fork copies; it zero-fills nothing";
  uint32_t v = 0;
  ASSERT_TRUE(child->Load32(0x2000, &v, &fault));
  EXPECT_EQ(v, 0x11u);
  ASSERT_TRUE(child->Load32(0x4000, &v, &fault));
  EXPECT_EQ(v, 0x33u);
  // The touched pages are copies: a child store does not reach the parent.
  ASSERT_TRUE(child->Store32(0x2000, 0x99, &fault));
  ASSERT_TRUE(space_.Load32(0x2000, &v, &fault));
  EXPECT_EQ(v, 0x11u);
  EXPECT_EQ(zero_filled_, 2u);
  // An untouched page is still demand-zero in the child (its first touch
  // zero-fills) and in the parent, and each side gets a page of its own.
  ASSERT_TRUE(child->Load32(0x1000, &v, &fault));
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(zero_filled_, 3u);
  ASSERT_TRUE(space_.Store32(0x1000, 0x55, &fault));
  EXPECT_EQ(zero_filled_, 4u);
  ASSERT_TRUE(child->Load32(0x1000, &v, &fault));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(child->Store32(0x3000, 0x77, &fault));
  ASSERT_TRUE(space_.Load32(0x3000, &v, &fault));
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(zero_filled_, 6u);
}

// --- CPU semantics (parameterized over ALU operations) ---

struct AluCase {
  const char* name;
  Funct funct;
  int32_t a;
  int32_t b;
  int32_t expected;
};

class CpuAluTest : public ::testing::TestWithParam<AluCase> {};

TEST_P(CpuAluTest, ComputesExpected) {
  SharedFs sfs;
  AddressSpace space(&sfs);
  auto text = std::make_shared<std::vector<uint8_t>>(kPageSize, 0);
  uint32_t prog[2] = {EncodeR(GetParam().funct, kRegV0, kRegA0, kRegA1), EncodeBreak()};
  std::memcpy(text->data(), prog, sizeof(prog));
  ASSERT_TRUE(space.MapPrivate(0x1000, kPageSize, Prot::kReadExec, text, 0).ok());
  CpuState st;
  st.pc = 0x1000;
  st.regs[kRegA0] = static_cast<uint32_t>(GetParam().a);
  st.regs[kRegA1] = static_cast<uint32_t>(GetParam().b);
  Cpu cpu(&space);
  Fault fault;
  StopReason reason = cpu.Run(&st, 10, nullptr, &fault);
  EXPECT_EQ(reason, StopReason::kBreak);
  EXPECT_EQ(static_cast<int32_t>(st.regs[kRegV0]), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, CpuAluTest,
    ::testing::Values(AluCase{"add", Funct::kAdd, 3, 4, 7},
                      AluCase{"add_wraps", Funct::kAdd, 0x7FFFFFFF, 1, INT32_MIN},
                      AluCase{"sub", Funct::kSub, 3, 5, -2},
                      AluCase{"mul", Funct::kMul, -3, 4, -12},
                      AluCase{"div", Funct::kDiv, -7, 2, -3},
                      AluCase{"mod", Funct::kMod, -7, 2, -1},
                      AluCase{"and", Funct::kAnd, 12, 10, 8},
                      AluCase{"or", Funct::kOr, 12, 3, 15},
                      AluCase{"xor", Funct::kXor, 12, 10, 6},
                      AluCase{"nor", Funct::kNor, 0, 0, -1},
                      AluCase{"slt_true", Funct::kSlt, -1, 0, 1},
                      AluCase{"slt_false", Funct::kSlt, 0, -1, 0},
                      AluCase{"sltu_wraps", Funct::kSltu, 0, -1, 1}),
    [](const ::testing::TestParamInfo<AluCase>& info) { return info.param.name; });

TEST(CpuTest, DivideByZeroTraps) {
  SharedFs sfs;
  AddressSpace space(&sfs);
  auto text = std::make_shared<std::vector<uint8_t>>(kPageSize, 0);
  uint32_t prog[1] = {EncodeR(Funct::kDiv, kRegV0, kRegA0, kRegZero)};
  std::memcpy(text->data(), prog, sizeof(prog));
  ASSERT_TRUE(space.MapPrivate(0x1000, kPageSize, Prot::kReadExec, text, 0).ok());
  CpuState st;
  st.pc = 0x1000;
  Cpu cpu(&space);
  Fault fault;
  EXPECT_EQ(cpu.Run(&st, 10, nullptr, &fault), StopReason::kDivZero);
  EXPECT_EQ(st.pc, 0x1000u);  // precise: pc at the trapping instruction
}

TEST(CpuTest, FaultLeavesPcForRetry) {
  SharedFs sfs;
  AddressSpace space(&sfs);
  auto text = std::make_shared<std::vector<uint8_t>>(kPageSize, 0);
  uint32_t prog[2] = {EncodeI(Op::kLw, kRegV0, kRegA0, 0), EncodeBreak()};
  std::memcpy(text->data(), prog, sizeof(prog));
  ASSERT_TRUE(space.MapPrivate(0x1000, kPageSize, Prot::kReadExec, text, 0).ok());
  CpuState st;
  st.pc = 0x1000;
  st.regs[kRegA0] = 0x9000;  // unmapped
  Cpu cpu(&space);
  Fault fault;
  uint64_t steps = 0;
  EXPECT_EQ(cpu.Run(&st, 10, &steps, &fault), StopReason::kFault);
  EXPECT_EQ(st.pc, 0x1000u);
  EXPECT_EQ(fault.addr, 0x9000u);
  // Map the page and retry: the instruction completes.
  auto data = std::make_shared<std::vector<uint8_t>>(kPageSize, 0);
  (*data)[0] = 0x2A;
  ASSERT_TRUE(space.MapPrivate(0x9000, kPageSize, Prot::kRead, data, 0).ok());
  EXPECT_EQ(cpu.Run(&st, 10, &steps, &fault), StopReason::kBreak);
  EXPECT_EQ(st.regs[kRegV0], 0x2Au);
}

TEST(CpuTest, ZeroRegisterIsImmutable) {
  SharedFs sfs;
  AddressSpace space(&sfs);
  auto text = std::make_shared<std::vector<uint8_t>>(kPageSize, 0);
  uint32_t prog[3] = {EncodeOri(kRegZero, kRegZero, 0xFFFF),
                      EncodeR(Funct::kAdd, kRegV0, kRegZero, kRegZero), EncodeBreak()};
  std::memcpy(text->data(), prog, sizeof(prog));
  ASSERT_TRUE(space.MapPrivate(0x1000, kPageSize, Prot::kReadExec, text, 0).ok());
  CpuState st;
  st.pc = 0x1000;
  Cpu cpu(&space);
  Fault fault;
  EXPECT_EQ(cpu.Run(&st, 10, nullptr, &fault), StopReason::kBreak);
  EXPECT_EQ(st.regs[kRegV0], 0u);
}

// --- Machine syscalls via real programs ---

TEST(MachineTest, FileSyscallsOnBothFileSystems) {
  HemlockWorld world;
  Result<RunOutcome> out = world.RunProgram(R"(
    int main(void) {
      int fd;
      char buf[32];
      int n;
      // Create + write + close on the ordinary disk. Zero-length calls copy
      // nothing, into an empty file or out of a full one.
      fd = sys_open("/tmp/note", 0x242);   // O_RDWR|O_CREAT|O_TRUNC
      putint(sys_write(fd, buf, 0));
      sys_write(fd, "hello", 5);
      sys_close(fd);
      // Reopen and read back.
      fd = sys_open("/tmp/note", 0);
      putint(sys_read(fd, buf, 0));
      n = sys_read(fd, buf, 32);
      buf[n] = 0;
      sys_close(fd);
      puts(buf);
      puts(" ");
      // Same flow on the shared partition.
      fd = sys_open("/shm/note", 0x242);
      putint(sys_write(fd, buf, 0));
      sys_write(fd, "shared", 6);
      sys_close(fd);
      fd = sys_open("/shm/note", 0);
      putint(sys_read(fd, buf, 0));
      n = sys_read(fd, buf, 32);
      buf[n] = 0;
      puts(buf);
      puts("\n");
      return 0;
    }
  )");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->stdout_text, "00hello 00shared\n");
}

TEST(MachineTest, AddrToPathAndOpenByAddr) {
  HemlockWorld world;
  uint32_t ino = *world.sfs().Create("/blob");
  const char* content = "by-address";
  ASSERT_TRUE(world.sfs()
                  .WriteAt(ino, 0, reinterpret_cast<const uint8_t*>(content), 10)
                  .ok());
  uint32_t addr = *world.sfs().AddressOf(ino);
  std::string src = StrFormat(R"(
    int main(void) {
      char path[64];
      char buf[32];
      int fd;
      int n;
      sys_addr_to_path(%u, path, 64);
      puts(path);
      puts(" ");
      fd = sys_open_by_addr(%u, 0);
      n = sys_read(fd, buf, 31);
      buf[n] = 0;
      puts(buf);
      puts("\n");
      return 0;
    }
  )",
                              addr, addr);
  Result<RunOutcome> out = world.RunProgram(src);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->stdout_text, "/shm/blob by-address\n");
}

TEST(MachineTest, StatReturnsInodeSizeAddr) {
  HemlockWorld world;
  uint32_t ino = *world.sfs().Create("/stated");
  uint8_t bytes[10] = {0};
  ASSERT_TRUE(world.sfs().WriteAt(ino, 0, bytes, 10).ok());
  uint32_t addr = *world.sfs().AddressOf(ino);
  std::string src = StrFormat(R"(
    int main(void) {
      int st[3];
      sys_stat("/shm/stated", st);
      putint(st[0]); puts(" ");
      putint(st[1]); puts(" ");
      putint(st[2] == %u);
      puts("\n");
      return 0;
    }
  )",
                              addr);
  Result<RunOutcome> out = world.RunProgram(src);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->stdout_text, StrFormat("%u 10 1\n", ino));
}

TEST(MachineTest, SyscallErrorsReportedInV1) {
  HemlockWorld world;
  Result<RunOutcome> out = world.RunProgram(R"(
    int main(void) {
      int fd;
      fd = sys_open("/no/such/file", 0);
      putint(fd);
      puts("\n");
      return 0;
    }
  )");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->stdout_text, "-1\n");
}

// $v0 comes from the guest, so any number reaches the syscall table's lookup:
// one that no row has fails with -1 and kUnimplemented on every engine — on the
// JIT after its in-place hook has looked the number up too — and is never used
// to index past the table.
TEST(MachineTest, UnknownSyscallNumbersFailUnimplemented) {
  const uint32_t numbers[] = {0, kSysLimit, 0xFFFFFFFFu};
  std::vector<uint32_t> code;
  for (int i = 0; i < 3; ++i) {
    // $v0 = numbers[i]; syscall; $s(2i) = $v0; $s(2i+1) = $v1.
    code.push_back(EncodeLui(kRegV0, static_cast<uint16_t>(numbers[i] >> 16)));
    code.push_back(EncodeOri(kRegV0, kRegV0, static_cast<uint16_t>(numbers[i])));
    code.push_back(EncodeSyscall());
    code.push_back(EncodeR(Funct::kOr, static_cast<uint8_t>(kRegS0 + 2 * i), kRegV0, kRegZero));
    code.push_back(EncodeR(Funct::kOr, static_cast<uint8_t>(kRegS1 + 2 * i), kRegV1, kRegZero));
  }
  code.push_back(EncodeOri(kRegV0, kRegZero, static_cast<uint16_t>(Sys::kExit)));
  code.push_back(EncodeOri(kRegA0, kRegZero, 0));
  code.push_back(EncodeSyscall());
  struct Engine {
    const char* name;
    bool slow_interp;
    bool jit;
  };
  for (Engine engine : {Engine{"slow-interp", true, false}, Engine{"block cache", false, false},
                        Engine{"jit", false, true}}) {
    Machine machine;
    machine.set_slow_interp(engine.slow_interp);
    machine.set_jit_enabled(engine.jit);
    machine.set_jit_threshold(1);  // compile every block, its SYSCALL template included
    Process& proc = machine.CreateProcess();
    auto text = std::make_shared<std::vector<uint8_t>>(kPageSize, 0);
    std::memcpy(text->data(), code.data(), code.size() * sizeof(uint32_t));
    ASSERT_TRUE(proc.space().MapPrivate(0x1000, kPageSize, Prot::kReadExec, text, 0).ok());
    proc.cpu().pc = 0x1000;
    ASSERT_EQ(machine.RunProcess(proc.pid()), SchedStatus::kExited) << engine.name;
    EXPECT_EQ(proc.exit_status(), 0) << engine.name;
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(proc.cpu().regs[kRegS0 + 2 * i], 0xFFFFFFFFu)
          << engine.name << ", number " << numbers[i];
      EXPECT_EQ(proc.cpu().regs[kRegS1 + 2 * i], static_cast<uint32_t>(ErrorCode::kUnimplemented))
          << engine.name << ", number " << numbers[i];
    }
    EXPECT_EQ(machine.metrics().Get("vm.syscalls"), 4u) << engine.name;
    EXPECT_EQ(machine.metrics().Get("vm.syscalls.in_place"), 0u) << engine.name;
    if (engine.jit && Jit::HostSupported()) {
      EXPECT_GT(machine.metrics().Get("vm.jit.compiled_blocks"), 0u) << engine.name;
    }
  }
}

TEST(MachineTest, TicksAdvanceAndChargeSyscalls) {
  HemlockWorld world;
  world.machine().set_syscall_cost(1000);
  uint64_t before = world.machine().ticks();
  Result<RunOutcome> out = world.RunProgram(R"(
    int main(void) {
      sys_yield();
      sys_yield();
      return 0;
    }
  )");
  ASSERT_TRUE(out.ok());
  EXPECT_GT(world.machine().ticks(), before + 2000);
  EXPECT_GE(world.machine().metrics().Get("vm.syscalls"), 3u);  // 2 yields + exit
}

TEST(MachineTest, FileLockSyscallFromPrograms) {
  // The kLockFile syscall backing ldl's creation lock (paper fn. 3): a second
  // process's lock attempt fails while the first holds it.
  HemlockWorld world;
  ASSERT_TRUE(world.sfs().Create("/lockme").ok());
  Result<RunOutcome> out = world.RunProgram(R"(
    int main(void) {
      int fd;
      int pid;
      int child_result;
      fd = sys_open("/shm/lockme", 0);
      if (sys_lockf(fd, 1) != 0) { return 1; }
      pid = sys_fork();
      if (pid == 0) {
        int cfd;
        cfd = sys_open("/shm/lockme", 0);
        // Parent holds the lock: this must fail.
        sys_exit(sys_lockf(cfd, 1) == 0 - 1);
      }
      child_result = sys_waitpid(pid);
      putint(child_result);     // 1: the child saw WOULD_BLOCK
      sys_lockf(fd, 0);
      puts("\n");
      return 0;
    }
  )");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->stdout_text, "1\n");
}

TEST(MachineTest, ExitReleasesLocks) {
  HemlockWorld world;
  uint32_t ino = *world.sfs().Create("/lockme");
  Result<RunOutcome> out = world.RunProgram(R"(
    int main(void) {
      int fd;
      fd = sys_open("/shm/lockme", 0);
      sys_lockf(fd, 1);
      return 0;   // exits holding the lock
    }
  )");
  ASSERT_TRUE(out.ok());
  // The kernel released the dead process's lock; a host-side lock succeeds.
  EXPECT_TRUE(world.sfs().LockInode(ino, 9999).ok());
}

TEST(MachineTest, UnlinkFromProgram) {
  HemlockWorld world;
  ASSERT_TRUE(world.vfs().WriteFile("/shm/doomed", std::string("x")).ok());
  Result<RunOutcome> out = world.RunProgram(R"(
    int main(void) {
      return sys_unlink("/shm/doomed");
    }
  )");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(world.vfs().Exists("/shm/doomed"));
}

TEST(MachineTest, RunAllDetectsDeadlock) {
  // Two processes each spin-wait on a flag only the other would set — neither ever
  // writes. RunAll must not hang: it stops when the budget drains.
  HemlockWorld world;
  ASSERT_TRUE(world.vfs().MkdirAll("/shm/lib").ok());
  CompileOptions opts;
  opts.include_prelude = false;
  ASSERT_TRUE(world.CompileTo("int flag_a = 0; int flag_b = 0;", "/shm/lib/flags.o", opts).ok());
  ASSERT_TRUE(world
                  .CompileTo(R"(
    extern int flag_a;
    extern int flag_b;
    int main(void) {
      while (flag_a == 0) { sys_yield(); }
      flag_b = 1;
      return 0;
    }
  )",
                             "/home/user/waiter.o")
                  .ok());
  Result<LoadImage> image =
      world.Link({.inputs = {{"waiter.o", ShareClass::kStaticPrivate},
                             {"flags.o", ShareClass::kDynamicPublic}}});
  ASSERT_TRUE(image.ok());
  Result<ExecResult> p1 = world.Exec(*image);
  Result<ExecResult> p2 = world.Exec(*image);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(world.machine().RunScheduled(SchedParams{}, 2'000'000), SchedStatus::kOutOfGas)
      << "budget-bounded, not hung";
  EXPECT_EQ(world.machine().LiveProcessCount(), 2);
}

TEST(MachineTest, SbrkShrinkAndBounds) {
  HemlockWorld world;
  Result<RunOutcome> out = world.RunProgram(R"(
    int main(void) {
      int *base;
      int *old;
      base = sys_sbrk(8192);
      old = sys_sbrk(0 - 4096);       // shrink is allowed (pages stay mapped)
      putint(old - base == 2048);     // int pointer arithmetic: 8192 bytes = 2048 ints
      puts(" ");
      putint(sys_sbrk(0x7FFFFFFF));   // absurd growth fails with -1
      puts("\n");
      return 0;
    }
  )");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->stdout_text, "1 -1\n");
}

TEST(MachineTest, MultiLevelForkTree) {
  HemlockWorld world;
  Result<RunOutcome> out = world.RunProgram(R"(
    int main(void) {
      int a;
      int b;
      a = sys_fork();
      if (a == 0) {
        b = sys_fork();
        if (b == 0) { sys_exit(3); }
        sys_exit(sys_waitpid(b) + 10);
      }
      putint(sys_waitpid(a));  // 13
      puts("\n");
      return 0;
    }
  )");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->stdout_text, "13\n");
}

// A zombie keeps its page map and private pages, so its memory can be read until
// it is reaped, but nothing only a running process uses: its fault handlers go at
// exit, and with them the loader's reference to its Ldl.
TEST(MachineTest, ZombiesKeepTheirPagesButNotTheirLinker) {
  HemlockWorld world;
  ASSERT_TRUE(world.vfs().MkdirAll("/shm/lib").ok());
  CompileOptions lib;
  lib.include_prelude = false;
  ASSERT_TRUE(world
                  .CompileTo("int tally;\nint bump(void) { tally = tally + 1; return tally; }",
                             "/shm/lib/tally.o", lib)
                  .ok());
  ASSERT_TRUE(world
                  .CompileTo("extern int bump(void);\nint main(void) { return bump(); }",
                             "/home/user/m.o")
                  .ok());
  Result<LoadImage> image = world.Link({.inputs = {{"m.o", ShareClass::kStaticPrivate},
                                                   {"tally.o", ShareClass::kDynamicPublic}}});
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  auto zero_filled = [&] {
    return world.machine().metrics().Snapshot()["vm.pages.zero_filled"];
  };
  constexpr int kProcs = 128;
  std::vector<int> zombies;
  uint32_t tally = 0;
  for (int i = 0; i < kProcs; ++i) {
    SCOPED_TRACE(testing::Message() << "process " << i);
    uint64_t filled_before = zero_filled();
    std::weak_ptr<Ldl> ldl;
    {
      Result<ExecResult> run = world.Exec(*image);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      ldl = run->ldl;
      EXPECT_EQ(run->ldl.use_count(), 2) << "the ExecResult and the fault handler";
      Result<int> status = world.RunToExit(run->pid);
      ASSERT_TRUE(status.ok()) << status.status().ToString();
      EXPECT_EQ(*status, i + 1);
      EXPECT_EQ(run->ldl.use_count(), 1) << "the zombie still holds its Ldl";
      if (i == 0) {
        Result<uint32_t> addr = run->ldl->LookupRootSymbol("tally");
        ASSERT_TRUE(addr.ok());
        tally = *addr;
      }
      zombies.push_back(run->pid);
    }
    EXPECT_TRUE(ldl.expired());
    // crt0 and main touch one stack page; the image has no bss page. Fixed by
    // the program, not by the host.
    EXPECT_EQ(zero_filled() - filled_before, 1u);
  }
  for (int pid : {zombies.front(), zombies.back()}) {
    Process* zombie = world.machine().FindProcess(pid);
    ASSERT_NE(zombie, nullptr);
    EXPECT_EQ(zombie->state(), ProcState::kZombie);
    uint32_t value = 0;
    ASSERT_TRUE(zombie->space().ReadBytes(tally, reinterpret_cast<uint8_t*>(&value), 4).ok());
    EXPECT_EQ(value, static_cast<uint32_t>(kProcs)) << "the public symbol, read through a zombie";
  }
}

// Exit drops the fault handlers; a handler that ends its own process is running
// when that happens. Run under ASan, a handler that did not outlive the drop is a
// heap-use-after-free. Covers the dispatch loop's fault path and the kernel's
// (a sys_cas on an unmapped shared-region word), and a handler that declines after the kill.
TEST(MachineTest, FaultHandlerThatEndsItsOwnProcess) {
  const char* kSources[] = {
      "int main(void) { int *p; p = 0x6ff00000; return *p; }",
      "int main(void) { int *p; p = 0x6ff00000; return sys_cas(p, 0, 1); }",
  };
  for (const char* source : kSources) {
    for (bool resolve : {true, false}) {
      SCOPED_TRACE(testing::Message() << source << (resolve ? " resolved" : " declined"));
      HemlockWorld world;
      ASSERT_TRUE(world.CompileTo(source, "/home/user/m.o").ok());
      Result<LoadImage> image = world.Link({.inputs = {{"m.o", ShareClass::kStaticPrivate}}});
      ASSERT_TRUE(image.ok());
      Result<ExecResult> run = world.Exec(*image);
      ASSERT_TRUE(run.ok());
      Process* proc = world.machine().FindProcess(run->pid);
      ASSERT_NE(proc, nullptr);
      auto calls = std::make_shared<int>(0);
      std::weak_ptr<int> watch = calls;
      proc->PushFaultHandler([calls, resolve](Machine& m, Process& p, const Fault& fault) {
        m.KillProcess(p.pid(), 77, StrFormat("handler at 0x%08x", fault.addr));
        ++*calls;  // the closure's state, after the exit dropped the chain
        return resolve;
      });
      calls.reset();
      Result<int> status = world.RunToExit(run->pid);
      ASSERT_TRUE(status.ok()) << status.status().ToString();
      EXPECT_EQ(*status, 77);
      EXPECT_EQ(proc->stdout_text(), "[killed: handler at 0x6ff00000]\n");
      EXPECT_TRUE(watch.expired()) << "the zombie kept its fault handlers";
    }
  }
}

}  // namespace
}  // namespace hemlock
