// Cross-application shared-segment tests — the heart of the paper.
//
// Two separately linked programs access the same public module with ordinary
// variable syntax; writes made by the first are visible to the second; pointers into
// the shared region mean the same thing in every process.
#include <cstdio>

#include <gtest/gtest.h>

#include "src/base/layout.h"
#include "src/runtime/world.h"

namespace hemlock {
namespace {

// The shared module: a counter plus a bump routine, exactly the paper's Figure 1 idea
// (shared .c file compiled once, linked into multiple programs).
constexpr char kCounterModule[] = R"(
  int counter = 100;
  int bump(int delta) {
    counter = counter + delta;
    return counter;
  }
)";

// Compiles the counter module's template to /shm/lib/counter.o in |world|.
Status AddCounterModule(HemlockWorld& world) {
  Status st = world.vfs().MkdirAll("/shm/lib");
  if (!st.ok()) {
    return st;
  }
  CompileOptions opts;
  opts.include_prelude = false;  // keep the shared module lean
  return world.CompileTo(kCounterModule, "/shm/lib/counter.o", opts);
}

class SharingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Status st = AddCounterModule(world_);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  // Builds a program that links the counter module with |cls| and runs it.
  Result<RunOutcome> RunWith(const std::string& source, ShareClass cls) {
    return world_.RunProgram(source, {{"counter.o", cls}});
  }

  HemlockWorld world_;
};

constexpr char kBumpProgram[] = R"(
  extern int counter;
  extern int bump(int delta);
  int main(void) {
    putint(bump(1));
    puts(" ");
    putint(counter);
    puts("\n");
    return 0;
  }
)";

TEST_F(SharingTest, Table1ClassSemantics) {
  // Paper Table 1, one row per class, each cell derived by experiment: two
  // separately linked programs bump the counter and print where it lives. A
  // public class is one instance (the second run sees 102) in the public region,
  // kept in a module file beside its template, named by dropping ".o"; a private
  // class is a fresh instance per process (101 again) in the private part of the
  // address space. Each class gets a world of its own.
  constexpr char kTable1Program[] = R"(
    extern int counter;
    extern int bump(int delta);
    int main(void) {
      putint(bump(1));
      puts(" ");
      putint(&counter);
      puts("\n");
      return 0;
    }
  )";
  struct Row {
    ShareClass cls;
    bool public_class;
  };
  for (Row row : {Row{ShareClass::kStaticPrivate, false}, Row{ShareClass::kDynamicPrivate, false},
                  Row{ShareClass::kStaticPublic, true}, Row{ShareClass::kDynamicPublic, true}}) {
    SCOPED_TRACE(ShareClassName(row.cls));
    HemlockWorld world;
    ASSERT_TRUE(AddCounterModule(world).ok());
    Result<RunOutcome> out1 = world.RunProgram(kTable1Program, {{"counter.o", row.cls}});
    ASSERT_TRUE(out1.ok()) << out1.status().ToString();
    Result<RunOutcome> out2 = world.RunProgram(kTable1Program, {{"counter.o", row.cls}});
    ASSERT_TRUE(out2.ok()) << out2.status().ToString();
    int second = 0;
    uint32_t addr = 0;
    ASSERT_EQ(std::sscanf(out2->stdout_text.c_str(), "%d %u", &second, &addr), 2);
    EXPECT_EQ(out1->stdout_text.rfind("101 ", 0), 0u) << out1->stdout_text;
    EXPECT_EQ(second, row.public_class ? 102 : 101) << "new instance per process?";
    EXPECT_EQ(InSfsRegion(addr), row.public_class) << "address-space region";
    EXPECT_EQ(world.vfs().Exists("/shm/lib/counter"), row.public_class) << "module file";
  }
}

TEST_F(SharingTest, PublicModuleAtSameAddressInEveryProcess) {
  // Uniform addressing: &counter printed by two separately linked programs matches.
  constexpr char kAddrProgram[] = R"(
    extern int counter;
    int main(void) {
      putint(&counter);
      puts("\n");
      return 0;
    }
  )";
  Result<RunOutcome> out1 = RunWith(kAddrProgram, ShareClass::kDynamicPublic);
  ASSERT_TRUE(out1.ok()) << out1.status().ToString();
  Result<RunOutcome> out2 = RunWith(kAddrProgram, ShareClass::kDynamicPublic);
  ASSERT_TRUE(out2.ok()) << out2.status().ToString();
  EXPECT_EQ(out1->stdout_text, out2->stdout_text);
  EXPECT_NE(out1->stdout_text, "0\n");
}

TEST_F(SharingTest, SharedFunctionCalledCrossModule) {
  // Calling bump() crosses from private text (region 0x0) into the shared region
  // (0x3xxxxxxx) — unreachable by a 28-bit jump, so lds must have inserted a
  // trampoline. Verify it works and is counted.
  Status st = world_.CompileTo(kBumpProgram, "/home/user/prog.o");
  ASSERT_TRUE(st.ok()) << st.ToString();
  LdsReport report;
  Result<LoadImage> image = world_.Link(
      {.inputs = {{"prog.o", ShareClass::kStaticPrivate},
                  {"counter.o", ShareClass::kStaticPublic}}},
      &report);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_GE(report.trampolines, 1u) << "call into the shared region requires a trampoline";
  Result<ExecResult> run = world_.Exec(*image);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Result<int> status = world_.RunToExit(run->pid);
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(*status, 0);
  EXPECT_EQ(world_.machine().FindProcess(run->pid)->stdout_text(), "101 101\n");
}

TEST_F(SharingTest, ForkSharesPublicCopiesPrivate) {
  // Paper §5: "The child ... receives a copy of each segment in the private portion
  // ... and shares the single copy of each segment in the public portion."
  constexpr char kForkProgram[] = R"(
    extern int counter;
    int private_counter = 0;
    int main(void) {
      int pid;
      pid = sys_fork();
      if (pid == 0) {
        counter = counter + 10;          // shared: parent sees it
        private_counter = private_counter + 10;  // private: parent does not
        sys_exit(0);
      }
      sys_waitpid(pid);
      putint(counter);
      puts(" ");
      putint(private_counter);
      puts("\n");
      return 0;
    }
  )";
  Result<RunOutcome> out = RunWith(kForkProgram, ShareClass::kDynamicPublic);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->stdout_text, "110 0\n");
}

TEST_F(SharingTest, ConcurrentProcessesShareLiveSegment) {
  // Two *simultaneously live* processes ping-pong through the shared counter.
  constexpr char kWriter[] = R"(
    extern int counter;
    int main(void) {
      counter = 555;
      return 0;
    }
  )";
  constexpr char kReader[] = R"(
    extern int counter;
    int main(void) {
      while (counter != 555) { sys_yield(); }
      puts("saw it\n");
      return 0;
    }
  )";
  Status st1 = world_.CompileTo(kWriter, "/home/user/writer.o");
  Status st2 = world_.CompileTo(kReader, "/home/user/reader.o");
  ASSERT_TRUE(st1.ok() && st2.ok());
  Result<LoadImage> writer = world_.Link({.inputs = {{"writer.o", ShareClass::kStaticPrivate},
                                                     {"counter.o", ShareClass::kDynamicPublic}}});
  Result<LoadImage> reader = world_.Link({.inputs = {{"reader.o", ShareClass::kStaticPrivate},
                                                     {"counter.o", ShareClass::kDynamicPublic}}});
  ASSERT_TRUE(writer.ok() && reader.ok());
  // Start the reader first so it spins until the writer runs.
  Result<ExecResult> r = world_.Exec(*reader);
  Result<ExecResult> w = world_.Exec(*writer);
  ASSERT_TRUE(r.ok() && w.ok());
  ASSERT_EQ(world_.machine().RunScheduled(SchedParams{}, 50'000'000), SchedStatus::kExited);
  EXPECT_EQ(world_.machine().FindProcess(r->pid)->stdout_text(), "saw it\n");
}

TEST(SharingRebootTest, PublicModuleSurvivesReboot) {
  // Serialize the shared partition ("shut down"), rebuild the machine, deserialize
  // ("boot" — including the boot-time address-table scan), and keep counting.
  std::vector<uint8_t> disk;
  {
    HemlockWorld world;
    ASSERT_TRUE(AddCounterModule(world).ok());
    Result<RunOutcome> out =
        world.RunProgram(kBumpProgram, {{"counter.o", ShareClass::kDynamicPublic}});
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->stdout_text, "101 101\n");
    ByteWriter w;
    world.sfs().Serialize(&w);
    disk = w.Take();
  }
  {
    HemlockWorld world;
    ByteReader r(disk);
    Result<std::unique_ptr<SharedFs>> fs = SharedFs::Deserialize(&r);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    world.machine().ReplaceSfs(std::move(*fs));
    Result<RunOutcome> out =
        world.RunProgram(kBumpProgram, {{"counter.o", ShareClass::kDynamicPublic}});
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->stdout_text, "102 102\n");  // state survived the reboot
  }
}

}  // namespace
}  // namespace hemlock
