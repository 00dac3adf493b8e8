// Lazy dynamic linking tests (paper §3, "Lazy Dynamic Linking").
//
// A module with undefined references is mapped without access permissions; the first
// touch faults; the handler resolves the module's references, mapping in — possibly
// inaccessibly — any modules those references need, recursively.
#include <algorithm>

#include <gtest/gtest.h>

#include "src/base/layout.h"
#include "src/base/strings.h"
#include "src/runtime/world.h"
#include "src/sfs/remote_backing.h"
#include "src/sfs/sfs_check.h"

namespace hemlock {
namespace {

class LazyLinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(world_.vfs().MkdirAll("/shm/lib").ok());
    CompileOptions leaf_opts;
    leaf_opts.include_prelude = false;
    // Leaf module C: fully self-contained.
    ASSERT_TRUE(world_
                    .CompileTo(R"(
                      int c_value = 7;
                      int c_fn(int x) { return x + c_value; }
                    )",
                               "/shm/lib/modc.o", leaf_opts)
                    .ok());
    // Module B references C; its own list says where to find it.
    CompileOptions b_opts;
    b_opts.include_prelude = false;
    b_opts.module_list = {"modc.o"};
    b_opts.search_path = {"/shm/lib"};
    ASSERT_TRUE(world_
                    .CompileTo(R"(
                      extern int c_fn(int x);
                      int b_fn(int x) { return c_fn(x) * 2; }
                    )",
                               "/shm/lib/modb.o", b_opts)
                    .ok());
    // Module A references B.
    CompileOptions a_opts;
    a_opts.include_prelude = false;
    a_opts.module_list = {"modb.o"};
    a_opts.search_path = {"/shm/lib"};
    ASSERT_TRUE(world_
                    .CompileTo(R"(
                      extern int b_fn(int x);
                      int a_used(int x) { return b_fn(x) + 1; }
                      int a_unused(int x) { return x; }
                    )",
                               "/shm/lib/moda.o", a_opts)
                    .ok());
  }

  Result<ExecResult> BuildAndExec(const std::string& source, LdlOptions ldl) {
    RETURN_IF_ERROR(world_.CompileTo(source, "/home/user/prog.o"));
    ASSIGN_OR_RETURN(LoadImage image,
                     world_.Link({.inputs = {{"prog.o", ShareClass::kStaticPrivate},
                                             {"moda.o", ShareClass::kDynamicPublic}},
                                  .lib_dirs = {"/shm/lib"}}));
    ExecOptions exec;
    exec.ldl = ldl;
    return world_.Exec(image, exec);
  }

  HemlockWorld world_;
};

constexpr char kProgram[] = R"(
  extern int a_used(int x);
  int main(void) {
    putint(a_used(10));   // (10 + 7) * 2 + 1 = 35
    puts("\n");
    return 0;
  }
)";

TEST_F(LazyLinkTest, RecursiveChainResolvedOnFirstTouch) {
  Result<ExecResult> run = BuildAndExec(kProgram, LdlOptions{});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // Before execution: A is located and mapped, but B and C are not yet needed —
  // this is the "huge reachability graph, link only what is used" property.
  EXPECT_EQ(run->ldl->FindModuleIndex("/shm/lib/modb"), -1);
  EXPECT_EQ(run->ldl->FindModuleIndex("/shm/lib/modc"), -1);

  Result<int> status = world_.RunToExit(run->pid);
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(*status, 0);
  EXPECT_EQ(world_.machine().FindProcess(run->pid)->stdout_text(), "35\n");

  // The first call into A faulted; resolution pulled B in, whose use pulled C in.
  EXPECT_GE(run->ldl->metrics().Get("ldl.link_faults"), 1u);
  EXPECT_NE(run->ldl->FindModuleIndex("/shm/lib/modb"), -1);
  EXPECT_NE(run->ldl->FindModuleIndex("/shm/lib/modc"), -1);
}

TEST_F(LazyLinkTest, UnusedGraphStaysUnlinked) {
  // A program that links A but never calls into it: nothing past A gets mapped and no
  // link faults occur.
  Result<ExecResult> run = BuildAndExec(R"(
    extern int a_used(int x);
    int main(void) { return 0; }
  )",
                                        LdlOptions{});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Result<int> status = world_.RunToExit(run->pid);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(*status, 0);
  EXPECT_EQ(run->ldl->metrics().Get("ldl.link_faults"), 0u);
  EXPECT_EQ(run->ldl->FindModuleIndex("/shm/lib/modb"), -1);
}

TEST_F(LazyLinkTest, EagerModeLinksEverythingUpFront) {
  LdlOptions eager;
  eager.lazy = false;
  Result<ExecResult> run = BuildAndExec(kProgram, eager);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // Whole chain resolved before the program runs.
  EXPECT_NE(run->ldl->FindModuleIndex("/shm/lib/modb"), -1);
  EXPECT_NE(run->ldl->FindModuleIndex("/shm/lib/modc"), -1);
  Result<int> status = world_.RunToExit(run->pid);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(*status, 0);
  EXPECT_EQ(run->ldl->metrics().Get("ldl.link_faults"), 0u);
  EXPECT_EQ(world_.machine().FindProcess(run->pid)->stdout_text(), "35\n");
}

TEST_F(LazyLinkTest, FunctionLazyBindsOnFirstCall) {
  // The SunOS jump-table optimization (paper: "modules first accessed by calling a
  // (named) function will be linked without fault-handling overhead" — here the
  // *module* fault disappears; only per-function first-call bindings remain).
  LdlOptions plt;
  plt.function_lazy = true;
  Result<ExecResult> run = BuildAndExec(kProgram, plt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Result<int> status = world_.RunToExit(run->pid);
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(*status, 0);
  EXPECT_EQ(world_.machine().FindProcess(run->pid)->stdout_text(), "35\n");
  // No module-granularity link faults; exactly the touched call chain bound via PLT
  // sentinels (a_used -> b_fn -> c_fn: three first-call bindings).
  EXPECT_EQ(run->ldl->metrics().Get("ldl.link_faults"), 0u);
  EXPECT_GE(run->ldl->metrics().Get("ldl.plt_faults"), 2u);
}

TEST_F(LazyLinkTest, FunctionLazySecondCallIsDirect) {
  // After the first call binds, subsequent calls jump straight to the callee: run the
  // same function many times and confirm a single binding.
  LdlOptions plt;
  plt.function_lazy = true;
  Result<ExecResult> run = BuildAndExec(R"(
    extern int a_used(int x);
    int main(void) {
      int i;
      int sum;
      sum = 0;
      for (i = 0; i < 50; i = i + 1) { sum = sum + a_used(1); }
      putint(sum);
      puts("\n");
      return 0;
    }
  )",
                                        plt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Result<int> status = world_.RunToExit(run->pid);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(*status, 0);
  EXPECT_EQ(world_.machine().FindProcess(run->pid)->stdout_text(), "850\n");
  // 50 calls, but each distinct cross-module edge bound exactly once.
  EXPECT_LE(run->ldl->metrics().Get("ldl.plt_faults"), 3u);
}

TEST_F(LazyLinkTest, FunctionLazyCallToMissingSymbolIsFatal) {
  LdlOptions plt;
  plt.function_lazy = true;
  Result<ExecResult> run = BuildAndExec(R"(
    extern int no_such_fn(int x);
    int main(void) { return no_such_fn(1); }
  )",
                                        plt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Result<int> status = world_.RunToExit(run->pid);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(*status, 139);
}

TEST_F(LazyLinkTest, UnresolvableReferenceKillsAtUse) {
  // Reference a symbol that exists nowhere: lds warns and continues; ldl leaves it
  // unresolved; the *use* faults fatally (no handler claims it).
  Result<ExecResult> run = BuildAndExec(R"(
    extern int no_such_fn(int x);
    int main(void) {
      return no_such_fn(1);
    }
  )",
                                        LdlOptions{});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Result<int> status = world_.RunToExit(run->pid);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(*status, 139);
}

TEST_F(LazyLinkTest, UserHandlerSeesUnresolvedFault) {
  // Paper §2: when Hemlock's handler cannot resolve a fault, a program-provided
  // handler is invoked — application-specific recovery.
  Result<ExecResult> run = BuildAndExec(R"(
    extern int no_such_fn(int x);
    int main(void) {
      return no_such_fn(1);
    }
  )",
                                        LdlOptions{});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  int user_handler_hits = 0;
  Process* proc = world_.machine().FindProcess(run->pid);
  ASSERT_NE(proc, nullptr);
  proc->ChainFaultHandler([&user_handler_hits](Machine& m, Process& p, const Fault& f) {
    ++user_handler_hits;
    // Recover by exiting cleanly (the handler "could be used ... to trigger
    // application-specific recovery").
    m.KillProcess(p.pid(), 42, "user recovery");
    return true;
  });
  (void)world_.RunToExit(run->pid);
  EXPECT_GE(user_handler_hits, 1);
  EXPECT_EQ(world_.machine().FindProcess(run->pid)->exit_status(), 42);
}

TEST_F(LazyLinkTest, PointerFollowMapsSegmentOnFault) {
  // Map-on-pointer-follow: a program dereferences an address inside the shared
  // region that names a plain data file it never mapped. The fault handler translates
  // address -> file and maps it (paper §2: "it uses a (new) kernel call to translate
  // the address into a path name and ... maps the named segment").
  uint32_t addr = 0;
  {
    Result<uint32_t> ino = world_.sfs().Create("/plain.dat");
    ASSERT_TRUE(ino.ok());
    uint32_t value = 777;
    ASSERT_TRUE(world_.sfs()
                    .WriteAt(*ino, 0, reinterpret_cast<uint8_t*>(&value), 4)
                    .ok());
    Result<uint32_t> a = world_.sfs().AddressOf(*ino);
    ASSERT_TRUE(a.ok());
    addr = *a;
  }
  std::string source = StrFormat(R"(
    int main(void) {
      int *p;
      p = %u;
      putint(*p);
      puts("\n");
      return 0;
    }
  )",
                                 addr);
  Result<ExecResult> run = BuildAndExec(source, LdlOptions{});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Result<int> status = world_.RunToExit(run->pid);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(*status, 0);
  EXPECT_EQ(world_.machine().FindProcess(run->pid)->stdout_text(), "777\n");
  EXPECT_GE(run->ldl->metrics().Get("ldl.map_faults"), 1u);
}

TEST_F(LazyLinkTest, StrayPointerInSharedRegionStillFaults) {
  // An address in the shared region with *no* file behind it cannot be mapped; the
  // fault is fatal (paper §5 "Safety": the sparse address space keeps the probability
  // of silent trouble small).
  Result<ExecResult> run = BuildAndExec(R"(
    int main(void) {
      int *p;
      p = 0x6FFF0000;
      return *p;
    }
  )",
                                        LdlOptions{});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Result<int> status = world_.RunToExit(run->pid);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(*status, 139);
}

// A module whose kept value lives in .bss pages past its trampolines, and whose
// first call out of the module (into B) comes after the value is set. The padding
// function pushes the trampolines past the first text page, away from the page
// the module is first touched on.
std::string BssModuleSource() {
  std::string pad = "int g_pad(int x) {\n";
  for (int i = 0; i < 600; ++i) {
    pad += "  x = x + 1;\n";
  }
  pad += "  return x;\n}\n";
  return R"(
    extern int b_fn(int x);
    int keep[2048];
    int g_set(int v) { keep[1500] = v; return 0; }
    int g_get(void) { return keep[1500]; }
    int g_call(int x) { return b_fn(x); }
  )" + pad;
}

class BssKeptTest : public LazyLinkTest {
 protected:
  // Sets keep[1500] = 42, calls into B for the first time, then reads it back.
  std::string RunWith(LdlOptions ldl) {
    CompileOptions opts;
    opts.include_prelude = false;
    opts.module_list = {"modb.o"};
    opts.search_path = {"/shm/lib"};
    EXPECT_TRUE(world_.CompileTo(BssModuleSource(), "/shm/lib/modg.o", opts).ok());
    EXPECT_TRUE(world_
                    .CompileTo(R"(
                      extern int g_set(int v);
                      extern int g_get(void);
                      extern int g_call(int x);
                      int main(void) {
                        g_set(42);
                        g_call(1);
                        putint(g_get());
                        puts("\n");
                        return 0;
                      }
                    )",
                               "/home/user/prog.o")
                    .ok());
    Result<LoadImage> image =
        world_.Link({.inputs = {{"prog.o", ShareClass::kStaticPrivate},
                                {"modg.o", ShareClass::kDynamicPublic}},
                     .lib_dirs = {"/shm/lib"}});
    EXPECT_TRUE(image.ok()) << image.status().ToString();
    ExecOptions exec;
    exec.ldl = ldl;
    Result<ExecResult> run = world_.Exec(*image, exec);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    Result<int> status = world_.RunToExit(run->pid);
    EXPECT_TRUE(status.ok() && *status == 0);
    return world_.machine().FindProcess(run->pid)->stdout_text();
  }
};

TEST_F(BssKeptTest, FunctionLazyBindingKeepsBss) {
  // The first call into B binds through a sentinel and rewrites modg's trailer;
  // that rewrite must not touch the live segment's .bss.
  LdlOptions plt;
  plt.function_lazy = true;
  EXPECT_EQ(RunWith(plt), "42\n");
}

TEST_F(BssKeptTest, DefaultModeKeepsBss) { EXPECT_EQ(RunWith(LdlOptions{}), "42\n"); }

// The trailer a link fault rewrites must describe the module exactly as before
// except for the pending list, which shrinks to what is still unresolved.
class TrailerRoundTripTest : public LazyLinkTest {
 protected:
  Result<LinkedModule> ReadModule(const std::string& path) {
    ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, world_.vfs().ReadFile(path));
    return LinkedModule::DeserializeFile(bytes);
  }

  // Runs |program| (linking moda.o), then checks moda's file against its state
  // before the run: pending must be exactly the relocations against |missing|.
  void RunAndCheck(const char* program, const std::string& missing) {
    Result<ExecResult> run = BuildAndExec(program, LdlOptions{});
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    Result<LinkedModule> before = ReadModule("/shm/lib/moda");
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    ASSERT_FALSE(before->pending.empty());

    Result<int> status = world_.RunToExit(run->pid);
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(*status, 0);
    EXPECT_GE(run->ldl->metrics().Get("ldl.link_faults"), 1u);

    Result<LinkedModule> after = ReadModule("/shm/lib/moda");
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    std::vector<PendingReloc> still;
    std::copy_if(before->pending.begin(), before->pending.end(), std::back_inserter(still),
                 [&](const PendingReloc& rel) { return rel.symbol == missing; });
    EXPECT_EQ(after->pending, still);
    int index = run->ldl->FindModuleIndex("/shm/lib/moda");
    ASSERT_GE(index, 0);
    EXPECT_EQ(run->ldl->UnresolvedCountOf(index), still.size());

    EXPECT_EQ(after->name, before->name);
    EXPECT_EQ(after->base, before->base);
    EXPECT_EQ(after->text_size, before->text_size);
    EXPECT_EQ(after->data_size, before->data_size);
    EXPECT_EQ(after->bss_size, before->bss_size);
    EXPECT_EQ(after->exports, before->exports);
    EXPECT_EQ(after->module_list, before->module_list);
    EXPECT_EQ(after->search_path, before->search_path);
    EXPECT_EQ(after->template_hash, before->template_hash);

    // The file's mapped pages are the live segment, applied relocations included.
    std::vector<uint8_t> live(PageCeil(after->MemSize()));
    Process* proc = world_.machine().FindProcess(run->pid);
    ASSERT_TRUE(proc->space().ReadBytes(after->base, live.data(),
                                        static_cast<uint32_t>(live.size()))
                    .ok());
    Result<std::vector<uint8_t>> file = world_.vfs().ReadFile("/shm/lib/moda");
    ASSERT_TRUE(file.ok());
    ASSERT_GE(file->size(), live.size());
    EXPECT_TRUE(std::equal(live.begin(), live.end(), file->begin()));
    EXPECT_TRUE(std::equal(after->payload.begin(), after->payload.end(), live.begin()));

    SfsCheckReport report;
    SfsCheck(&world_.sfs()).Run(/*at_boot=*/false, &report);
    EXPECT_TRUE(report.clean()) << report.ToString();
  }
};

TEST_F(TrailerRoundTripTest, LinkFaultEmptiesThePendingList) {
  RunAndCheck(kProgram, /*missing=*/"");
}

TEST_F(TrailerRoundTripTest, PartialResolutionKeepsTheUnresolvable) {
  CompileOptions a_opts;
  a_opts.include_prelude = false;
  a_opts.module_list = {"modb.o"};
  a_opts.search_path = {"/shm/lib"};
  ASSERT_TRUE(world_
                  .CompileTo(R"(
                    extern int b_fn(int x);
                    extern int nowhere(int x);
                    int a_used(int x) { return b_fn(x) + 1; }
                    int a_broken(int x) { return nowhere(x); }
                  )",
                             "/shm/lib/moda.o", a_opts)
                  .ok());
  RunAndCheck(kProgram, /*missing=*/"nowhere");
}

// Stands in for a segment server: accepts every forwarded mutation and records
// the writes a replica would send.
class RecordingBacking : public RemoteBacking {
 public:
  struct Write {
    uint32_t ino = 0;
    uint32_t offset = 0;
    std::vector<uint8_t> bytes;
  };
  std::vector<Write> writes;

  Result<uint32_t> OnCreate(const std::string&) override { return 0u; }
  Result<uint32_t> OnMkdir(const std::string&) override { return 0u; }
  Result<uint32_t> OnSymlink(const std::string&, const std::string&) override { return 0u; }
  Status OnUnlink(const std::string&, bool) override { return OkStatus(); }
  Status OnTruncate(uint32_t, uint32_t) override { return OkStatus(); }
  Status OnWriteAt(uint32_t ino, uint32_t offset, const uint8_t* data, uint32_t len) override {
    writes.push_back(Write{ino, offset, std::vector<uint8_t>(data, data + len)});
    return OkStatus();
  }
  Status OnLock(uint32_t, int) override { return OkStatus(); }
  Status OnUnlock(uint32_t, int) override { return OkStatus(); }
  void OnReleaseLocks(int) override {}
  Status OnSetPending(uint32_t, bool) override { return OkStatus(); }
  Status EnsureResident(uint32_t, uint32_t, uint32_t) override { return OkStatus(); }
};

TEST_F(TrailerRoundTripTest, ReplicaSendsThePatchedPagesWithTheTrailer) {
  RecordingBacking backing;
  world_.sfs().SetRemoteBacking(&backing);
  Result<ExecResult> run = BuildAndExec(kProgram, LdlOptions{});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Result<int> status = world_.RunToExit(run->pid);
  world_.sfs().SetRemoteBacking(nullptr);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(world_.machine().FindProcess(run->pid)->stdout_text(), "35\n");

  // moda's last forwarded write is its trailer rewrite. It must carry the live,
  // relocated pages as well, so a server never holds a trailer that says
  // "resolved" over pages that are not.
  Result<SfsStat> st = world_.sfs().Stat("/lib/moda");
  ASSERT_TRUE(st.ok());
  const RecordingBacking::Write* last = nullptr;
  for (const RecordingBacking::Write& w : backing.writes) {
    if (w.ino == st->ino) {
      last = &w;
    }
  }
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->offset, 0u);
  Result<std::vector<uint8_t>> file = world_.vfs().ReadFile("/shm/lib/moda");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(last->bytes, *file);
  Result<LinkedModule> mod = LinkedModule::DeserializeFile(*file);
  ASSERT_TRUE(mod.ok()) << mod.status().ToString();
  EXPECT_TRUE(mod->pending.empty());
}

}  // namespace
}  // namespace hemlock
