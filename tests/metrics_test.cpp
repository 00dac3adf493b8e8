// The observability layer: MetricsRegistry, TraceBuffer, and their wiring through
// ldl's resolution caches — counter registration, ring wraparound, cache hit/miss
// accounting, negative-cache invalidation when a module registered later shadows a
// previously memoized miss.
#include <gtest/gtest.h>

#include "src/base/metrics.h"
#include "src/base/trace.h"
#include "src/runtime/world.h"
#include "src/sfs/shared_fs.h"

namespace hemlock {
namespace {

TEST(MetricsRegistryTest, CounterHandlesAreStableAndNamed) {
  MetricsRegistry reg;
  uint64_t* a = reg.Counter("ldl.lookups");
  EXPECT_EQ(reg.Get("ldl.lookups"), 0u);
  ++*a;
  ++*a;
  EXPECT_EQ(reg.Get("ldl.lookups"), 2u);

  // Registering more counters must not invalidate earlier handles.
  for (int i = 0; i < 100; ++i) {
    reg.Counter("filler." + std::to_string(i));
  }
  EXPECT_EQ(a, reg.Counter("ldl.lookups"));
  ++*a;
  EXPECT_EQ(reg.Get("ldl.lookups"), 3u);

  // Reading an unknown name returns 0 and must not create an entry.
  EXPECT_EQ(reg.Get("never.registered"), 0u);
  EXPECT_EQ(reg.Snapshot().count("never.registered"), 0u);

  reg.Add("cold.path", 5);
  EXPECT_EQ(reg.Get("cold.path"), 5u);
}

TEST(MetricsRegistryTest, SnapshotAndMerge) {
  MetricsRegistry reg;
  reg.Add("x", 2);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.at("x"), 2u);

  MetricsRegistry other;
  other.Add("x", 10);
  other.Add("y", 1);
  MetricsRegistry::Merge(&snap, other.Snapshot());
  EXPECT_EQ(snap.at("x"), 12u);  // shared names sum
  EXPECT_EQ(snap.at("y"), 1u);

  reg.Reset();
  EXPECT_EQ(reg.Get("x"), 0u);
}

TEST(TraceBufferTest, DisabledByDefaultAndRecordsWhenEnabled) {
  TraceBuffer ring;
  ring.Emit(TraceKind::kSymbolLookup, "sym");
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total_emitted(), 0u);

  ring.set_enabled(true);
  ring.Emit(TraceKind::kCacheMiss, "sym", "mod", 0x1000, 7);
  ASSERT_EQ(ring.size(), 1u);
  TraceEvent ev = ring.Snapshot()[0];
  EXPECT_EQ(ev.kind, TraceKind::kCacheMiss);
  EXPECT_EQ(ev.what, "sym");
  EXPECT_EQ(ev.detail, "mod");
  EXPECT_EQ(ev.addr, 0x1000u);
  EXPECT_EQ(ev.value, 7u);
  EXPECT_FALSE(ev.ToString().empty());
}

TEST(TraceBufferTest, RingWrapsKeepingNewestAndCountsDropped) {
  TraceBuffer ring;
  ring.set_capacity(4);
  ring.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    ring.Emit(TraceKind::kSymbolLookup, "s" + std::to_string(i));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_emitted(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first, and the sequence numbers survive the wraparound.
  EXPECT_EQ(events.front().seq, 6u);
  EXPECT_EQ(events.front().what, "s6");
  EXPECT_EQ(events.back().seq, 9u);
  EXPECT_EQ(events.back().what, "s9");
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
}

class LdlMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(world_.vfs().MkdirAll("/shm/lib").ok());
  }

  void Compile(const std::string& src, const std::string& path, CompileOptions opts = {}) {
    opts.include_prelude = false;
    Status st = world_.CompileTo(src, path, opts);
    ASSERT_TRUE(st.ok()) << path << ": " << st.ToString();
  }

  HemlockWorld world_;
};

TEST_F(LdlMetricsTest, TraceRecordsResolutionAndAgreesWithCounters) {
  Compile(R"(
    extern int getval(void);
    int wrap(void) { return getval(); }
  )",
          "/shm/lib/wrap.o");
  world_.machine().trace().set_enabled(true);
  Result<RunOutcome> out = world_.RunProgram(R"(
    int getval(void) { return 42; }
    extern int wrap(void);
    int main(void) { return wrap() - 42; }
  )",
                                             {{"wrap.o", ShareClass::kDynamicPublic}});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->exit_code, 0);

  std::vector<TraceEvent> events = world_.machine().trace().Snapshot();
  ASSERT_FALSE(events.empty());
  uint64_t link_faults = 0;
  uint64_t lock_events = 0;
  uint64_t mapped = 0;
  uint64_t symbol_lookups = 0;
  for (const TraceEvent& ev : events) {
    if (ev.kind == TraceKind::kFaultHandled && ev.what == "link") {
      ++link_faults;
    }
    if (ev.kind == TraceKind::kLockTaken) {
      ++lock_events;
    }
    if (ev.kind == TraceKind::kModuleMapped) {
      ++mapped;
    }
    if (ev.kind == TraceKind::kSymbolLookup) {
      ++symbol_lookups;
    }
  }
  // The trace is the same story the counters tell.
  EXPECT_EQ(link_faults, out->metrics.at("ldl.link_faults"));
  EXPECT_GE(link_faults, 1u);
  EXPECT_EQ(lock_events, out->metrics.at("sfs.locks_taken"));
  EXPECT_GE(mapped, 1u);
  // A full lookup event is emitted exactly once per scope walk (cache misses);
  // memoized answers emit cache_hit events instead.
  EXPECT_EQ(symbol_lookups, out->metrics.at("ldl.cache_misses"));
}

TEST_F(LdlMetricsTest, MissingDependencyIsCountedAndCachedMissesHit) {
  // a.o lists z.o on its module list, but z.o exists nowhere; a_fn references zvar
  // twice so the second lookup is answered from the memoized negative cache.
  CompileOptions a_opts;
  a_opts.module_list = {"z.o"};
  a_opts.search_path = {"/shm/libz"};
  Compile(R"(
    extern int zvar;
    int a_fn(void) { return zvar + zvar; }
  )",
          "/shm/lib/a.o", a_opts);
  Result<RunOutcome> out = world_.RunProgram(R"(
    extern int a_fn(void);
    int on_segv(int addr) { sys_exit(77); return 0; }
    int main(void) {
      sys_signal(&on_segv);
      return a_fn();
    }
  )",
                                             {{"a.o", ShareClass::kDynamicPublic}});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // zvar never resolves: the use faults and the program's own handler exits 77.
  EXPECT_EQ(out->exit_code, 77);
  EXPECT_EQ(out->metrics.at("ldl.deps_missing"), 1u);  // the silent-continue bug, now visible
  EXPECT_GE(out->metrics.at("ldl.unresolved_refs"), 1u);
  EXPECT_GE(out->metrics.at("ldl.cache_misses"), 1u);
  EXPECT_GE(out->metrics.at("ldl.cache_hits"), 1u);  // second zvar reloc, memoized miss
  EXPECT_EQ(out->metrics.at("ldl.lookups"),
            out->metrics.at("ldl.cache_hits") + out->metrics.at("ldl.cache_misses"));
}

TEST_F(LdlMetricsTest, LateRegisteredModuleInvalidatesCachedMiss) {
  // c.o exports c_fn; a.o calls it but has no module list, so c_fn can only come from
  // the root scope — where it appears only once module c is registered.
  Compile("int c_fn(void) { return 7; }", "/shm/lib/c.o");
  Compile(R"(
    extern int c_fn(void);
    int a_fn(void) { return c_fn(); }
  )",
          "/shm/lib/a.o");

  // Program 1 links c.o so ldl creates the public module file /shm/lib/c.
  {
    Result<RunOutcome> out = world_.RunProgram(R"(
      extern int c_fn(void);
      int main(void) { return c_fn() - 7; }
    )",
                                               {{"c.o", ShareClass::kDynamicPublic}});
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_EQ(out->exit_code, 0);
  }
  ASSERT_TRUE(world_.vfs().Exists("/shm/lib/c"));

  // Program 2 links only a.o. Its linker has never heard of module c.
  (void)world_.CompileTo(R"(
    extern int a_fn(void);
    int main(void) { return a_fn(); }
  )",
                         "/home/user/p2.o");
  LdsOptions lds;
  lds.inputs = {{"p2.o", ShareClass::kStaticPrivate}, {"a.o", ShareClass::kDynamicPublic}};
  Result<LoadImage> image = world_.Link(lds);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  Result<ExecResult> run = world_.Exec(*image);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Process* proc = world_.machine().FindProcess(run->pid);
  ASSERT_NE(proc, nullptr);

  int idx_a = run->ldl->FindModuleIndex("/shm/lib/a");
  ASSERT_GE(idx_a, 0);
  ASSERT_GE(run->ldl->UnresolvedCountOf(idx_a), 1u);

  // First touch of module a: the lazy-link fault resolves what it can; c_fn is not in
  // any scope yet, so the miss is recorded (and memoized) and a stays unresolved.
  Result<SfsStat> a_stat = world_.sfs().Stat("/lib/a");
  ASSERT_TRUE(a_stat.ok());
  Fault touch_a{a_stat->addr, AccessKind::kExec, FaultKind::kProtection};
  EXPECT_TRUE(run->ldl->HandleFault(world_.machine(), *proc, touch_a));
  EXPECT_GE(run->ldl->UnresolvedCountOf(idx_a), 1u);
  EXPECT_GE(run->ldl->metrics().Get("ldl.cache_misses"), 1u);
  EXPECT_FALSE(run->ldl->LookupRootSymbol("c_fn").ok());

  // A stray pointer into c's segment: the pointer-follow fault registers module c
  // with this linker — which must drop the memoized miss for c_fn.
  size_t before = run->ldl->ModuleCount();
  Result<SfsStat> c_stat = world_.sfs().Stat("/lib/c");
  ASSERT_TRUE(c_stat.ok());
  Fault touch_c{c_stat->addr, AccessKind::kRead, FaultKind::kUnmapped};
  EXPECT_TRUE(run->ldl->HandleFault(world_.machine(), *proc, touch_c));
  EXPECT_EQ(run->ldl->ModuleCount(), before + 1);
  EXPECT_EQ(run->ldl->metrics().Get("ldl.map_faults"), 1u);
  EXPECT_TRUE(run->ldl->LookupRootSymbol("c_fn").ok());

  // Re-resolving module a now succeeds: the negative cache was invalidated by the
  // registration, so the shadowing export is found instead of the memoized miss.
  ASSERT_TRUE(run->ldl->ResolveAll(*proc).ok());
  EXPECT_EQ(run->ldl->UnresolvedCountOf(idx_a), 0u);

  // And the process actually runs to completion through the freshly linked call.
  Result<int> status = world_.RunToExit(run->pid);
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(*status, 7);
}

TEST_F(LdlMetricsTest, RunOutcomeMergesMachineAndLinkerCounters) {
  Result<RunOutcome> out = world_.RunProgram(R"(
    int main(void) { puts("hi\n"); return 0; }
  )");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->stdout_text, "hi\n");
  EXPECT_EQ(out->exit_code, 0);
  // Both halves are present in the merged snapshot: kernel-side and linker-side.
  EXPECT_EQ(out->metrics.count("vm.syscalls"), 1u);
  EXPECT_GE(out->metrics.at("vm.syscalls"), 1u);  // the exit syscall at least
  EXPECT_EQ(out->metrics.count("ldl.link_faults"), 1u);
}

}  // namespace
}  // namespace hemlock
