// Tests for the blocking sync syscalls and the hem_* HemC sync library: kernel CAS
// semantics, mutex mutual exclusion under 16 chaos schedules, barriers, condition
// variables, spawn/waitpid lifecycle — and the satellite regression this PR exists
// for: a process that takes a lazy-link fault while *another live process* holds the
// module-creation lock must block, wake on the unlock, and ATTACH the finished
// segment rather than rebuild it.
#include "src/runtime/sync.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/apps/rwho_hemc.h"
#include "src/kernel/scheduler.h"
#include "src/link/loader.h"
#include "src/runtime/world.h"
#include "src/sfs/vfs.h"
#include "src/vm/jit.h"

namespace hemlock {
namespace {

Result<LoadImage> LinkWith(HemlockWorld& world, const std::string& main_obj,
                           const std::vector<std::string>& public_objs) {
  LdsOptions lds;
  lds.inputs.push_back({main_obj, ShareClass::kStaticPrivate});
  for (const std::string& obj : public_objs) {
    lds.inputs.push_back({obj, ShareClass::kDynamicPublic});
  }
  return world.Link(lds);
}

// --- sys_cas ---

TEST(SysCas, CompareAndSwapSemantics) {
  HemlockWorld world;
  CompileOptions no_prelude;
  no_prelude.include_prelude = false;
  ASSERT_TRUE(world.CompileTo("int word = 5;\n", "/shm/lib/cas_db.o", no_prelude).ok());
  // sys_cas returns the *old* value: a hit swaps and returns the expected value, a
  // miss leaves the word alone and returns what it found.
  Result<RunOutcome> out = world.RunProgram(
      "extern int word;\n"
      "int main() {\n"
      "  int old;\n"
      "  old = sys_cas(&word, 5, 9);\n"
      "  if (old != 5) { return 1; }\n"
      "  if (word != 9) { return 2; }\n"
      "  old = sys_cas(&word, 5, 77);\n"
      "  if (old != 9) { return 3; }\n"
      "  if (word != 9) { return 4; }\n"
      "  return 0;\n"
      "}\n",
      {{"/shm/lib/cas_db.o", ShareClass::kDynamicPublic}});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->exit_code, 0);
}

// --- hem_mutex under chaos schedules ---

// Each process adds 50 to a shared counter under the mutex; any lost update
// breaks the exact count. The final read is taken *under the lock* (reading after
// the loop without it would itself be a data race).
std::string MutexCounterSource() {
  return HemSyncDecls() +
         "extern int lock;\n"
         "extern int counter;\n"
         "int main() {\n"
         "  int i;\n"
         "  int final;\n"
         "  for (i = 0; i < 50; i += 1) {\n"
         "    hem_mutex_lock(&lock);\n"
         "    counter = counter + 1;\n"
         "    hem_mutex_unlock(&lock);\n"
         "    sys_yield();\n"
         "  }\n"
         "  hem_mutex_lock(&lock);\n"
         "  final = counter;\n"
         "  hem_mutex_unlock(&lock);\n"
         "  return final;\n"
         "}\n";
}

// One scheduled run of |procs| copies of the mutex counter program.
struct MutexRun {
  SchedStatus status = SchedStatus::kOutOfGas;
  std::vector<int> exit_statuses;  // in exec order
  std::string stdout_text;         // every process's, in exec order
  MetricsSnapshot metrics;
  bool jit = false;  // the JIT tier ran (HEMLOCK_JIT / HEMLOCK_SLOW_INTERP may turn it off)
};

// What watches a RunMutexCounter run: tracing, or the race detector, which
// keeps every sync call on the kernel path (and the JIT off).
enum class Observer { kNone, kTrace, kRace };

MutexRun RunMutexCounter(const SchedParams& params, int procs, uint32_t jit_threshold = 0,
                         Observer observer = Observer::kNone) {
  MutexRun run;
  HemlockWorld world;
  CompileOptions no_prelude;
  no_prelude.include_prelude = false;
  LoadImage image;
  [&] {
    ASSERT_TRUE(InstallHemSync(world).ok());
    ASSERT_TRUE(world
                    .CompileTo("int lock = 0;\nint counter = 0;\n",
                               "/shm/lib/mtx_db.o", no_prelude)
                    .ok());
    ASSERT_TRUE(world.CompileTo(MutexCounterSource(), "/home/user/mtx.o").ok());
    Result<LoadImage> linked =
        LinkWith(world, "/home/user/mtx.o", {"/shm/lib/mtx_db.o", "/shm/lib/hemsync.o"});
    ASSERT_TRUE(linked.ok()) << linked.status().ToString();
    image = *linked;
  }();
  if (::testing::Test::HasFatalFailure()) {
    return run;
  }
  if (jit_threshold != 0) {
    world.machine().set_jit_threshold(jit_threshold);
  }
  world.machine().trace().set_enabled(observer == Observer::kTrace);
  if (observer == Observer::kRace) {
    world.machine().EnableRaceDetector();
  }
  std::vector<int> pids;
  for (int i = 0; i < procs; ++i) {
    Result<ExecResult> exec = world.Exec(image);
    EXPECT_TRUE(exec.ok());
    if (!exec.ok()) {
      return run;
    }
    pids.push_back(exec->pid);
  }
  run.status = world.machine().RunScheduled(params, 200'000'000);
  for (int pid : pids) {
    Process* proc = world.machine().FindProcess(pid);
    run.exit_statuses.push_back(proc == nullptr ? -1 : proc->exit_status());
    run.stdout_text += proc == nullptr ? "" : proc->stdout_text();
  }
  run.metrics = world.machine().metrics().Snapshot();
  run.metrics["vm.ticks"] = world.machine().ticks();
  run.jit = world.machine().jit_enabled() && !world.machine().slow_interp() &&
            Jit::HostSupported() && observer != Observer::kRace;
  return run;
}

TEST(HemMutex, NoLostUpdatesAcross16ChaosSeeds) {
  // One core, and four cores with every block compiled: the SMP run catches a
  // lost update, or a lost wakeup (a hang or a deadlock), between sync calls
  // served in place on one core and the kernel path on another.
  struct Input {
    int cores;
    int procs;
    uint32_t jit_threshold;
  };
  for (const Input& in : {Input{1, 2, 0}, Input{4, 4, 1}}) {
    for (uint64_t seed = 1; seed <= 16; ++seed) {
      SchedParams params;
      params.policy = SchedPolicy::kRandom;
      params.seed = seed;
      params.quantum = 64;
      params.num_cores = in.cores;
      MutexRun run = RunMutexCounter(params, in.procs, in.jit_threshold);
      ASSERT_EQ(run.status, SchedStatus::kExited) << in.cores << " cores, seed " << seed;
      // Whichever process finishes last sees the full count.
      int max_status = *std::max_element(run.exit_statuses.begin(), run.exit_statuses.end());
      EXPECT_EQ(max_status, in.procs * 50)
          << "lost updates at " << in.cores << " cores, seed " << seed;
    }
  }
}

// The race detector keeps every sync call on the kernel path (the JIT and the
// in-place path are both off with it); without it most are served in place, and
// tracing changes neither. The guest and every count that describes its run are
// the same all three ways: observing must not move what is observed.
TEST(HemMutex, InPlaceSyncCallsMatchTheKernelPath) {
  // Threshold 1 compiles every block, so the JIT's syscall template serves the
  // calls; at the default most are served by the dispatch loop.
  for (uint32_t threshold : {0u, 1u}) {
    for (uint64_t seed : {3u, 11u}) {
      SchedParams params;
      params.policy = SchedPolicy::kRandom;
      params.seed = seed;
      params.quantum = 64;
      MutexRun kernel = RunMutexCounter(params, 2, threshold, Observer::kRace);
      std::string where = "threshold " + std::to_string(threshold) + ", seed " +
                          std::to_string(seed);
      ASSERT_EQ(kernel.status, SchedStatus::kExited) << where;
      EXPECT_EQ(kernel.metrics["vm.syscalls.in_place"], 0u) << where;
      MutexRun untraced;
      for (Observer observer : {Observer::kNone, Observer::kTrace}) {
        MutexRun in_place = RunMutexCounter(params, 2, threshold, observer);
        std::string leg = where + (observer == Observer::kTrace ? ", traced" : "");
        ASSERT_EQ(in_place.status, SchedStatus::kExited) << leg;
        EXPECT_EQ(in_place.exit_statuses, kernel.exit_statuses) << leg;
        EXPECT_EQ(in_place.stdout_text, kernel.stdout_text) << leg;
        for (const char* counter : {"vm.syscalls", "vm.ticks", "vm.sched.switches",
                                    "vm.sched.preemptions", "vm.sched.futex_waits",
                                    "vm.sched.wakes"}) {
          EXPECT_EQ(in_place.metrics[counter], kernel.metrics[counter]) << counter << ", " << leg;
        }
        EXPECT_GT(in_place.metrics["vm.sched.futex_waits"], 0u) << "no contention, " << leg;
        EXPECT_GT(in_place.metrics["vm.syscalls.in_place"], 0u) << leg;
        if (observer == Observer::kNone) {
          untraced = in_place;
        } else {
          // Tracing moves no counter at all, the JIT's included.
          EXPECT_EQ(in_place.metrics, untraced.metrics) << leg;
        }
      }
      if (threshold == 1 && untraced.jit) {
        EXPECT_GT(untraced.metrics["vm.jit.compiled_blocks"], 0u) << where;
      }
    }
  }
}

// --- hem_barrier ---

TEST(HemBarrier, AllProcessesCrossTogether) {
  HemlockWorld world;
  ASSERT_TRUE(InstallHemSync(world).ok());
  CompileOptions no_prelude;
  no_prelude.include_prelude = false;
  // bar = {target, arrived, generation}; phase_done counts crossings.
  ASSERT_TRUE(world
                  .CompileTo("int bar[3];\nint phase_done = 0;\nint bar_init = 0;\n",
                             "/shm/lib/bar_db.o", no_prelude)
                  .ok());
  // Each process CAS-increments phase_done before the barrier; after the barrier
  // all three increments must be visible to every process, every time — exit 0 on
  // success, the round number on failure.
  std::string src = HemSyncDecls() +
                    "extern int bar[3];\n"
                    "extern int phase_done;\n"
                    "extern int bar_init;\n"
                    "static int bump(int *w) {\n"
                    "  int v = *w;\n"
                    "  while (sys_cas(w, v, v + 1) != v) {\n"
                    "    v = *w;\n"
                    "  }\n"
                    "  return v;\n"
                    "}\n"
                    "int main() {\n"
                    "  int round;\n"
                    "  if (sys_cas(&bar_init, 0, 1) == 0) {\n"
                    "    hem_barrier_init(bar, 3);\n"
                    "    sys_cas(&bar_init, 1, 2);\n"
                    "  }\n"
                    "  while (bar_init != 2) {\n"
                    "    sys_yield();\n"
                    "  }\n"
                    "  for (round = 1; round <= 4; round += 1) {\n"
                    "    bump(&phase_done);\n"
                    "    hem_barrier_wait(bar);\n"
                    "    if (phase_done != round * 3) {\n"
                    "      return round;\n"
                    "    }\n"
                    "    hem_barrier_wait(bar);\n"
                    "  }\n"
                    "  return 0;\n"
                    "}\n";
  ASSERT_TRUE(world.CompileTo(src, "/home/user/barrier.o").ok());
  Result<LoadImage> image = LinkWith(world, "/home/user/barrier.o",
                                     {"/shm/lib/bar_db.o", "/shm/lib/hemsync.o"});
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  std::vector<int> pids;
  for (int p = 0; p < 3; ++p) {
    Result<ExecResult> run = world.Exec(*image);
    ASSERT_TRUE(run.ok());
    pids.push_back(run->pid);
  }
  SchedParams params;
  params.quantum = 64;
  EXPECT_EQ(world.machine().RunScheduled(params, 200'000'000), SchedStatus::kExited);
  for (int pid : pids) {
    Process* proc = world.machine().FindProcess(pid);
    ASSERT_NE(proc, nullptr);
    EXPECT_EQ(proc->exit_status(), 0) << "barrier round broke for pid " << pid;
  }
  // Eight barrier crossings with three processes cannot all be wait-free.
  EXPECT_GE(world.machine().metrics().Get("vm.sched.wakes"), 1u);
}

// --- hem_cond ---

TEST(HemCond, ProducerWakesConsumer) {
  HemlockWorld world;
  ASSERT_TRUE(InstallHemSync(world).ok());
  CompileOptions no_prelude;
  no_prelude.include_prelude = false;
  ASSERT_TRUE(world
                  .CompileTo("int lock = 0;\nint cond = 0;\nint ready = 0;\nint data = 0;\n",
                             "/shm/lib/cond_db.o", no_prelude)
                  .ok());
  std::string consumer = HemSyncDecls() +
                         "extern int lock;\n"
                         "extern int cond;\n"
                         "extern int ready;\n"
                         "extern int data;\n"
                         "int main() {\n"
                         "  int got;\n"
                         "  hem_mutex_lock(&lock);\n"
                         "  while (ready == 0) {\n"
                         "    hem_cond_wait(&cond, &lock);\n"
                         "  }\n"
                         "  got = data;\n"
                         "  hem_mutex_unlock(&lock);\n"
                         "  return got;\n"
                         "}\n";
  std::string producer = HemSyncDecls() +
                         "extern int lock;\n"
                         "extern int cond;\n"
                         "extern int ready;\n"
                         "extern int data;\n"
                         "int main() {\n"
                         "  int i;\n"
                         "  for (i = 0; i < 200; i += 1) {\n"
                         "    sys_yield();\n"
                         "  }\n"
                         "  hem_mutex_lock(&lock);\n"
                         "  data = 33;\n"
                         "  ready = 1;\n"
                         "  hem_cond_signal(&cond);\n"
                         "  hem_mutex_unlock(&lock);\n"
                         "  return 0;\n"
                         "}\n";
  ASSERT_TRUE(world.CompileTo(consumer, "/home/user/consumer.o").ok());
  ASSERT_TRUE(world.CompileTo(producer, "/home/user/producer.o").ok());
  Result<LoadImage> consumer_image = LinkWith(world, "/home/user/consumer.o",
                                              {"/shm/lib/cond_db.o", "/shm/lib/hemsync.o"});
  Result<LoadImage> producer_image = LinkWith(world, "/home/user/producer.o",
                                              {"/shm/lib/cond_db.o", "/shm/lib/hemsync.o"});
  ASSERT_TRUE(consumer_image.ok() && producer_image.ok());
  Result<ExecResult> consumer_run = world.Exec(*consumer_image);
  ASSERT_TRUE(consumer_run.ok());
  ASSERT_TRUE(world.Exec(*producer_image).ok());

  SchedParams params;
  params.quantum = 128;
  EXPECT_EQ(world.machine().RunScheduled(params, 200'000'000), SchedStatus::kExited);
  Process* consumer_proc = world.machine().FindProcess(consumer_run->pid);
  ASSERT_NE(consumer_proc, nullptr);
  EXPECT_EQ(consumer_proc->exit_status(), 33);
}

// --- sys_spawn / sys_waitpid ---

TEST(SpawnWaitpid, ExitStatusRoundTrip) {
  HemlockWorld world;
  ASSERT_TRUE(world.CompileTo("int main() { return 23; }\n", "/home/user/child.o").ok());
  Result<LoadImage> child_image = LinkWith(world, "/home/user/child.o", {});
  ASSERT_TRUE(child_image.ok());
  ASSERT_TRUE(world.vfs().WriteFile("/home/user/child.hxe", child_image->Serialize()).ok());

  ASSERT_TRUE(world
                  .CompileTo(
                      "int main() {\n"
                      "  int pid;\n"
                      "  int status;\n"
                      "  pid = sys_spawn(\"/home/user/child.hxe\");\n"
                      "  if (pid <= 0) { return 90; }\n"
                      "  status = sys_waitpid(pid);\n"
                      "  return status;\n"
                      "}\n",
                      "/home/user/parent.o")
                  .ok());
  Result<LoadImage> parent_image = LinkWith(world, "/home/user/parent.o", {});
  ASSERT_TRUE(parent_image.ok());

  InstallSpawnHandler(world.machine());
  Result<ExecResult> parent = world.Exec(*parent_image);
  ASSERT_TRUE(parent.ok());
  SchedParams params;
  EXPECT_EQ(world.machine().RunScheduled(params, 50'000'000), SchedStatus::kExited);
  Process* parent_proc = world.machine().FindProcess(parent->pid);
  ASSERT_NE(parent_proc, nullptr);
  EXPECT_EQ(parent_proc->exit_status(), 23);
  // The child was reaped: no zombie left behind.
  EXPECT_EQ(world.machine().LiveProcessCount(), 0);
}

TEST(SpawnWaitpid, SpawnWithoutHandlerFailsCleanly) {
  HemlockWorld world;
  Result<RunOutcome> out = world.RunProgram(
      "int main() {\n"
      "  int pid;\n"
      "  pid = sys_spawn(\"/home/user/nothing.hxe\");\n"
      "  if (pid < 0) { return 7; }\n"
      "  return 8;\n"
      "}\n");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->exit_code, 7);
}

// --- the satellite: blocked waiter attaches, never rebuilds ---

// Process B faults on a module whose creation lock is held by live process A. B
// must park (ldl.lock_waits), wake when A's exit releases the lock, and *attach*
// the (by then complete) segment — publics_rebuilt must stay 0.
TEST(LdlBlocking, BlockedWaiterAttachesAfterHolderExits) {
  HemlockWorld world;
  CompileOptions no_prelude;
  no_prelude.include_prelude = false;

  // modb: the contended module. Its segment is fully created by a warm-up exec.
  ASSERT_TRUE(world.CompileTo("int modb_value() { return 7; }\n", "/shm/lib/modb.o",
                              no_prelude)
                  .ok());
  {
    ASSERT_TRUE(world.CompileTo("int main() { return 0; }\n", "/home/user/warm.o").ok());
    Result<LoadImage> warm = LinkWith(world, "/home/user/warm.o", {"/shm/lib/modb.o"});
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    Result<ExecResult> run = world.Exec(*warm);
    ASSERT_TRUE(run.ok());
    ASSERT_EQ(world.machine().RunProcess(run->pid), SchedStatus::kExited);
  }

  // moda: reached at startup, but its reference into modb resolves only at fault
  // time (module_list dependency, not a root-image input).
  CompileOptions moda_opts;
  moda_opts.include_prelude = false;
  moda_opts.module_list = {"modb.o"};
  moda_opts.search_path = {"/shm/lib"};
  ASSERT_TRUE(world.CompileTo(
                       "extern int modb_value();\n"
                       "int moda_entry() { return modb_value() + 1; }\n",
                       "/shm/lib/moda.o", moda_opts)
                  .ok());

  // A: a busy spinner that holds modb's creation lock while it runs.
  ASSERT_TRUE(world.CompileTo(
                       "int main() {\n"
                       "  int i;\n"
                       "  for (i = 0; i < 30000; i += 1) {\n"
                       "  }\n"
                       "  return 0;\n"
                       "}\n",
                       "/home/user/holder.o")
                  .ok());
  Result<LoadImage> holder_image = LinkWith(world, "/home/user/holder.o", {});
  ASSERT_TRUE(holder_image.ok());
  Result<ExecResult> holder = world.Exec(*holder_image);
  ASSERT_TRUE(holder.ok());

  // Stage the half-created state: A holds modb's creation lock with the pending
  // marker up, exactly as if it were mid-CreatePublicModule.
  Result<SfsStat> st = world.sfs().Stat(Vfs::SfsRelative("/shm/lib/modb"));
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  const uint32_t modb_ino = st->ino;
  ASSERT_TRUE(world.sfs().SetCreationPending(modb_ino, true).ok());
  ASSERT_TRUE(world.sfs().LockInode(modb_ino, holder->pid).ok());
  world.machine().AddExitHook([&world, modb_ino, holder_pid = holder->pid](Process& p) {
    if (p.pid() == holder_pid) {
      // The "creator" finishes its work at exit; the lock release wakes B.
      ASSERT_TRUE(world.sfs().SetCreationPending(modb_ino, false).ok());
    }
  });

  // B: calls through moda, faults, and must block on A's lock instead of
  // rebuilding the (pending) modb segment out from under it.
  ASSERT_TRUE(world.CompileTo(
                       "extern int moda_entry();\n"
                       "int main() { return moda_entry(); }\n",
                       "/home/user/waiter.o")
                  .ok());
  Result<LoadImage> waiter_image = LinkWith(world, "/home/user/waiter.o", {"/shm/lib/moda.o"});
  ASSERT_TRUE(waiter_image.ok()) << waiter_image.status().ToString();
  Result<ExecResult> waiter = world.Exec(*waiter_image);
  ASSERT_TRUE(waiter.ok()) << waiter.status().ToString();

  SchedParams params;
  params.quantum = 256;
  ASSERT_EQ(world.machine().RunScheduled(params, 100'000'000), SchedStatus::kExited);

  Process* waiter_proc = world.machine().FindProcess(waiter->pid);
  ASSERT_NE(waiter_proc, nullptr);
  EXPECT_EQ(waiter_proc->exit_status(), 8);  // modb_value() + 1

  const MetricsRegistry& ldl = waiter->ldl->metrics();
  EXPECT_GE(ldl.Get("ldl.lock_waits"), 1u) << "waiter never parked on the creation lock";
  EXPECT_EQ(ldl.Get("ldl.publics_rebuilt"), 0u) << "waiter rebuilt a live creator's segment";
  EXPECT_GE(ldl.Get("ldl.publics_attached"), 1u);
}

// --- the rwho deployment end-to-end (locked variant) ---

TEST(RwhoHemc, LockedDeploymentRunsClean) {
  HemlockWorld world;
  RwhoHemcConfig config;
  config.clients = 2;
  config.packets = 32;
  config.sched.policy = SchedPolicy::kRandom;
  config.sched.seed = 3;
  config.sched.quantum = 256;
  Result<RwhoHemcOutcome> out = RunRwhoHemc(world, config);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->run_status, SchedStatus::kExited);
  EXPECT_EQ(out->daemon_status, 0);
  ASSERT_EQ(out->client_statuses.size(), 2u);
  for (int status : out->client_statuses) {
    EXPECT_EQ(status, 0);
  }
  EXPECT_NE(out->stdout_text.find("rwhod: fed 32 packets"), std::string::npos)
      << out->stdout_text;
  EXPECT_NE(out->stdout_text.find("hosts up"), std::string::npos) << out->stdout_text;
}

}  // namespace
}  // namespace hemlock
