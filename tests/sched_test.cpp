// Tests for the preemptive scheduler: the Scheduler's queue mechanics in
// isolation, ParseSchedSpec, and the Machine-level behaviours the subsystem
// promises — waiting processes are never polled, unsatisfiable waits are reported
// as deadlock (not budget exhaustion), and chaos scheduling is a pure function of
// its seed. The SMP section covers the per-core run queues (placement, stealing,
// re-homing), multi-core RunScheduled correctness, and the 16-seed differential
// sweep that pins --cores=4 guest results to the --cores=1 reference.
#include "src/kernel/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/runtime/sync.h"
#include "src/runtime/world.h"
#include "src/vm/machine.h"

namespace hemlock {
namespace {

// --- ParseSchedSpec ---

TEST(ParseSchedSpec, RoundRobin) {
  Result<SchedParams> p = ParseSchedSpec("rr");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->policy, SchedPolicy::kRoundRobin);
}

TEST(ParseSchedSpec, RandomWithSeed) {
  Result<SchedParams> p = ParseSchedSpec("random:123");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->policy, SchedPolicy::kRandom);
  EXPECT_EQ(p->seed, 123u);
}

TEST(ParseSchedSpec, BareRandomIsSeedZero) {
  Result<SchedParams> p = ParseSchedSpec("random");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->policy, SchedPolicy::kRandom);
  EXPECT_EQ(p->seed, 0u);
}

TEST(ParseSchedSpec, RejectsGarbage) {
  EXPECT_FALSE(ParseSchedSpec("fifo").ok());
  EXPECT_FALSE(ParseSchedSpec("random:notanumber").ok());
  EXPECT_FALSE(ParseSchedSpec("").ok());
}

// --- Scheduler queue mechanics (no machine) ---

TEST(Scheduler, RoundRobinFifoWithinPriority) {
  MetricsRegistry metrics;
  Scheduler sched(&metrics);
  sched.Enqueue(1, 0);
  sched.Enqueue(2, 0);
  sched.Enqueue(3, 0);
  EXPECT_EQ(sched.PickNext(0), 1);
  EXPECT_EQ(sched.PickNext(0), 2);
  EXPECT_EQ(sched.PickNext(0), 3);
  EXPECT_EQ(sched.PickNext(0), -1);
}

TEST(Scheduler, PreemptRequeuesAtBack) {
  MetricsRegistry metrics;
  Scheduler sched(&metrics);
  sched.Enqueue(1, 0);
  sched.Enqueue(2, 0);
  int first = sched.PickNext(0);
  EXPECT_EQ(first, 1);
  sched.Preempt(first, 0);
  EXPECT_EQ(sched.PickNext(0), 2);
  EXPECT_EQ(sched.PickNext(0), 1);
}

TEST(Scheduler, HigherPriorityRunsFirst) {
  MetricsRegistry metrics;
  Scheduler sched(&metrics);
  sched.Enqueue(1, 0);
  sched.Enqueue(2, 5);  // higher class preempts the queue order
  sched.Enqueue(3, 0);
  EXPECT_EQ(sched.PickNext(0), 2);
  EXPECT_EQ(sched.PickNext(0), 1);
  EXPECT_EQ(sched.PickNext(0), 3);
}

TEST(Scheduler, EmptiedPriorityClassIsSkipped) {
  MetricsRegistry metrics;
  Scheduler sched(&metrics);
  sched.Enqueue(1, 5);
  EXPECT_EQ(sched.PickNext(0), 1);  // class 5 is empty now, but stays
  sched.Enqueue(2, 0);
  sched.Enqueue(3, 0);
  EXPECT_EQ(sched.PickNext(0), 2);
  sched.Enqueue(4, 5);  // the kept class fills again and still runs first
  EXPECT_EQ(sched.PickNext(0), 4);
  EXPECT_EQ(sched.PickNext(0), 3);
  EXPECT_EQ(sched.PickNext(0), -1);
}

TEST(Scheduler, EnqueueIsIdempotent) {
  MetricsRegistry metrics;
  Scheduler sched(&metrics);
  sched.Enqueue(7, 0);
  sched.Enqueue(7, 0);
  EXPECT_EQ(sched.ReadyCount(), 1u);
  EXPECT_EQ(sched.PickNext(0), 7);
  EXPECT_EQ(sched.PickNext(0), -1);
}

TEST(Scheduler, RemoveDropsFromReadyQueue) {
  MetricsRegistry metrics;
  Scheduler sched(&metrics);
  sched.Enqueue(1, 0);
  sched.Enqueue(2, 0);
  sched.Remove(1);
  EXPECT_EQ(sched.ReadyCount(), 1u);
  EXPECT_EQ(sched.PickNext(0), 2);
  EXPECT_EQ(sched.PickNext(0), -1);
}

TEST(Scheduler, FutexQueueIsFifoPerAddress) {
  MetricsRegistry metrics;
  Scheduler sched(&metrics);
  sched.BlockOnFutex(1, 0x30000040);
  sched.BlockOnFutex(2, 0x30000040);
  sched.BlockOnFutex(3, 0x30000080);
  EXPECT_EQ(sched.FutexWaiterCount(), 3u);

  std::vector<int> one = sched.TakeFutexWaiters(0x30000040, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 1);

  std::vector<int> rest = sched.TakeFutexWaiters(0x30000040, 100);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0], 2);
  EXPECT_EQ(sched.FutexWaiterCount(), 1u);
  EXPECT_EQ(sched.TakeFutexWaiters(0x30000080, 10), std::vector<int>{3});
}

TEST(Scheduler, CancelFutexWaitRemovesWaiter) {
  MetricsRegistry metrics;
  Scheduler sched(&metrics);
  sched.BlockOnFutex(1, 0x30000040);
  sched.CancelFutexWait(1);
  EXPECT_EQ(sched.FutexWaiterCount(), 0u);
  EXPECT_TRUE(sched.TakeFutexWaiters(0x30000040, 10).empty());
}

TEST(Scheduler, MayHaveFutexWaitersTracksEveryQueueChange) {
  MetricsRegistry metrics;
  Scheduler sched(&metrics);
  EXPECT_FALSE(sched.MayHaveFutexWaiters(0x30000040));
  sched.BlockOnFutex(1, 0x30000040);
  sched.BlockOnFutex(2, 0x30000040);
  sched.BlockOnFutex(3, 0x30000044);
  EXPECT_TRUE(sched.MayHaveFutexWaiters(0x30000040));
  EXPECT_TRUE(sched.MayHaveFutexWaiters(0x30000044));
  ASSERT_EQ(sched.TakeFutexWaiters(0x30000040, 1).size(), 1u);
  EXPECT_TRUE(sched.MayHaveFutexWaiters(0x30000040)) << "pid 2 still waits";
  sched.Remove(2);
  EXPECT_FALSE(sched.MayHaveFutexWaiters(0x30000040));
  EXPECT_TRUE(sched.MayHaveFutexWaiters(0x30000044));
  sched.CancelFutexWait(3);
  EXPECT_FALSE(sched.MayHaveFutexWaiters(0x30000044));
}

TEST(Scheduler, DescribeWaitersNamesTheAddress) {
  MetricsRegistry metrics;
  Scheduler sched(&metrics);
  sched.BlockOnFutex(4, 0x30000040);
  std::vector<std::string> lines = sched.DescribeWaiters();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("pid 4"), std::string::npos);
  EXPECT_NE(lines[0].find("0x30000040"), std::string::npos);
}

TEST(Scheduler, RandomPolicyIsDeterministicPerSeed) {
  auto draw_order = [](uint64_t seed) {
    MetricsRegistry metrics;
  Scheduler sched(&metrics);
    sched.Configure(SchedPolicy::kRandom, seed);
    for (int pid = 1; pid <= 8; ++pid) sched.Enqueue(pid, 0);
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) order.push_back(sched.PickNext(0));
    return order;
  };
  EXPECT_EQ(draw_order(42), draw_order(42));
  // Different seeds should disagree somewhere across 8! orderings; check a few
  // seeds so one coincidence cannot fail the test.
  bool any_difference = false;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    if (draw_order(seed) != draw_order(seed + 100)) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

// --- Machine-level scheduling behaviour ---

TEST(RunScheduled, FutexWaitWithNoWakerIsDeadlock) {
  HemlockWorld world;
  // The word stays 0, the process waits on value 0, and nobody will ever wake it.
  CompileOptions no_prelude;
  no_prelude.include_prelude = false;
  ASSERT_TRUE(world.CompileTo("int parked = 0;\n", "/shm/lib/park_db.o", no_prelude).ok());
  ASSERT_TRUE(world
                  .CompileTo(
                      "extern int parked;\n"
                      "int main() {\n"
                      "  sys_futex_wait(&parked, 0);\n"
                      "  return 0;\n"
                      "}\n",
                      "/home/user/parker.o")
                  .ok());
  LdsOptions lds;
  lds.inputs.push_back({"/home/user/parker.o", ShareClass::kStaticPrivate});
  lds.inputs.push_back({"/shm/lib/park_db.o", ShareClass::kDynamicPublic});
  Result<LoadImage> image = world.Link(lds);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  Result<ExecResult> run = world.Exec(*image);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  SchedParams params;
  SchedStatus status = world.machine().RunScheduled(params, 10'000'000);
  EXPECT_EQ(status, SchedStatus::kDeadlock);
  EXPECT_GE(world.machine().metrics().Get("vm.sched.deadlocks"), 1u);
  // The waiter was parked, not polled: it is still kWaiting on the futex.
  Process* proc = world.machine().FindProcess(run->pid);
  ASSERT_NE(proc, nullptr);
  EXPECT_EQ(proc->state(), ProcState::kWaiting);
  EXPECT_EQ(proc->wait_kind(), WaitKind::kFutex);
}

TEST(RunScheduled, WaitingProcessIsNotPolled) {
  HemlockWorld world;
  CompileOptions no_prelude;
  no_prelude.include_prelude = false;
  ASSERT_TRUE(world.CompileTo("int gate = 0;\n", "/shm/lib/gate_db.o", no_prelude).ok());
  ASSERT_TRUE(world
                  .CompileTo(
                      "extern int gate;\n"
                      "int main() {\n"
                      "  sys_futex_wait(&gate, 0);\n"
                      "  return 11;\n"
                      "}\n",
                      "/home/user/waiter.o")
                  .ok());
  ASSERT_TRUE(world
                  .CompileTo(
                      "extern int gate;\n"
                      "int main() {\n"
                      "  int i;\n"
                      "  for (i = 0; i < 500; i += 1) {\n"
                      "    sys_yield();\n"
                      "  }\n"
                      "  sys_cas(&gate, 0, 1);\n"
                      "  sys_futex_wake(&gate, 1);\n"
                      "  return 12;\n"
                      "}\n",
                      "/home/user/waker.o")
                  .ok());
  auto link_one = [&](const std::string& obj) {
    LdsOptions lds;
    lds.inputs.push_back({obj, ShareClass::kStaticPrivate});
    lds.inputs.push_back({"/shm/lib/gate_db.o", ShareClass::kDynamicPublic});
    return world.Link(lds);
  };
  Result<LoadImage> waiter_image = link_one("/home/user/waiter.o");
  Result<LoadImage> waker_image = link_one("/home/user/waker.o");
  ASSERT_TRUE(waiter_image.ok() && waker_image.ok());
  Result<ExecResult> waiter = world.Exec(*waiter_image);
  Result<ExecResult> waker = world.Exec(*waker_image);
  ASSERT_TRUE(waiter.ok() && waker.ok());

  SchedParams params;
  params.quantum = 64;  // force many dispatch decisions while the waiter is parked
  SchedStatus status = world.machine().RunScheduled(params, 50'000'000);
  EXPECT_EQ(status, SchedStatus::kExited);

  Process* waiter_proc = world.machine().FindProcess(waiter->pid);
  ASSERT_NE(waiter_proc, nullptr);
  EXPECT_EQ(waiter_proc->exit_status(), 11);
  // Never polled: the waiter executed only its pre-wait and post-wake instructions
  // (a few hundred steps), nowhere near the waker's 500-yield spin. Polling at each
  // of the waker's ~500 quanta would multiply this by orders of magnitude.
  EXPECT_LT(waiter_proc->steps(), 5000u);
  const MetricsRegistry& metrics = world.machine().metrics();
  EXPECT_GE(metrics.Get("vm.sched.futex_waits"), 1u);
  EXPECT_GE(metrics.Get("vm.sched.wakes"), 1u);
}

TEST(RunProcess, BudgetEndingAtABlockingWaitpidReportsBlocked) {
  // Stepped one budget step at a time, some call's budget ends exactly on the
  // waitpid that blocks (the child never runs). That call must say kBlocked: a
  // scheduler told kOutOfGas would re-queue a process that is waiting.
  HemlockWorld world;
  ASSERT_TRUE(world
                  .CompileTo(
                      "int main() {\n"
                      "  int pid;\n"
                      "  pid = sys_fork();\n"
                      "  if (pid == 0) { sys_exit(7); }\n"
                      "  return sys_waitpid(pid);\n"
                      "}\n",
                      "/home/user/waiter.o")
                  .ok());
  LdsOptions lds;
  lds.inputs.push_back({"/home/user/waiter.o", ShareClass::kStaticPrivate});
  Result<LoadImage> image = world.Link(lds);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  Result<ExecResult> run = world.Exec(*image);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Process* proc = world.machine().FindProcess(run->pid);
  ASSERT_NE(proc, nullptr);
  SchedStatus status = SchedStatus::kOutOfGas;
  for (int step = 0; step < 100'000 && proc->state() == ProcState::kRunnable; ++step) {
    status = world.machine().RunProcess(run->pid, 1);
  }
  ASSERT_EQ(proc->state(), ProcState::kWaiting);
  EXPECT_EQ(proc->wait_kind(), WaitKind::kChild);
  EXPECT_EQ(status, SchedStatus::kBlocked);
}

TEST(RunScheduled, SmallQuantumCountsPreemptions) {
  HemlockWorld world;
  ASSERT_TRUE(world
                  .CompileTo(
                      "int main() {\n"
                      "  int i;\n"
                      "  for (i = 0; i < 2000; i += 1) {\n"
                      "  }\n"
                      "  return 0;\n"
                      "}\n",
                      "/home/user/spin.o")
                  .ok());
  LdsOptions lds;
  lds.inputs.push_back({"/home/user/spin.o", ShareClass::kStaticPrivate});
  Result<LoadImage> image = world.Link(lds);
  ASSERT_TRUE(image.ok());
  ASSERT_TRUE(world.Exec(*image).ok());
  SchedParams params;
  params.quantum = 32;
  EXPECT_EQ(world.machine().RunScheduled(params, 50'000'000), SchedStatus::kExited);
  // A 2000-iteration loop is far more than 100 quanta of 32 steps each.
  EXPECT_GT(world.machine().metrics().Get("vm.sched.preemptions"), 100u);
}

TEST(RunScheduled, ChaosScheduleIsReproducible) {
  // The same seed must produce the identical interleaving; we observe it through
  // the unsynchronized increment's final (possibly torn) counter value.
  auto run_once = [](uint64_t seed) -> uint32_t {
    HemlockWorld world;
    CompileOptions no_prelude;
    no_prelude.include_prelude = false;
    EXPECT_TRUE(world.CompileTo("int counter = 0;\n", "/shm/lib/chaos_db.o", no_prelude).ok());
    EXPECT_TRUE(world
                    .CompileTo(
                        "extern int counter;\n"
                        "int main() {\n"
                        "  int i;\n"
                        "  int t;\n"
                        "  for (i = 0; i < 50; i += 1) {\n"
                        "    t = counter;\n"
                        "    sys_yield();\n"
                        "    counter = t + 1;\n"
                        "  }\n"
                        "  return 0;\n"
                        "}\n",
                        "/home/user/chaos.o")
                    .ok());
    LdsOptions lds;
    lds.inputs.push_back({"/home/user/chaos.o", ShareClass::kStaticPrivate});
    lds.inputs.push_back({"/shm/lib/chaos_db.o", ShareClass::kDynamicPublic});
    Result<LoadImage> image = world.Link(lds);
    EXPECT_TRUE(image.ok());
    Result<ExecResult> first = world.Exec(*image);
    EXPECT_TRUE(first.ok());
    EXPECT_TRUE(world.Exec(*image).ok());
    SchedParams params;
    params.policy = SchedPolicy::kRandom;
    params.seed = seed;
    params.quantum = 128;
    EXPECT_EQ(world.machine().RunScheduled(params, 100'000'000), SchedStatus::kExited);
    Result<uint32_t> addr = first->ldl->LookupRootSymbol("counter");
    EXPECT_TRUE(addr.ok());
    uint32_t value = 0;
    Process* proc = world.machine().FindProcess(first->pid);
    EXPECT_NE(proc, nullptr);
    EXPECT_TRUE(proc->space().ReadBytes(*addr, reinterpret_cast<uint8_t*>(&value), 4).ok());
    return value;
  };
  EXPECT_EQ(run_once(9), run_once(9));
  EXPECT_EQ(run_once(31), run_once(31));
}

// --- SMP: per-core run queues ---

TEST(SchedulerSmp, FirstSightingPlacesRoundRobinAcrossCores) {
  MetricsRegistry metrics;
  Scheduler s(&metrics);
  s.ConfigureCores(2);
  for (int pid = 1; pid <= 4; ++pid) {
    s.Enqueue(pid, 0);
  }
  EXPECT_EQ(s.CoreOf(1), 0);
  EXPECT_EQ(s.CoreOf(2), 1);
  EXPECT_EQ(s.CoreOf(3), 0);
  EXPECT_EQ(s.CoreOf(4), 1);
  // Each core drains its own queue FIFO.
  EXPECT_EQ(s.PickNext(0), 1);
  EXPECT_EQ(s.PickNext(1), 2);
  EXPECT_EQ(s.PickNext(0), 3);
  EXPECT_EQ(s.PickNext(1), 4);
  EXPECT_EQ(s.PickNext(0), -1);
}

TEST(SchedulerSmp, DryCoreStealsFromSiblingAndRehomes) {
  MetricsRegistry metrics;
  Scheduler s(&metrics);
  s.ConfigureCores(4);
  // Round-robin placement: 10 -> core 0, 20 -> core 1, 30 -> core 2; core 3 dry.
  for (int pid : {10, 20, 30}) {
    s.Enqueue(pid, 0);
  }
  ASSERT_EQ(s.CoreOf(10), 0);
  ASSERT_EQ(s.CoreOf(20), 1);
  // Core 3 has nothing of its own: it steals from a loaded sibling, and the
  // stolen pid is re-homed to the thief (its next wake lands on core 3).
  int stolen = s.PickNext(3);
  ASSERT_NE(stolen, -1);
  EXPECT_EQ(s.CoreOf(stolen), 3);
  // The victim's queue lost exactly the stolen pid; the other two still drain
  // from their own cores.
  std::vector<int> rest;
  for (int c = 0; c < 4; ++c) {
    int pid;
    while ((pid = s.PickNext(c)) != -1) {
      rest.push_back(pid);
    }
  }
  EXPECT_EQ(rest.size(), 2u);
}

TEST(SchedulerSmp, StealSkipsTheVictimsEmptiedClass) {
  MetricsRegistry metrics;
  Scheduler s(&metrics);
  s.ConfigureCores(2);
  s.Enqueue(10, 5);  // core 0
  s.Enqueue(20, 0);  // core 1
  s.Enqueue(30, 0);  // core 0
  ASSERT_EQ(s.PickNext(0), 10);  // core 0's class 5 is empty now
  ASSERT_EQ(s.PickNext(1), 20);
  // Core 1 is dry; core 0 holds pid 30 below its emptied top class.
  EXPECT_EQ(s.PickNext(1), 30);
  EXPECT_EQ(s.CoreOf(30), 1);
  EXPECT_EQ(s.PickNext(0), -1);
}

TEST(SchedulerSmp, ConfigureCoresPreservesQueuedPids) {
  MetricsRegistry metrics;
  Scheduler s(&metrics);
  for (int pid = 1; pid <= 6; ++pid) {
    s.Enqueue(pid, 0);
  }
  s.ConfigureCores(3);
  EXPECT_EQ(s.ReadyCount(), 6u);
  std::vector<int> picked;
  for (int c = 0; c < 3; ++c) {
    int pid;
    while ((pid = s.PickNext(c)) != -1) {
      picked.push_back(pid);
    }
  }
  EXPECT_EQ(picked.size(), 6u);
  // Back to one core: core 0's queue takes everything.
  s.ConfigureCores(1);
  s.Enqueue(7, 0);
  EXPECT_EQ(s.PickNext(0), 7);
}

TEST(SchedulerSmp, ShrinkingCoresKeepsEveryQueuedPid) {
  // Regression: placements on cores 2-3 used to survive a shrink to two cores,
  // so the re-enqueue indexed queues that no longer existed and half the pids
  // were lost.
  MetricsRegistry metrics;
  Scheduler s(&metrics);
  s.ConfigureCores(4);
  for (int pid = 1; pid <= 8; ++pid) {
    s.Enqueue(pid, 0);
  }
  s.ConfigureCores(2);
  EXPECT_EQ(s.ReadyCount(), 8u);
  std::vector<int> picked;
  for (int c = 0; c < 2; ++c) {
    int pid;
    while ((pid = s.PickNext(c)) != -1) {
      picked.push_back(pid);
    }
  }
  std::sort(picked.begin(), picked.end());
  EXPECT_EQ(picked, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(SchedulerSmp, CoreCountersRegisterEagerlyWithMetrics) {
  // With the registry present before ConfigureCores, the per-core counters exist
  // (at zero) immediately — nothing waits for the first dispatch to register.
  MetricsRegistry metrics;
  Scheduler s(&metrics);
  s.ConfigureCores(2);
  EXPECT_NE(metrics.Counter("vm.sched.core.0.dispatches"),
            metrics.Counter("vm.sched.core.1.dispatches"));
  s.CountCoreTicks(1, 3);
  EXPECT_EQ(metrics.Get("vm.sched.core.0.ticks"), 0u);
  EXPECT_EQ(metrics.Get("vm.sched.core.1.ticks"), 3u);
}

// --- SMP: Machine-level multi-core runs ---

TEST(RunScheduledSmp, FourProcessesOnFourCoresRunToExit) {
  HemlockWorld world;
  ASSERT_TRUE(world
                  .CompileTo(
                      "int main() {\n"
                      "  int i;\n"
                      "  for (i = 0; i < 20000; i += 1) {\n"
                      "  }\n"
                      "  puts(\"spun\\n\");\n"
                      "  return 0;\n"
                      "}\n",
                      "/home/user/spin4.o")
                  .ok());
  LdsOptions lds;
  lds.inputs.push_back({"/home/user/spin4.o", ShareClass::kStaticPrivate});
  Result<LoadImage> image = world.Link(lds);
  ASSERT_TRUE(image.ok());
  std::vector<int> pids;
  for (int p = 0; p < 4; ++p) {
    Result<ExecResult> run = world.Exec(*image);
    ASSERT_TRUE(run.ok());
    pids.push_back(run->pid);
  }
  SchedParams params;
  params.num_cores = 4;
  params.quantum = 1024;
  EXPECT_EQ(world.machine().RunScheduled(params, 50'000'000), SchedStatus::kExited);
  uint64_t dispatches = 0;
  for (int pid : pids) {
    Process* proc = world.machine().FindProcess(pid);
    ASSERT_NE(proc, nullptr);
    EXPECT_EQ(proc->exit_status(), 0);
    EXPECT_EQ(proc->stdout_text(), "spun\n");
  }
  for (int c = 0; c < 4; ++c) {
    dispatches +=
        world.machine().metrics().Get("vm.sched.core." + std::to_string(c) + ".dispatches");
  }
  EXPECT_GE(dispatches, 4u);  // every process was dispatched on *some* core
}

TEST(RunScheduledSmp, DeadlockIsDetectedAtFourCores) {
  HemlockWorld world;
  CompileOptions no_prelude;
  no_prelude.include_prelude = false;
  ASSERT_TRUE(world.CompileTo("int parked4 = 0;\n", "/shm/lib/park4_db.o", no_prelude).ok());
  ASSERT_TRUE(world
                  .CompileTo(
                      "extern int parked4;\n"
                      "int main() {\n"
                      "  sys_futex_wait(&parked4, 0);\n"
                      "  return 0;\n"
                      "}\n",
                      "/home/user/parker4.o")
                  .ok());
  LdsOptions lds;
  lds.inputs.push_back({"/home/user/parker4.o", ShareClass::kStaticPrivate});
  lds.inputs.push_back({"/shm/lib/park4_db.o", ShareClass::kDynamicPublic});
  Result<LoadImage> image = world.Link(lds);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  for (int p = 0; p < 2; ++p) {
    ASSERT_TRUE(world.Exec(*image).ok());
  }
  SchedParams params;
  params.num_cores = 4;
  // All cores must drain (no one is running or ready, waiters exist) before the
  // kernel may declare deadlock — a still-running sibling could yet wake them.
  EXPECT_EQ(world.machine().RunScheduled(params, 10'000'000), SchedStatus::kDeadlock);
  EXPECT_GE(world.machine().metrics().Get("vm.sched.deadlocks"), 1u);
}

// The acceptance sweep: for 16 seeds, a fully synchronized counter workload must
// produce byte-identical guest output whether it runs on 1 core (the reference
// interleaved dispatch) or 4 real host threads. Each process bumps the shared
// counter 50 times under the hem_mutex, then waits (under the lock) until every
// process's bumps have landed, and prints the final value — so any lost update,
// stale TLB read, or torn store shows up as a wrong byte in stdout.
TEST(RunScheduledSmp, SixteenSeedDifferentialSweepMatchesSingleCore) {
  constexpr int kProcs = 4;  // x 50 bumps each: every process waits for 200
  auto run_once = [&](uint64_t seed, int cores) -> std::vector<std::string> {
    HemlockWorld world;
    EXPECT_TRUE(InstallHemSync(world).ok());
    CompileOptions no_prelude;
    no_prelude.include_prelude = false;
    EXPECT_TRUE(world
                    .CompileTo("int lock = 0;\nint counter = 0;\n", "/shm/lib/sweep_db.o",
                               no_prelude)
                    .ok());
    std::string src = HemSyncDecls() +
                      "extern int lock;\n"
                      "extern int counter;\n"
                      "int main() {\n"
                      "  int i;\n"
                      "  int seen;\n"
                      "  for (i = 0; i < 50; i += 1) {\n"
                      "    hem_mutex_lock(&lock);\n"
                      "    counter = counter + 1;\n"
                      "    hem_mutex_unlock(&lock);\n"
                      "  }\n"
                      "  hem_mutex_lock(&lock);\n"
                      "  seen = counter;\n"
                      "  hem_mutex_unlock(&lock);\n"
                      "  while (seen != 200) {\n"
                      "    sys_yield();\n"
                      "    hem_mutex_lock(&lock);\n"
                      "    seen = counter;\n"
                      "    hem_mutex_unlock(&lock);\n"
                      "  }\n"
                      "  puts(\"counter=\");\n"
                      "  putint(seen);\n"
                      "  puts(\"\\n\");\n"
                      "  return 0;\n"
                      "}\n";
    EXPECT_TRUE(world.CompileTo(src, "/home/user/sweep.o").ok());
    LdsOptions lds;
    lds.inputs.push_back({"/home/user/sweep.o", ShareClass::kStaticPrivate});
    lds.inputs.push_back({"/shm/lib/sweep_db.o", ShareClass::kDynamicPublic});
    lds.inputs.push_back({"/shm/lib/hemsync.o", ShareClass::kDynamicPublic});
    Result<LoadImage> image = world.Link(lds);
    EXPECT_TRUE(image.ok()) << image.status().ToString();
    std::vector<int> pids;
    for (int p = 0; p < kProcs; ++p) {
      Result<ExecResult> run = world.Exec(*image);
      EXPECT_TRUE(run.ok());
      pids.push_back(run->pid);
    }
    SchedParams params;
    params.policy = SchedPolicy::kRandom;
    params.seed = seed;
    params.quantum = 128;
    params.num_cores = cores;
    EXPECT_EQ(world.machine().RunScheduled(params, 400'000'000), SchedStatus::kExited)
        << "seed " << seed << " cores " << cores;
    std::vector<std::string> outputs;
    for (int pid : pids) {
      Process* proc = world.machine().FindProcess(pid);
      EXPECT_NE(proc, nullptr);
      outputs.push_back(proc != nullptr ? proc->stdout_text() : "<gone>");
    }
    return outputs;
  };
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    std::vector<std::string> reference = run_once(seed, 1);
    std::vector<std::string> smp = run_once(seed, 4);
    EXPECT_EQ(reference, smp) << "guest output diverged under seed " << seed;
    for (const std::string& out : reference) {
      EXPECT_EQ(out, "counter=200\n") << "seed " << seed;
    }
  }
}


// A wake that lands on a core while that core is switching at a quantum end.
// Four pairs of processes hand a futex word back and forth (each turn is a
// sys_cas, a sys_futex_wake of the partner and a sys_futex_wait), and one
// spinner per core keeps every core busy, so no core goes idle and each
// quantum end is a switch on the core's own queue under its leaf lock. Pids
// are placed round-robin, so most wakes enqueue onto another core's queue,
// often while that core is mid-switch. With a tiny quantum the run must end
// as the one-core run does: same exit codes and output, nobody left waiting.
TEST(RunScheduledSmp, WakeOntoACoreMidSwitchIsNeverLost) {
  constexpr int kPlayers = 8;
  constexpr int kSpinners = 4;
  auto run_once = [&](int cores) {
    HemlockWorld world;
    CompileOptions no_prelude;
    no_prelude.include_prelude = false;
    EXPECT_TRUE(world
                    .CompileTo("int next_id = 0;\nint finished = 0;\nint words[4];\n",
                               "/shm/lib/pingpong_db.o", no_prelude)
                    .ok());
    // A read is a sys_cas that cannot match, so every access to a shared word
    // goes through the kernel's sync-word path.
    std::string player =
        "extern int next_id;\n"
        "extern int finished;\n"
        "extern int words[4];\n"
        "int main() {\n"
        "  int me; int w; int t; int v;\n"
        "  me = 0;\n"
        "  while (sys_cas(&next_id, me, me + 1) != me) { me = me + 1; }\n"
        "  w = me / 2;\n"
        "  t = sys_cas(&words[w], -1, -1);\n"
        "  while (t < 100) {\n"
        "    if (t % 2 == me % 2) {\n"
        "      sys_cas(&words[w], t, t + 1);\n"
        "      sys_futex_wake(&words[w], 1);\n"
        "    } else {\n"
        "      sys_futex_wait(&words[w], t);\n"
        "    }\n"
        "    t = sys_cas(&words[w], -1, -1);\n"
        "  }\n"
        "  v = 0;\n"
        "  while (sys_cas(&finished, v, v + 1) != v) { v = v + 1; }\n"
        "  putint(t);\n"
        "  return 0;\n"
        "}\n";
    // A spinner stops when the players are done or after a fixed number of
    // rounds, whichever comes first. The cap bounds the run's work, so a player
    // core starved by host load cannot let the spinners spend the tick budget;
    // a lost wake still leaves a player parked with nobody to wake it once the
    // spinners are gone, which ends the run in kDeadlock. At one core the
    // players finish within about 300 rounds.
    std::string spinner =
        "extern int finished;\n"
        "int main() {\n"
        "  int rounds = 0;\n"
        "  while (rounds < 20000 && sys_cas(&finished, 8, 8) != 8) { rounds = rounds + 1; }\n"
        "  puts(\"spun\");\n"
        "  return 0;\n"
        "}\n";
    EXPECT_TRUE(world.CompileTo(player, "/home/user/player.o").ok());
    EXPECT_TRUE(world.CompileTo(spinner, "/home/user/spinner.o").ok());
    std::vector<int> pids;
    for (const char* obj : {"/home/user/player.o", "/home/user/spinner.o"}) {
      LdsOptions lds;
      lds.inputs.push_back({obj, ShareClass::kStaticPrivate});
      lds.inputs.push_back({"/shm/lib/pingpong_db.o", ShareClass::kDynamicPublic});
      Result<LoadImage> image = world.Link(lds);
      EXPECT_TRUE(image.ok()) << image.status().ToString();
      int copies = pids.empty() ? kPlayers : kSpinners;
      for (int p = 0; p < copies && image.ok(); ++p) {
        Result<ExecResult> run = world.Exec(*image);
        EXPECT_TRUE(run.ok());
        pids.push_back(run.ok() ? run->pid : -1);
      }
    }
    SchedParams params;
    params.num_cores = cores;
    params.quantum = 16;
    EXPECT_EQ(world.machine().RunScheduled(params, 400'000'000), SchedStatus::kExited)
        << "cores " << cores;
    EXPECT_EQ(world.machine().scheduler().FutexWaiterCount(), 0u) << "cores " << cores;
    EXPECT_GT(world.machine().metrics().Get("vm.sched.local_switches"), 0u) << "cores " << cores;
    std::vector<std::string> outcome;
    for (int pid : pids) {
      Process* proc = world.machine().FindProcess(pid);
      outcome.push_back(proc == nullptr ? "<gone>"
                                        : StrFormat("%d:%s", proc->exit_status(),
                                                    proc->stdout_text().c_str()));
    }
    return outcome;
  };
  std::vector<std::string> reference = run_once(1);
  EXPECT_EQ(reference.front(), "0:100");
  EXPECT_EQ(reference.back(), "0:spun");
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_EQ(run_once(4), reference) << "attempt " << attempt;
  }
}

// --- --cores 1 is pinned ---
//
// A one-core run is the reference every differential compares against, so its
// schedule must not move when the scheduler's internals do. Each case runs one
// of the differential programs (tests/programs) at --cores 1 and folds what the
// schedule decides into one line: every vm.sched.* counter, then each exit in
// order as pid@machine-ticks (the tick at which a process exits depends on
// every dispatch before it), then each process's output. The expected lines
// were recorded before quantum ends switched without the kernel lock.
std::string ReadProgram(const std::string& name) {
  std::ifstream in(std::string(HEMLOCK_PROGRAMS_DIR) + "/" + name);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string OneCoreSchedule(const std::string& program, int procs, uint64_t quantum,
                            const std::string& sched) {
  HemlockWorld world;
  CompileOptions no_prelude;
  no_prelude.include_prelude = false;
  EXPECT_TRUE(world.CompileTo(ReadProgram("counter.hc"), "/shm/lib/counter.o", no_prelude).ok());
  EXPECT_TRUE(world.CompileTo(ReadProgram("hemsync.hc"), "/shm/lib/hemsync.o", no_prelude).ok());
  EXPECT_TRUE(world.CompileTo(ReadProgram(program), "/home/user/main.o").ok());
  LdsOptions lds;
  lds.inputs.push_back({"/home/user/main.o", ShareClass::kStaticPrivate});
  lds.inputs.push_back({"/shm/lib/counter.o", ShareClass::kDynamicPublic});
  lds.inputs.push_back({"/shm/lib/hemsync.o", ShareClass::kDynamicPublic});
  Result<LoadImage> image = world.Link(lds);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  if (!image.ok()) return "";
  std::vector<int> pids;
  for (int p = 0; p < procs; ++p) {
    Result<ExecResult> run = world.Exec(*image);
    EXPECT_TRUE(run.ok());
    if (run.ok()) pids.push_back(run->pid);
  }
  std::string exits;
  Machine& machine = world.machine();
  machine.AddExitHook([&](Process& proc) {
    exits += StrFormat(" %d@%llu", proc.pid(), static_cast<unsigned long long>(machine.ticks()));
  });
  Result<SchedParams> params = ParseSchedSpec(sched);
  EXPECT_TRUE(params.ok());
  params->quantum = quantum;
  EXPECT_EQ(machine.RunScheduled(*params, 200'000'000), SchedStatus::kExited);
  std::string line;
  for (const auto& [name, value] : machine.metrics().Snapshot()) {
    // local_switches splits preemptions by path, and came after the recording.
    if (name.rfind("vm.sched.", 0) == 0 && name != "vm.sched.local_switches") {
      line += StrFormat("%s=%llu ", name.c_str(), static_cast<unsigned long long>(value));
    }
  }
  line += "|" + exits + " |";
  for (int pid : pids) {
    Process* proc = machine.FindProcess(pid);
    line += StrFormat(" %s", proc != nullptr ? proc->stdout_text().c_str() : "<gone>");
  }
  return line;
}

struct PinnedSchedule {
  const char* program;
  int procs;
  uint64_t quantum;
  const char* sched;
  const char* expected;
};

TEST(OneCorePinned, CountersAndDispatchOrderMatchTheRecordedRuns) {
  const PinnedSchedule kCases[] = {
      {"locked.hc", 2, 64, "rr",
       "vm.sched.blocks=0 vm.sched.core.0.dispatches=316 vm.sched.core.0.steals=0 "
       "vm.sched.core.0.ticks=119203 vm.sched.deadlocks=0 vm.sched.futex_waits=0 "
       "vm.sched.preemptions=314 vm.sched.shootdowns=0 vm.sched.steals=0 "
       "vm.sched.switches=316 vm.sched.wakes=0 "
       "| 1@118753 2@119203 | 100 100"},
      {"locked.hc", 2, 64, "random:1",
       "vm.sched.blocks=35 vm.sched.core.0.dispatches=350 vm.sched.core.0.steals=0 "
       "vm.sched.core.0.ticks=117376 vm.sched.deadlocks=0 vm.sched.futex_waits=35 "
       "vm.sched.preemptions=313 vm.sched.shootdowns=0 vm.sched.steals=0 "
       "vm.sched.switches=350 vm.sched.wakes=35 "
       "| 1@113631 2@117376 | 96 100"},
      {"locked.hc", 2, 64, "random:2",
       "vm.sched.blocks=32 vm.sched.core.0.dispatches=347 vm.sched.core.0.steals=0 "
       "vm.sched.core.0.ticks=116498 vm.sched.deadlocks=0 vm.sched.futex_waits=32 "
       "vm.sched.preemptions=313 vm.sched.shootdowns=0 vm.sched.steals=0 "
       "vm.sched.switches=347 vm.sched.wakes=32 "
       "| 2@110875 1@116498 | 100 94"},
      {"locked.hc", 2, 64, "random:5",
       "vm.sched.blocks=31 vm.sched.core.0.dispatches=346 vm.sched.core.0.steals=0 "
       "vm.sched.core.0.ticks=116937 vm.sched.deadlocks=0 vm.sched.futex_waits=31 "
       "vm.sched.preemptions=313 vm.sched.shootdowns=0 vm.sched.steals=0 "
       "vm.sched.switches=346 vm.sched.wakes=31 "
       "| 1@114807 2@116937 | 97 100"},
      {"locked.hc", 2, 64, "random:9",
       "vm.sched.blocks=28 vm.sched.core.0.dispatches=343 vm.sched.core.0.steals=0 "
       "vm.sched.core.0.ticks=115620 vm.sched.deadlocks=0 vm.sched.futex_waits=28 "
       "vm.sched.preemptions=313 vm.sched.shootdowns=0 vm.sched.steals=0 "
       "vm.sched.switches=343 vm.sched.wakes=28 "
       "| 2@110410 1@115620 | 100 92"},
      {"rendezvous.hc", 4, 128, "rr",
       "vm.sched.blocks=92 vm.sched.core.0.dispatches=335 vm.sched.core.0.steals=0 "
       "vm.sched.core.0.ticks=208359 vm.sched.deadlocks=0 vm.sched.futex_waits=92 "
       "vm.sched.preemptions=239 vm.sched.shootdowns=0 vm.sched.steals=0 "
       "vm.sched.switches=335 vm.sched.wakes=92 "
       "| 1@206791 3@207271 4@207751 2@208359 | 200 200 200 200"},
      {"rendezvous.hc", 4, 128, "random:1",
       "vm.sched.blocks=80 vm.sched.core.0.dispatches=335 vm.sched.core.0.steals=0 "
       "vm.sched.core.0.ticks=211380 vm.sched.deadlocks=0 vm.sched.futex_waits=80 "
       "vm.sched.preemptions=251 vm.sched.shootdowns=0 vm.sched.steals=0 "
       "vm.sched.switches=335 vm.sched.wakes=80 "
       "| 3@209428 1@210164 4@210644 2@211380 | 200 200 200 200"},
      {"rendezvous.hc", 4, 128, "random:2",
       "vm.sched.blocks=88 vm.sched.core.0.dispatches=367 vm.sched.core.0.steals=0 "
       "vm.sched.core.0.ticks=236075 vm.sched.deadlocks=0 vm.sched.futex_waits=88 "
       "vm.sched.preemptions=275 vm.sched.shootdowns=0 vm.sched.steals=0 "
       "vm.sched.switches=367 vm.sched.wakes=88 "
       "| 4@232958 2@234859 1@235467 3@236075 | 200 200 200 200"},
      {"rendezvous.hc", 4, 128, "random:5",
       "vm.sched.blocks=79 vm.sched.core.0.dispatches=329 vm.sched.core.0.steals=0 "
       "vm.sched.core.0.ticks=208178 vm.sched.deadlocks=0 vm.sched.futex_waits=79 "
       "vm.sched.preemptions=246 vm.sched.shootdowns=0 vm.sched.steals=0 "
       "vm.sched.switches=329 vm.sched.wakes=79 "
       "| 3@204430 2@204910 1@207442 4@208178 | 200 200 200 200"},
      {"rendezvous.hc", 4, 128, "random:9",
       "vm.sched.blocks=91 vm.sched.core.0.dispatches=339 vm.sched.core.0.steals=0 "
       "vm.sched.core.0.ticks=209762 vm.sched.deadlocks=0 vm.sched.futex_waits=91 "
       "vm.sched.preemptions=244 vm.sched.shootdowns=0 vm.sched.steals=0 "
       "vm.sched.switches=339 vm.sched.wakes=91 "
       "| 1@207554 3@208290 2@209154 4@209762 | 200 200 200 200"},
  };
  for (const PinnedSchedule& c : kCases) {
    EXPECT_EQ(OneCoreSchedule(c.program, c.procs, c.quantum, c.sched), c.expected)
        << c.program << " --sched " << c.sched;
  }
}

TEST(OneCorePinned, ChaosScheduleReproducesRunToRun) {
  for (const char* sched : {"random:5", "random:9"}) {
    EXPECT_EQ(OneCoreSchedule("rendezvous.hc", 4, 128, sched),
              OneCoreSchedule("rendezvous.hc", 4, 128, sched))
        << sched;
  }
}

}  // namespace
}  // namespace hemlock
