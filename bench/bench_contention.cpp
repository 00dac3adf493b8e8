// Lock contention on the simulated machine (the concurrency subsystem's benchmark).
//
// N scheduled processes each bump one shared counter kIncrementsPerProc times under
// a hem_mutex (CAS + futex over a word in the counter's public segment). Sweeping N
// over {2, 4, 8} shows how the futex protocol behaves as the lock gets hotter: the
// kernel's scheduling and blocking activity is exported as benchmark counters
// (sched_switches, sched_preemptions, futex_waits, futex_wakes — the machine's
// "vm.sched.*" registry entries), so the JSON artifact tracks contention behaviour
// over time, not just wall-clock.
//
// Every run is checked for lost updates: with the mutex, the counter must equal
// N * kIncrementsPerProc exactly — a miscount fails the benchmark.
#include <benchmark/benchmark.h>

#include <string>

#include "src/kernel/scheduler.h"
#include "src/link/loader.h"
#include "src/runtime/sync.h"
#include "src/runtime/world.h"

namespace hemlock {
namespace {

constexpr int kIncrementsPerProc = 200;

const char kCounterModule[] =
    "int counter_lock = 0;\n"
    "int counter_value = 0;\n";

std::string WorkerSource() {
  return HemSyncDecls() +
         "extern int counter_lock;\n"
         "extern int counter_value;\n"
         "int main() {\n"
         "  int i;\n"
         "  for (i = 0; i < " +
         std::to_string(kIncrementsPerProc) +
         "; i += 1) {\n"
         "    hem_mutex_lock(&counter_lock);\n"
         "    counter_value = counter_value + 1;\n"
         "    hem_mutex_unlock(&counter_lock);\n"
         "  }\n"
         "  return 0;\n"
         "}\n";
}

void BM_LockContention(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  uint64_t switches = 0;
  uint64_t preemptions = 0;
  uint64_t futex_waits = 0;
  uint64_t futex_wakes = 0;
  uint64_t runs = 0;

  for (auto _ : state) {
    HemlockWorld world;
    if (!InstallHemSync(world).ok()) {
      state.SkipWithError("hemsync install failed");
      return;
    }
    CompileOptions no_prelude;
    no_prelude.include_prelude = false;
    if (!world.CompileTo(kCounterModule, "/shm/lib/contention_db.o", no_prelude).ok() ||
        !world.CompileTo(WorkerSource(), "/home/user/worker.o").ok()) {
      state.SkipWithError("compile failed");
      return;
    }
    LdsOptions lds;
    lds.inputs.push_back({"/home/user/worker.o", ShareClass::kStaticPrivate});
    lds.inputs.push_back({"/shm/lib/contention_db.o", ShareClass::kDynamicPublic});
    lds.inputs.push_back({"/shm/lib/hemsync.o", ShareClass::kDynamicPublic});
    Result<LoadImage> image = world.Link(lds);
    if (!image.ok()) {
      state.SkipWithError("link failed");
      return;
    }
    std::shared_ptr<Ldl> ldl;
    int first_pid = 0;
    for (int p = 0; p < procs; ++p) {
      Result<ExecResult> run = world.Exec(*image);
      if (!run.ok()) {
        state.SkipWithError("exec failed");
        return;
      }
      if (p == 0) {
        ldl = run->ldl;
        first_pid = run->pid;
      }
    }
    SchedParams sched;  // round-robin, default quantum
    SchedStatus outcome = world.machine().RunScheduled(sched, 500'000'000);
    if (outcome != SchedStatus::kExited) {
      state.SkipWithError("processes did not drain");
      return;
    }
    // Lost-update check: read the counter word back out of the shared segment.
    Result<uint32_t> addr = ldl->LookupRootSymbol("counter_value");
    Process* proc = world.machine().FindProcess(first_pid);
    if (!addr.ok() || proc == nullptr) {
      state.SkipWithError("counter symbol lost");
      return;
    }
    uint32_t value = 0;
    if (!proc->space().ReadBytes(*addr, reinterpret_cast<uint8_t*>(&value), 4).ok() ||
        value != static_cast<uint32_t>(procs) * kIncrementsPerProc) {
      state.SkipWithError("lost updates under hem_mutex");
      return;
    }
    const MetricsRegistry& metrics = world.machine().metrics();
    switches += metrics.Get("vm.sched.switches");
    preemptions += metrics.Get("vm.sched.preemptions");
    futex_waits += metrics.Get("vm.sched.futex_waits");
    futex_wakes += metrics.Get("vm.sched.wakes");
    ++runs;
  }

  state.SetItemsProcessed(state.iterations() * procs * kIncrementsPerProc);
  state.counters["procs"] = procs;
  if (runs > 0) {
    state.counters["sched_switches"] = static_cast<double>(switches / runs);
    state.counters["sched_preemptions"] = static_cast<double>(preemptions / runs);
    state.counters["futex_waits"] = static_cast<double>(futex_waits / runs);
    state.counters["futex_wakes"] = static_cast<double>(futex_wakes / runs);
  }
}
BENCHMARK(BM_LockContention)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// --- SMP scaling curve (cores vs throughput) ---
//
// Contention-light workload: four processes each run a private compute loop — no
// shared lock, no cross-core data traffic — swept over the host core count
// {1, 2, 4}. Only the RunScheduled window is timed (setup is paused out) and
// items = guest instructions retired, so the artifact's items_per_second column
// IS the cores-vs-throughput curve. The smp_scaling row of tools/bench_compare.py
// gates the acceptance bar: cores=4 must deliver >= 2.5x the cores=1 rate.
void BM_SmpScaling(benchmark::State& state) {
  const int cores = static_cast<int>(state.range(0));
  constexpr int kProcs = 4;
  uint64_t guest_instructions = 0;
  uint64_t steals = 0;
  uint64_t shootdowns = 0;
  uint64_t runs = 0;

  for (auto _ : state) {
    state.PauseTiming();
    HemlockWorld world;
    if (!world
             .CompileTo(
                 "int main() {\n"
                 "  int i;\n"
                 "  int acc = 0;\n"
                 "  for (i = 0; i < 120000; i += 1) {\n"
                 "    acc = acc + i;\n"
                 "  }\n"
                 "  return 0;\n"
                 "}\n",
                 "/home/user/compute.o")
             .ok()) {
      state.SkipWithError("compile failed");
      return;
    }
    LdsOptions lds;
    lds.inputs.push_back({"/home/user/compute.o", ShareClass::kStaticPrivate});
    Result<LoadImage> image = world.Link(lds);
    if (!image.ok()) {
      state.SkipWithError("link failed");
      return;
    }
    for (int p = 0; p < kProcs; ++p) {
      if (!world.Exec(*image).ok()) {
        state.SkipWithError("exec failed");
        return;
      }
    }
    SchedParams sched;
    sched.num_cores = cores;
    sched.quantum = 65536;  // big chunks: measure compute scaling, not dispatch overhead
    state.ResumeTiming();
    SchedStatus outcome = world.machine().RunScheduled(sched, 4'000'000'000ULL);
    state.PauseTiming();
    if (outcome != SchedStatus::kExited) {
      state.SkipWithError("processes did not drain");
      return;
    }
    guest_instructions += world.machine().ticks();
    const MetricsRegistry& metrics = world.machine().metrics();
    steals += metrics.Get("vm.sched.steals");
    shootdowns += metrics.Get("vm.sched.shootdowns");
    ++runs;
    state.ResumeTiming();
  }

  state.SetItemsProcessed(static_cast<int64_t>(guest_instructions));
  state.counters["cores"] = cores;
  if (runs > 0) {
    state.counters["steals"] = static_cast<double>(steals / runs);
    state.counters["shootdowns"] = static_cast<double>(shootdowns / runs);
  }
}
BENCHMARK(BM_SmpScaling)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace hemlock
