// Raw interpreter throughput (the fast-path engine's benchmark).
//
// Three workloads stress the three things the fast path is made of: a tight
// arithmetic loop (block-cache hit rate: one hot block, zero memory traffic), a
// pointer chase over a shared SFS segment (software-TLB hit rate on public pages),
// and a call-heavy loop (short blocks, dense jal/jr traffic — the block cache's
// worst friendly case). items/sec is *simulated instructions* per second (machine
// tick deltas around the run), so the JSON artifact tracks interpreter speed
// independent of workload length. The vm.tlb.* / vm.icache.* counters ride along
// per run, giving the regression gate deterministic numbers next to the wall-clock.
//
// BM_InterpSpeedup runs the same program on both interpreter engines back to back
// and reports the machine-independent ratio (block-cache instructions/sec over the
// --slow-interp reference loop); ISSUE 4 pins it at >= 3x in CI. BM_JitSpeedup is
// the same shape for the template-JIT tier (ISSUE 9: >= 6x over the reference
// loop, gated only where the host can run generated code — jit_compiled > 0).
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

#include "src/link/loader.h"
#include "src/runtime/world.h"

namespace hemlock {
namespace {

const char kArithProg[] = R"(
  int main(void) {
    int i;
    int acc;
    acc = 1;
    for (i = 1; i < 20000; i += 1) {
      acc = acc * 3 + i;
      acc = acc - acc / 7;
      acc = acc & 16777215;
    }
    return acc & 63;
  }
)";

// The shared module is data-only; the worker builds a strided permutation in the
// public segment, then chases it. Every hop is a load from an SFS page.
const char kChaseDb[] = "int table[4096];\n";
const char kChaseProg[] = R"(
  extern int table[4096];
  int main(void) {
    int i;
    int at;
    for (i = 0; i < 4096; i += 1) {
      table[i] = (i + 769) % 4096;
    }
    at = 0;
    for (i = 0; i < 60000; i += 1) {
      at = table[at];
    }
    return at & 63;
  }
)";

const char kCallProg[] = R"(
  int add(int a, int b) { return a + b; }
  int mix(int a, int b) { return add(a, b) + add(b, 1); }
  int main(void) {
    int i;
    int acc;
    acc = 0;
    for (i = 0; i < 8000; i += 1) {
      acc = mix(acc, i) & 16777215;
    }
    return acc & 63;
  }
)";

struct InterpWorld {
  HemlockWorld world;
  LoadImage image;
};

// The three execution tiers under measurement.
enum class Engine { kSlow, kCache, kJit };

// Compiles and links once; the timed region is pure interpretation.
bool Setup(InterpWorld* iw, const char* prog, const char* db, Engine engine,
           benchmark::State& state) {
  iw->world.machine().set_slow_interp(engine == Engine::kSlow);
  iw->world.machine().set_jit_enabled(engine == Engine::kJit);
  std::vector<LdsInput> inputs;
  if (!iw->world.CompileTo(prog, "/home/user/prog.o").ok()) {
    state.SkipWithError("compile failed");
    return false;
  }
  inputs.push_back({"/home/user/prog.o", ShareClass::kStaticPrivate});
  if (db != nullptr) {
    CompileOptions no_prelude;
    no_prelude.include_prelude = false;
    if (!iw->world.CompileTo(db, "/shm/lib/chase_db.o", no_prelude).ok()) {
      state.SkipWithError("db compile failed");
      return false;
    }
    inputs.push_back({"/shm/lib/chase_db.o", ShareClass::kDynamicPublic});
  }
  LdsOptions lds;
  lds.inputs = inputs;
  Result<LoadImage> image = iw->world.Link(lds);
  if (!image.ok()) {
    state.SkipWithError("link failed");
    return false;
  }
  iw->image = *image;
  return true;
}

// Execs the image and drives it to exit; returns the simulated instructions
// retired (machine tick delta), or 0 on failure.
uint64_t RunOnce(InterpWorld* iw, benchmark::State& state) {
  Result<ExecResult> run = iw->world.Exec(iw->image);
  if (!run.ok()) {
    state.SkipWithError("exec failed");
    return 0;
  }
  uint64_t before = iw->world.machine().ticks();
  Result<int> exit_code = iw->world.RunToExit(run->pid);
  if (!exit_code.ok()) {
    state.SkipWithError("run failed");
    return 0;
  }
  return iw->world.machine().ticks() - before;
}

void ExportVmCounters(InterpWorld* iw, benchmark::State& state) {
  const MetricsRegistry& m = iw->world.machine().metrics();
  double runs = static_cast<double>(state.iterations());
  state.counters["tlb_hits"] = static_cast<double>(m.Get("vm.tlb.hits")) / runs;
  state.counters["tlb_misses"] = static_cast<double>(m.Get("vm.tlb.misses")) / runs;
  state.counters["tlb_flushes"] = static_cast<double>(m.Get("vm.tlb.flushes")) / runs;
  state.counters["icache_hits"] = static_cast<double>(m.Get("vm.icache.hits")) / runs;
  state.counters["icache_misses"] = static_cast<double>(m.Get("vm.icache.misses")) / runs;
  state.counters["icache_invalidations"] =
      static_cast<double>(m.Get("vm.icache.invalidations")) / runs;
  state.counters["jit_compiled"] = static_cast<double>(m.Get("vm.jit.compiled_blocks")) / runs;
  state.counters["jit_chained"] = static_cast<double>(m.Get("vm.jit.chained")) / runs;
  state.counters["jit_deopts"] = static_cast<double>(m.Get("vm.jit.deopts")) / runs;
  state.counters["jit_bailouts"] = static_cast<double>(m.Get("vm.jit.bailouts")) / runs;
}

void BM_Workload(benchmark::State& state, const char* prog, const char* db) {
  InterpWorld iw;
  if (!Setup(&iw, prog, db, Engine::kJit, state)) {
    return;
  }
  uint64_t instrs = 0;
  for (auto _ : state) {
    uint64_t n = RunOnce(&iw, state);
    if (n == 0) {
      return;
    }
    instrs += n;
  }
  state.SetItemsProcessed(static_cast<int64_t>(instrs));  // items/sec = instrs/sec
  ExportVmCounters(&iw, state);
}

void BM_TightArith(benchmark::State& state) { BM_Workload(state, kArithProg, nullptr); }
void BM_PointerChaseSfs(benchmark::State& state) {
  BM_Workload(state, kChaseProg, kChaseDb);
}
void BM_CallHeavy(benchmark::State& state) { BM_Workload(state, kCallProg, nullptr); }

// Same program, two engines, one process each per iteration. The ratio of
// simulated-instructions-per-wall-second is the headline speedup number.
void BM_SpeedupVsSlow(benchmark::State& state, Engine fast_engine) {
  InterpWorld fast;
  InterpWorld slow;
  if (!Setup(&fast, kArithProg, nullptr, fast_engine, state) ||
      !Setup(&slow, kArithProg, nullptr, Engine::kSlow, state)) {
    return;
  }
  using Clock = std::chrono::steady_clock;
  std::chrono::nanoseconds fast_ns{0};
  std::chrono::nanoseconds slow_ns{0};
  uint64_t fast_instrs = 0;
  uint64_t slow_instrs = 0;
  for (auto _ : state) {
    Clock::time_point t0 = Clock::now();
    uint64_t f = RunOnce(&fast, state);
    Clock::time_point t1 = Clock::now();
    uint64_t s = RunOnce(&slow, state);
    Clock::time_point t2 = Clock::now();
    if (f == 0 || s == 0) {
      return;
    }
    fast_instrs += f;
    slow_instrs += s;
    fast_ns += t1 - t0;
    slow_ns += t2 - t1;
  }
  double fast_ips = static_cast<double>(fast_instrs) / (fast_ns.count() * 1e-9);
  double slow_ips = static_cast<double>(slow_instrs) / (slow_ns.count() * 1e-9);
  state.counters["fast_ips"] = fast_ips;
  state.counters["slow_ips"] = slow_ips;
  state.counters["speedup"] = fast_ips / slow_ips;
  // jit_compiled distinguishes "the JIT really ran" from "the gate would pass
  // vacuously" — bench_compare only enforces the JIT floor when it is nonzero
  // (hosts that cannot run generated code fall back to the block cache). Per
  // iteration, like ExportVmCounters: the total grows with the iteration count
  // google-benchmark happens to pick, which the counter gate must not see.
  state.counters["jit_compiled"] =
      static_cast<double>(fast.world.machine().metrics().Get("vm.jit.compiled_blocks")) /
      static_cast<double>(state.iterations());
}

void BM_InterpSpeedup(benchmark::State& state) {
  BM_SpeedupVsSlow(state, Engine::kCache);
}

void BM_JitSpeedup(benchmark::State& state) {
  BM_SpeedupVsSlow(state, Engine::kJit);
}

BENCHMARK(BM_TightArith)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PointerChaseSfs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CallHeavy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_InterpSpeedup)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JitSpeedup)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hemlock
