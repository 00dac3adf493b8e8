// E2 (paper §4 "Parallel Applications" + "Utility Programs and Servers").
//
// Two claims get shapes here:
//   * worker/parent data exchange through a shared segment beats kernel-supported
//     message passing for asynchronous interaction ("modification of data that will be
//     examined by another process at another time can be expected to consume
//     significantly less time than kernel-supported message passing");
//   * the Presto-style setup (create segment, attach per worker) is cheap.
//
// Rows, swept over worker count:
//   SharedCounters — N forked workers each bump a per-worker slot in a shared segment
//   PipeMessages   — N forked workers send each increment to the parent over a pipe
// Both do the same logical work (the parent can observe per-worker progress).
#include <benchmark/benchmark.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <string>

#include "bench/scratch_store.h"
#include "src/kernel/scheduler.h"
#include "src/link/loader.h"
#include "src/runtime/world.h"

namespace hemlock {
namespace {

constexpr uint32_t kOpsPerWorker = 100000;

void BM_SharedCounters(benchmark::State& state) {
  int workers = static_cast<int>(state.range(0));
  ScratchStore scratch("par");
  Result<PosixSegment> seg = scratch.store->Create("counters", 4096);
  if (!seg.ok()) {
    state.SkipWithError("segment create failed");
    return;
  }
  auto* slots = reinterpret_cast<volatile uint64_t*>(seg->base);
  for (auto _ : state) {
    for (int w = 0; w < workers; ++w) {
      slots[w] = 0;
    }
    std::vector<pid_t> pids;
    for (int w = 0; w < workers; ++w) {
      pid_t pid = ::fork();
      if (pid == 0) {
        for (uint32_t i = 0; i < kOpsPerWorker; ++i) {
          slots[w] = slots[w] + 1;  // private slot: no lock needed
        }
        ::_exit(0);
      }
      pids.push_back(pid);
    }
    uint64_t total = 0;
    for (pid_t pid : pids) {
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    for (int w = 0; w < workers; ++w) {
      total += slots[w];
    }
    if (total != static_cast<uint64_t>(workers) * kOpsPerWorker) {
      state.SkipWithError("lost updates");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * workers * kOpsPerWorker);
  state.counters["workers"] = workers;
}
BENCHMARK(BM_SharedCounters)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_PipeMessages(benchmark::State& state) {
  int workers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    int fds[2];
    if (::pipe(fds) != 0) {
      state.SkipWithError("pipe failed");
      return;
    }
    std::vector<pid_t> pids;
    for (int w = 0; w < workers; ++w) {
      pid_t pid = ::fork();
      if (pid == 0) {
        ::close(fds[0]);
        uint32_t msg = static_cast<uint32_t>(w);
        for (uint32_t i = 0; i < kOpsPerWorker; ++i) {
          if (::write(fds[1], &msg, sizeof(msg)) != sizeof(msg)) {
            ::_exit(1);
          }
        }
        ::close(fds[1]);
        ::_exit(0);
      }
      pids.push_back(pid);
    }
    ::close(fds[1]);
    uint64_t received = 0;
    uint32_t buf[1024];
    ssize_t n = 0;
    while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
      received += static_cast<uint64_t>(n) / sizeof(uint32_t);
    }
    ::close(fds[0]);
    for (pid_t pid : pids) {
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    if (received != static_cast<uint64_t>(workers) * kOpsPerWorker) {
      state.SkipWithError("lost messages");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * workers * kOpsPerWorker);
  state.counters["workers"] = workers;
}
BENCHMARK(BM_PipeMessages)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// The same shared-counters shape, but on the *simulated* SMP kernel: four guest
// workers each claim a private slot in a shared dynamic-public segment (CAS on a
// claim word) and bump it kSmpOpsPerWorker times, swept over the host core count
// {1, 2, 4}. Slots are per-worker, so the workload is contention-light and the
// items_per_second column (bumps/sec, real time) is the cores-vs-throughput
// scaling curve for shared-segment data exchange under true parallelism.
constexpr int kSmpWorkers = 4;
constexpr int kSmpOpsPerWorker = 50000;

const char kSlotsModule[] =
    "int next_slot = 0;\n"
    "int slots[8];\n";

std::string SmpWorkerSource() {
  return std::string("extern int next_slot;\n") +
         "extern int slots[8];\n"
         "int main() {\n"
         "  int me;\n"
         "  int i;\n"
         "  me = 0;\n"
         "  while (sys_cas(&next_slot, me, me + 1) != me) {\n"
         "    me = me + 1;\n"
         "  }\n"
         "  for (i = 0; i < " +
         std::to_string(kSmpOpsPerWorker) +
         "; i += 1) {\n"
         "    slots[me] = slots[me] + 1;\n"
         "  }\n"
         "  return 0;\n"
         "}\n";
}

void BM_SmpSharedCounters(benchmark::State& state) {
  const int cores = static_cast<int>(state.range(0));
  uint64_t steals = 0;
  uint64_t runs = 0;

  for (auto _ : state) {
    state.PauseTiming();
    HemlockWorld world;
    CompileOptions no_prelude;
    no_prelude.include_prelude = false;
    if (!world.CompileTo(kSlotsModule, "/shm/lib/slots_db.o", no_prelude).ok() ||
        !world.CompileTo(SmpWorkerSource(), "/home/user/smp_worker.o").ok()) {
      state.SkipWithError("compile failed");
      return;
    }
    LdsOptions lds;
    lds.inputs.push_back({"/home/user/smp_worker.o", ShareClass::kStaticPrivate});
    lds.inputs.push_back({"/shm/lib/slots_db.o", ShareClass::kDynamicPublic});
    Result<LoadImage> image = world.Link(lds);
    if (!image.ok()) {
      state.SkipWithError("link failed");
      return;
    }
    std::shared_ptr<Ldl> ldl;
    int first_pid = 0;
    for (int w = 0; w < kSmpWorkers; ++w) {
      Result<ExecResult> run = world.Exec(*image);
      if (!run.ok()) {
        state.SkipWithError("exec failed");
        return;
      }
      if (w == 0) {
        ldl = run->ldl;
        first_pid = run->pid;
      }
    }
    SchedParams sched;
    sched.num_cores = cores;
    state.ResumeTiming();
    SchedStatus outcome = world.machine().RunScheduled(sched, 2'000'000'000ULL);
    state.PauseTiming();
    if (outcome != SchedStatus::kExited) {
      state.SkipWithError("workers did not drain");
      return;
    }
    // Lost-update check: each slot is private to the one worker whose sys_cas
    // claimed it, so each must hold exactly that worker's bumps though no lock
    // is taken.
    Result<uint32_t> addr = ldl->LookupRootSymbol("slots");
    Process* proc = world.machine().FindProcess(first_pid);
    if (!addr.ok() || proc == nullptr) {
      state.SkipWithError("slots symbol lost");
      return;
    }
    uint32_t slots[kSmpWorkers] = {0};
    if (!proc->space()
             .ReadBytes(*addr, reinterpret_cast<uint8_t*>(slots), sizeof(slots))
             .ok()) {
      state.SkipWithError("slots unreadable");
      return;
    }
    if (std::any_of(std::begin(slots), std::end(slots),
                    [](uint32_t slot) { return slot != kSmpOpsPerWorker; })) {
      state.SkipWithError("lost updates in per-worker slots");
      return;
    }
    steals += world.machine().metrics().Get("vm.sched.steals");
    ++runs;
    state.ResumeTiming();
  }

  state.SetItemsProcessed(state.iterations() * kSmpWorkers * kSmpOpsPerWorker);
  state.counters["cores"] = cores;
  state.counters["workers"] = kSmpWorkers;
  if (runs > 0) {
    state.counters["steals"] = static_cast<double>(steals / runs);
  }
}
BENCHMARK(BM_SmpSharedCounters)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

// Presto setup cost: create the per-job shared segment and attach from a worker.
void BM_PrestoSetup(benchmark::State& state) {
  ScratchStore scratch("presto");
  PosixStore* store = scratch.store.get();
  int job = 0;
  for (auto _ : state) {
    std::string name = "job" + std::to_string(job++);
    Result<PosixSegment> seg = store->Create(name, 64 * 1024);
    if (!seg.ok()) {
      state.SkipWithError("create failed");
      return;
    }
    Result<PosixSegment> attached = store->Attach(name);
    if (!attached.ok()) {
      state.SkipWithError("attach failed");
      return;
    }
    if (!store->Remove(name).ok()) {
      state.SkipWithError("remove failed");
      return;
    }
  }
}
BENCHMARK(BM_PrestoSetup);

}  // namespace
}  // namespace hemlock
