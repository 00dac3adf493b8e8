// E6 (paper §5 "Public vs Private Code and Data" — fork semantics).
//
// "The child process that results from a fork receives a copy of each segment in the
// private portion of the parent's address space, and shares the single copy of each
// segment in the public portion." Copying is the cost; sharing is free. This bench
// regenerates the shape: fork cost grows with the private footprint and is flat in
// the public footprint.
//
// Rows: AddressSpace::Fork host time, swept over (a) private pages with fixed public
// mappings and (b) public segments with a fixed private footprint; plus the
// end-to-end simulated fork (syscall path) instruction/tick cost.
#include <benchmark/benchmark.h>

#include "src/base/layout.h"
#include "src/runtime/world.h"
#include "src/vm/address_space.h"

namespace hemlock {
namespace {

// Forks an address space holding |pages| private pages and |segments| public
// segments of 16 pages each.
void ForkCost(benchmark::State& state, uint32_t pages, uint32_t segments) {
  SharedFs sfs;
  AddressSpace space(&sfs);
  auto backing = std::make_shared<std::vector<uint8_t>>(pages * kPageSize, 0xAB);
  if (!space.MapPrivate(kDataBase, pages * kPageSize, Prot::kReadWrite, backing, 0).ok()) {
    state.SkipWithError("map failed");
    return;
  }
  for (uint32_t i = 0; i < segments; ++i) {
    Result<uint32_t> ino = sfs.Create("/pub" + std::to_string(i));
    if (!ino.ok() || !sfs.EnsureExtent(*ino, 16 * kPageSize).ok() ||
        !space.MapPublic(SfsAddressForInode(*ino), 16 * kPageSize, Prot::kAll, *ino, 0).ok()) {
      state.SkipWithError("public map failed");
      return;
    }
  }
  for (auto _ : state) {
    std::unique_ptr<AddressSpace> child = space.Fork();
    benchmark::DoNotOptimize(child);
  }
}

// Private pages swept, one public segment alongside.
void BM_ForkPrivatePages(benchmark::State& state) {
  ForkCost(state, static_cast<uint32_t>(state.range(0)), 1);
  state.counters["private_pages"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ForkPrivatePages)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// Public segments swept, 16 private pages alongside.
void BM_ForkPublicSegments(benchmark::State& state) {
  ForkCost(state, 16, static_cast<uint32_t>(state.range(0)));
  state.counters["public_segments"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ForkPublicSegments)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// End-to-end: a simulated program forks and waits; measures machine ticks per fork
// with a public module linked (shared, not copied) and a private data footprint.
void BM_SimulatedForkTicks(benchmark::State& state) {
  HemlockWorld world;
  (void)world.vfs().MkdirAll("/shm/lib");
  CompileOptions opts;
  opts.include_prelude = false;
  if (!world.CompileTo("int shared_blob[2048];", "/shm/lib/blob.o", opts).ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  const char* prog = R"(
    extern int shared_blob[2048];
    int private_blob[2048];
    int main(void) {
      int pid;
      int i;
      private_blob[0] = shared_blob[0];
      for (i = 0; i < 8; i = i + 1) {
        pid = sys_fork();
        if (pid == 0) { sys_exit(0); }
        sys_waitpid(pid);
      }
      return 0;
    }
  )";
  if (!world.CompileTo(prog, "/home/user/forker.o").ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  Result<LoadImage> image = world.Link({.inputs = {{"forker.o", ShareClass::kStaticPrivate},
                                                   {"blob.o", ShareClass::kDynamicPublic}}});
  if (!image.ok()) {
    state.SkipWithError(image.status().ToString().c_str());
    return;
  }
  uint64_t ticks = 0;
  for (auto _ : state) {
    uint64_t before = world.machine().ticks();
    Result<ExecResult> run = world.Exec(*image);
    if (!run.ok() || !world.RunToExit(run->pid).ok()) {
      state.SkipWithError("run failed");
      return;
    }
    ticks = world.machine().ticks() - before;
  }
  state.counters["sim_ticks_per_run"] = static_cast<double>(ticks);
}
BENCHMARK(BM_SimulatedForkTicks);

}  // namespace
}  // namespace hemlock
