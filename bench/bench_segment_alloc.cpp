// E7 (paper §5 "Dynamic Storage Management").
//
// "We have developed a package designed to allocate space from the heaps associated
// with individual segments, instead of a heap associated with the calling program."
//
// Rows: alloc/free cost of the per-segment allocator vs malloc (the program heap),
// across block sizes and a mixed churn workload; plus a fragmentation counter (free
// blocks after churn — coalescing keeps it low).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <vector>

#include "bench/scratch_store.h"
#include "src/posix/posix_heap.h"
#include "src/runtime/shm_heap.h"

namespace hemlock {
namespace {

void BM_SegmentAllocFree(benchmark::State& state) {
  ScratchStore fx("alloc");
  Result<PosixHeap> heap = PosixHeap::Create(fx.store.get(), "heap", kPosixSlotBytes);
  if (!heap.ok()) {
    state.SkipWithError("heap create failed");
    return;
  }
  size_t size = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Result<void*> p = heap->Alloc(size);
    if (!p.ok()) {
      state.SkipWithError("alloc failed");
      return;
    }
    benchmark::DoNotOptimize(*p);
    if (!heap->Free(*p).ok()) {
      state.SkipWithError("free failed");
      return;
    }
  }
  state.counters["bytes"] = static_cast<double>(size);
}
BENCHMARK(BM_SegmentAllocFree)->Arg(16)->Arg(256)->Arg(4096);

void BM_MallocFree(benchmark::State& state) {
  size_t size = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    void* p = ::malloc(size);
    benchmark::DoNotOptimize(p);
    ::free(p);
  }
  state.counters["bytes"] = static_cast<double>(size);
}
BENCHMARK(BM_MallocFree)->Arg(16)->Arg(256)->Arg(4096);

// Churn: allocate a working set, then repeatedly free/reallocate random members
// (first-fit + coalescing under a realistic mix). Reports residual fragmentation.
void BM_SegmentChurn(benchmark::State& state) {
  ScratchStore fx("alloc");
  Result<PosixHeap> heap = PosixHeap::Create(fx.store.get(), "heap", kPosixSlotBytes);
  if (!heap.ok()) {
    state.SkipWithError("heap create failed");
    return;
  }
  uint64_t rng = 12345;
  auto next = [&rng]() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(rng >> 33);
  };
  std::vector<void*> blocks(512, nullptr);
  for (auto& block : blocks) {
    Result<void*> p = heap->Alloc(16 + next() % 512);
    if (!p.ok()) {
      state.SkipWithError("warmup alloc failed");
      return;
    }
    block = *p;
  }
  for (auto _ : state) {
    uint32_t i = next() % blocks.size();
    if (!heap->Free(blocks[i]).ok()) {
      state.SkipWithError("free failed");
      return;
    }
    Result<void*> p = heap->Alloc(16 + next() % 512);
    if (!p.ok()) {
      state.SkipWithError("alloc failed");
      return;
    }
    blocks[i] = *p;
  }
  state.counters["free_blocks"] = heap->FreeBlockCount();
}
BENCHMARK(BM_SegmentChurn);

// The simulated-world analogue: ShmHeap over a SharedFs segment.
void BM_SimulatedSegmentAllocFree(benchmark::State& state) {
  SharedFs sfs;
  Result<ShmHeap> heap = ShmHeap::Create(&sfs, "/heap", kSfsMaxFileBytes);
  if (!heap.ok()) {
    state.SkipWithError("heap create failed");
    return;
  }
  uint32_t size = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    Result<uint32_t> addr = heap->Alloc(size);
    if (!addr.ok()) {
      state.SkipWithError("alloc failed");
      return;
    }
    benchmark::DoNotOptimize(*addr);
    if (!heap->Free(*addr).ok()) {
      state.SkipWithError("free failed");
      return;
    }
  }
  state.counters["bytes"] = static_cast<double>(size);
}
BENCHMARK(BM_SimulatedSegmentAllocFree)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace hemlock
