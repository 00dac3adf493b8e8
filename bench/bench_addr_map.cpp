// F3 (paper Figure 3 + §3 "Address Space and File System Organization").
//
// The kernel translates shared-region addresses to files through a *linear lookup
// table* "for the sake of simplicity"; the planned 64-bit version replaces it with a
// B-tree-backed index. This bench regenerates the design datapoint: translation cost
// under the linear table vs an ordered index, swept over the number of files
// (16..1024 — the partition's inode limit) and for hit vs miss lookups.
//
// Expected shape: linear grows ~linearly with file count and is perfectly adequate at
// <= 1024 files; the index is flat — the crossover justifies the paper's "linear now,
// B-tree at 64 bits" choice.
#include <benchmark/benchmark.h>

#include "src/base/layout.h"
#include "src/sfs/shared_fs.h"

namespace hemlock {
namespace {

std::unique_ptr<SharedFs> MakeFsWithFiles(uint32_t& files) {
  // The root directory holds inode 1, so at most 1023 files fit.
  files = std::min(files, kSfsMaxInodes - 1);
  auto fs = std::make_unique<SharedFs>();
  for (uint32_t i = 0; i < files; ++i) {
    Result<uint32_t> ino = fs->Create("/seg" + std::to_string(i));
    if (!ino.ok()) {
      std::abort();
    }
  }
  return fs;
}

void BM_AddrToInode(benchmark::State& state, AddrLookupMode mode, bool hit) {
  uint32_t files = static_cast<uint32_t>(state.range(0));
  std::unique_ptr<SharedFs> fs = MakeFsWithFiles(files);
  fs->set_lookup_mode(mode);
  // Probe addresses: inside existing slots (hit) or in the empty tail (miss).
  std::vector<uint32_t> probes;
  for (uint32_t i = 0; i < 256; ++i) {
    if (hit) {
      uint32_t ino = 2 + (i * 2654435761u) % files;  // inodes 2..files+1 hold the files
      probes.push_back(SfsAddressForInode(ino) + (i * 256) % kSfsMaxFileBytes);
    } else {
      // Inode 1 is the root directory: its slot never holds a file, so this probe
      // misses even on a full partition (worst case for the linear scan).
      probes.push_back(SfsAddressForInode(1) + (i * 64) % kSfsMaxFileBytes);
    }
  }
  size_t p = 0;
  for (auto _ : state) {
    Result<uint32_t> ino = fs->AddrToInode(probes[p]);
    benchmark::DoNotOptimize(ino);
    p = (p + 1) % probes.size();
  }
  state.counters["files"] = files;
}

BENCHMARK_CAPTURE(BM_AddrToInode, linear_hit, AddrLookupMode::kLinear, true)
    ->Name("AddrToInode/linear/hit")->RangeMultiplier(4)->Range(16, 1024);
BENCHMARK_CAPTURE(BM_AddrToInode, indexed_hit, AddrLookupMode::kIndexed, true)
    ->Name("AddrToInode/indexed/hit")->RangeMultiplier(4)->Range(16, 1024);
BENCHMARK_CAPTURE(BM_AddrToInode, linear_miss, AddrLookupMode::kLinear, false)
    ->Name("AddrToInode/linear/miss")->RangeMultiplier(4)->Range(16, 1024);
BENCHMARK_CAPTURE(BM_AddrToInode, indexed_miss, AddrLookupMode::kIndexed, false)
    ->Name("AddrToInode/indexed/miss")->RangeMultiplier(4)->Range(16, 1024);

// Boot-time scan cost (paper: the table is initialized by scanning the partition).
void BM_BootScan(benchmark::State& state) {
  uint32_t files = static_cast<uint32_t>(state.range(0));
  std::unique_ptr<SharedFs> fs = MakeFsWithFiles(files);
  for (auto _ : state) {
    fs->RebuildAddrTable();
  }
  state.counters["files"] = files;
}
BENCHMARK(BM_BootScan)->RangeMultiplier(4)->Range(16, 1024);

}  // namespace
}  // namespace hemlock
