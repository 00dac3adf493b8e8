// E3 (paper §4 — compiler symbol/parser tables, the Lynx case study).
//
// "In a multi-pass compiler, pointer-rich symbol table information is often linearized
// and saved to secondary store, only to be reconstructed in its original form by a
// subsequent pass." With Hemlock the tables are a persistent module: the generator
// pass builds them once in a shared segment; the compiler pass attaches and uses them
// in place. (Paper scale-point: the C encoding of the Lynx tables is over 5400 lines
// and takes 18 s to compile on a SPARCstation 1.)
//
// Rows, swept over table size:
//   SerializeRebuild — linearize + rebuild with pointer fixup (the original dance)
//   AttachAndDrive   — attach the shared tables and drive the token stream in place
//   DriveOnly        — steady-state walk cost, same in both designs (in-place use
//                      costs nothing extra)
#include <benchmark/benchmark.h>

#include "bench/scratch_store.h"
#include "src/apps/tables.h"

namespace hemlock {
namespace {

constexpr uint32_t kFanout = 4;

void BM_TablesSerializeRebuild(benchmark::State& state) {
  uint32_t states = static_cast<uint32_t>(state.range(0));
  LocalTables original;
  if (!GenerateTables(&original.tables(), states, kFanout).ok()) {
    state.SkipWithError("generate failed");
    return;
  }
  std::vector<uint32_t> tokens = MakeTokenStream(256, kFanout * 4);
  uint64_t want = original.tables().Drive(tokens);
  for (auto _ : state) {
    std::vector<uint32_t> numeric = SerializeTables(original.tables());
    LocalTables rebuilt;
    if (!RebuildTables(numeric, &rebuilt.tables()).ok() ||
        rebuilt.tables().Drive(tokens) != want) {
      state.SkipWithError("rebuild failed");
      return;
    }
    benchmark::DoNotOptimize(rebuilt.tables().header());
  }
  state.counters["states"] = states;
}
BENCHMARK(BM_TablesSerializeRebuild)->Arg(256)->Arg(1024)->Arg(2048);

void BM_TablesAttachAndDrive(benchmark::State& state) {
  uint32_t states = static_cast<uint32_t>(state.range(0));
  ScratchStore fx("tbl");
  std::vector<uint32_t> tokens = MakeTokenStream(256, kFanout * 4);
  uint64_t want = 0;
  {
    Result<SegmentTables> tables =
        SegmentTables::Create(fx.store.get(), "lynx", kPosixSlotBytes);
    if (!tables.ok() || !GenerateTables(&tables->tables(), states, kFanout).ok()) {
      state.SkipWithError("generate failed");
      return;
    }
    want = tables->tables().Drive(tokens);
  }
  for (auto _ : state) {
    Result<SegmentTables> tables = SegmentTables::Attach(fx.store.get(), "lynx");
    if (!tables.ok() || tables->tables().Drive(tokens) != want) {
      state.SkipWithError("attach failed");
      return;
    }
    benchmark::DoNotOptimize(tables->tables().header());
  }
  state.counters["states"] = states;
}
BENCHMARK(BM_TablesAttachAndDrive)->Arg(256)->Arg(1024)->Arg(2048);

void BM_TablesDriveOnly(benchmark::State& state) {
  uint32_t states = static_cast<uint32_t>(state.range(0));
  LocalTables tables;
  if (!GenerateTables(&tables.tables(), states, kFanout).ok()) {
    state.SkipWithError("generate failed");
    return;
  }
  std::vector<uint32_t> tokens = MakeTokenStream(256, kFanout * 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tables.tables().Drive(tokens));
  }
  state.counters["states"] = states;
}
BENCHMARK(BM_TablesDriveOnly)->Arg(256)->Arg(1024)->Arg(2048);

}  // namespace
}  // namespace hemlock
