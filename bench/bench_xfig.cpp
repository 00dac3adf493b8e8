// E4 (paper §4 — the xfig case study).
//
// Original xfig translates its linked object lists to and from a pointer-free ASCII
// file on every save/load; the Hemlock version keeps the lists in a shared segment, so
// "open" is an attach and the pre-existing pointer-rich copy routines do everything.
// (The paper reports >800 lines of translation code removed; EXPERIMENTS.md carries
// the code-size analogue. Here: the time shape.)
//
// Rows, swept over figure size:
//   SaveLoadAscii  — serialize + parse + rebuild (the original open/save path)
//   AttachSegment  — attach and checksum-walk the shared figure (the Hemlock path)
//   DuplicateObject — the in-memory copy both versions share
#include <benchmark/benchmark.h>

#include <string>

#include "bench/scratch_store.h"
#include "src/apps/figures.h"

namespace hemlock {
namespace {

void BM_FigSaveLoadAscii(benchmark::State& state) {
  uint32_t objects = static_cast<uint32_t>(state.range(0));
  LocalFigure original;
  if (!GenerateFigure(&original.figure(), objects, 4).ok()) {
    state.SkipWithError("generate failed");
    return;
  }
  uint64_t want = original.figure().Checksum();
  for (auto _ : state) {
    std::string ascii = SaveAscii(original.figure());
    LocalFigure rebuilt;
    if (!LoadAscii(ascii, &rebuilt.figure()).ok() || rebuilt.figure().Checksum() != want) {
      state.SkipWithError("round trip failed");
      return;
    }
    benchmark::DoNotOptimize(rebuilt.figure().header());
  }
  state.counters["objects"] = objects;
}
BENCHMARK(BM_FigSaveLoadAscii)->Arg(100)->Arg(400)->Arg(1600)->Arg(5000);

void BM_FigAttachSegment(benchmark::State& state) {
  uint32_t objects = static_cast<uint32_t>(state.range(0));
  ScratchStore fx("fig");
  uint64_t want = 0;
  {
    Result<SegmentFigure> fig = SegmentFigure::Create(fx.store.get(), "drawing", kPosixSlotBytes);
    if (!fig.ok() || !GenerateFigure(&fig->figure(), objects, 4).ok()) {
      state.SkipWithError("generate failed");
      return;
    }
    want = fig->figure().Checksum();
  }
  for (auto _ : state) {
    // "Open the figure": attach and walk it in place — no parsing, no rebuilding.
    Result<SegmentFigure> fig = SegmentFigure::Attach(fx.store.get(), "drawing");
    if (!fig.ok() || fig->figure().Checksum() != want) {
      state.SkipWithError("attach failed");
      return;
    }
    benchmark::DoNotOptimize(fig->figure().header());
  }
  state.counters["objects"] = objects;
}
BENCHMARK(BM_FigAttachSegment)->Arg(100)->Arg(400)->Arg(1600)->Arg(5000);

void BM_FigDuplicateObject(benchmark::State& state) {
  LocalFigure fig;
  if (!GenerateFigure(&fig.figure(), 64, static_cast<uint32_t>(state.range(0))).ok()) {
    state.SkipWithError("generate failed");
    return;
  }
  FigObject* first = fig.figure().header()->objects;
  for (auto _ : state) {
    Result<FigObject*> copy = fig.figure().Duplicate(first);
    if (!copy.ok()) {
      state.SkipWithError("duplicate failed");
      return;
    }
    if (!fig.figure().Remove(*copy).ok()) {
      state.SkipWithError("remove failed");
      return;
    }
  }
  state.counters["points_per_obj"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_FigDuplicateObject)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace hemlock
