// T1 (paper Table 1: "Class creation and link times").
//
// The table's semantics (a new instance per process or not, and which region the
// module lands in) are checked per class by SharingTest.Table1ClassSemantics. This
// bench measures the cost of the stage that does each class's work: lds for the
// static classes, ldl startup for the dynamic ones.
#include <benchmark/benchmark.h>

#include <chrono>

#include "src/runtime/world.h"

namespace hemlock {
namespace {

constexpr char kModuleSrc[] = R"(
  int counter = 0;
  int bump(void) { counter = counter + 1; return counter; }
)";

constexpr char kProgSrc[] = R"(
  extern int bump(void);
  int main(void) { return bump(); }
)";

void BM_LinkAndRun(benchmark::State& state, ShareClass cls) {
  for (auto _ : state) {
    HemlockWorld world;
    CompileOptions mod_opts;
    mod_opts.include_prelude = false;
    (void)world.vfs().MkdirAll("/shm/lib");
    benchmark::DoNotOptimize(world.CompileTo(kModuleSrc, "/shm/lib/t1mod.o", mod_opts));
    benchmark::DoNotOptimize(world.CompileTo(kProgSrc, "/home/user/t1prog.o"));
    auto t_link0 = std::chrono::steady_clock::now();
    Result<LoadImage> image = world.Link(
        {.inputs = {{"t1prog.o", ShareClass::kStaticPrivate}, {"t1mod.o", cls}}});
    auto t_link1 = std::chrono::steady_clock::now();
    if (!image.ok()) {
      state.SkipWithError(image.status().ToString().c_str());
      return;
    }
    Result<ExecResult> run = world.Exec(*image);  // ldl startup happens here
    auto t_exec = std::chrono::steady_clock::now();
    if (!run.ok()) {
      state.SkipWithError(run.status().ToString().c_str());
      return;
    }
    Result<int> status = world.RunToExit(run->pid);
    if (!status.ok() || *status != 1) {
      state.SkipWithError("program failed");
      return;
    }
    state.counters["lds_us"] =
        std::chrono::duration<double, std::micro>(t_link1 - t_link0).count();
    state.counters["ldl_startup_us"] =
        std::chrono::duration<double, std::micro>(t_exec - t_link1).count();
    state.counters["link_faults"] = static_cast<double>(run->ldl->metrics().Get("ldl.link_faults"));
  }
}

BENCHMARK_CAPTURE(BM_LinkAndRun, static_private, ShareClass::kStaticPrivate)
    ->Name("BuildRun/static_private");
BENCHMARK_CAPTURE(BM_LinkAndRun, dynamic_private, ShareClass::kDynamicPrivate)
    ->Name("BuildRun/dynamic_private");
BENCHMARK_CAPTURE(BM_LinkAndRun, static_public, ShareClass::kStaticPublic)
    ->Name("BuildRun/static_public");
BENCHMARK_CAPTURE(BM_LinkAndRun, dynamic_public, ShareClass::kDynamicPublic)
    ->Name("BuildRun/dynamic_public");

}  // namespace
}  // namespace hemlock
