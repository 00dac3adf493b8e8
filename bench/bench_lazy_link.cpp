// E5 (paper §3 "Lazy Dynamic Linking").
//
// "With lazy linking, we would not bother to bring the editor's more esoteric
// features into a particular process's address space unless and until they were
// needed" — processes can carry a huge reachability graph while linking only the
// fraction a run actually touches. The cost: fault-driven linking is slower *per
// module* than a jump-table scheme.
//
// Setup: M partially linked public modules (each exports f_i and calls a helper from a
// shared helper module, so each carries one undefined reference and is mapped without
// access permissions). The program touches the first K of them.
//
// Rows, swept over touched fraction K/M; a row fails unless its faults are its mode's:
//   Lazy  — paper behaviour: resolution work proportional to K (K link faults)
//   Eager — resolve the whole graph at startup: flat cost proportional to M (none)
//   Function-lazy — the SunOS jump-table scheme: K first-call (PLT) bindings
// Expected crossover: lazy wins for K << M, converges to eager (plus fault overhead)
// as K -> M. lazy/1, one fault, is the per-fault overhead datapoint.
#include <benchmark/benchmark.h>

#include <chrono>

#include "src/base/strings.h"
#include "src/runtime/world.h"

namespace hemlock {
namespace {

constexpr uint32_t kModules = 32;

// Builds the world once per benchmark run: helper + M modules + program templates.
std::unique_ptr<HemlockWorld> BuildWorld(uint32_t touched) {
  auto world = std::make_unique<HemlockWorld>();
  (void)world->vfs().MkdirAll("/shm/lib");
  CompileOptions helper_opts;
  helper_opts.include_prelude = false;
  if (!world->CompileTo("int helper(int x) { return x * 3; }", "/shm/lib/helper.o",
                        helper_opts)
           .ok()) {
    std::abort();
  }
  for (uint32_t i = 0; i < kModules; ++i) {
    CompileOptions opts;
    opts.include_prelude = false;
    opts.module_list = {"helper.o"};
    opts.search_path = {"/shm/lib"};
    std::string src = StrFormat(R"(
      extern int helper(int x);
      int f%u(int x) { return helper(x) + %u; }
    )",
                                i, i);
    if (!world->CompileTo(src, StrFormat("/shm/lib/feat%u.o", i), opts).ok()) {
      std::abort();
    }
  }
  // The program declares every feature but calls only the first |touched|.
  std::string prog = "";
  for (uint32_t i = 0; i < kModules; ++i) {
    prog += StrFormat("extern int f%u(int x);\n", i);
  }
  prog += "int main(void) {\n  int sum;\n  sum = 0;\n";
  for (uint32_t i = 0; i < touched; ++i) {
    prog += StrFormat("  sum = sum + f%u(1);\n", i);
  }
  prog += "  return sum & 127;\n}\n";
  if (!world->CompileTo(prog, "/home/user/prog.o").ok()) {
    std::abort();
  }
  return world;
}

LdsOptions LinkOptions() {
  LdsOptions options;
  options.inputs.push_back({"prog.o", ShareClass::kStaticPrivate});
  for (uint32_t i = 0; i < kModules; ++i) {
    options.inputs.push_back({StrFormat("feat%u.o", i), ShareClass::kDynamicPublic});
  }
  options.lib_dirs = {"/shm/lib"};
  return options;
}

enum class Mode { kLazy, kEager, kFunctionLazy };

void BM_LinkRun(benchmark::State& state, Mode mode) {
  uint32_t touched = static_cast<uint32_t>(state.range(0));
  uint64_t faults = 0;
  uint64_t plt = 0;
  uint64_t relocs = 0;
  for (auto _ : state) {
    // Fresh world per iteration: public-module resolution is *shared and persistent*
    // (the first run's work survives in the module files), so measuring first-run
    // linking cost requires pristine modules each time. Build time is excluded.
    std::unique_ptr<HemlockWorld> world = BuildWorld(touched);
    Result<LoadImage> image = world->Link(LinkOptions());
    if (!image.ok()) {
      state.SkipWithError(image.status().ToString().c_str());
      return;
    }
    ExecOptions exec;
    exec.ldl.lazy = mode != Mode::kEager;
    exec.ldl.function_lazy = mode == Mode::kFunctionLazy;
    auto t0 = std::chrono::steady_clock::now();
    Result<ExecResult> run = world->Exec(*image, exec);
    if (!run.ok()) {
      state.SkipWithError(run.status().ToString().c_str());
      return;
    }
    Result<int> status = world->RunToExit(run->pid);
    auto t1 = std::chrono::steady_clock::now();
    if (!status.ok()) {
      state.SkipWithError(status.status().ToString().c_str());
      return;
    }
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    faults = run->ldl->metrics().Get("ldl.link_faults");
    plt = run->ldl->metrics().Get("ldl.plt_faults");
    relocs = run->ldl->metrics().Get("ldl.relocs_applied");
    if (faults != (mode == Mode::kLazy ? touched : 0) ||
        plt != (mode == Mode::kFunctionLazy ? touched : 0)) {
      state.SkipWithError(StrFormat("%d link and %d PLT faults", static_cast<int>(faults),
                                    static_cast<int>(plt)).c_str());
      return;
    }
  }
  state.counters["touched"] = touched;
  state.counters["modules"] = kModules;
  state.counters["link_faults"] = static_cast<double>(faults);
  state.counters["plt_faults"] = static_cast<double>(plt);
  state.counters["relocs_applied"] = static_cast<double>(relocs);
}

struct Registrar {
  Registrar() {
    for (auto [mode, name] : {std::pair{Mode::kLazy, "lazy"}, std::pair{Mode::kEager, "eager"},
                              std::pair{Mode::kFunctionLazy, "function_lazy"}}) {
      auto* bench = benchmark::RegisterBenchmark(
          (std::string("LinkRun/") + name).c_str(),
          [mode = mode](benchmark::State& s) { BM_LinkRun(s, mode); });
      bench->UseManualTime();
      for (uint32_t touched : {1u, 2u, 4u, 8u, 16u, 32u}) {
        bench->Arg(touched);
      }
    }
  }
} registrar;

}  // namespace
}  // namespace hemlock
