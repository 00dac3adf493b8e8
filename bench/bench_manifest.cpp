// Stable linking (ROADMAP "persist symbol resolution across runs").
//
// The warm-start gate: a run over an already-linked tree with a valid resolution
// manifest should pay almost nothing for linking — attach the public segments,
// verify the manifest records, install the recorded resolutions. No scope walks,
// no root lookups, no trailer rewrites.
//
// Cold: fresh templates, every public module created and resolved from scratch
// (and the manifest written). Warm: the cold run's partition is rebooted into a
// fresh world and the same program runs again. CI gates warm <= 10% of cold via
// `bench_compare.py`'s manifest_warm row on the counters this benchmark emits:
// cold_ns, warm_ns, manifest_hits.
#include <benchmark/benchmark.h>

#include <chrono>

#include "src/base/bytes.h"
#include "src/base/strings.h"
#include "src/runtime/world.h"
#include "src/sfs/sfs_check.h"
#include "src/sfs/shared_fs.h"

namespace hemlock {
namespace {

constexpr uint32_t kModules = 32;
constexpr uint32_t kFanout = 16;
// Exported symbols per module. Every caller references every symbol of every
// callee, so resolutions scale as modules * fanout * syms — the scope-walk and
// trailer work a cold start pays per distinct symbol, and a warm start replaces
// with one recorded table install.
constexpr uint32_t kSyms = 8;

// Module i calls modules i+1 .. i+kFanout (the tail calls helper), so the graph
// carries ~kModules * kFanout * kSyms unresolved references over fat scopes.
// The cross-module calls sit behind an `if` the program never takes: the call
// *sites* (and their resolutions) are real, the runtime cost is constant.
std::vector<uint32_t> Callees(uint32_t i) {
  std::vector<uint32_t> out;
  for (uint32_t j = i + 1; j < kModules && j <= i + kFanout; ++j) {
    out.push_back(j);
  }
  return out;
}

std::unique_ptr<HemlockWorld> BuildWorld() {
  auto world = std::make_unique<HemlockWorld>();
  (void)world->vfs().MkdirAll("/shm/lib");
  CompileOptions helper_opts;
  helper_opts.include_prelude = false;
  if (!world->CompileTo("int helper(int x) { return x * 3; }", "/shm/lib/helper.o", helper_opts)
           .ok()) {
    std::abort();
  }
  for (uint32_t i = kModules; i-- > 0;) {
    std::vector<uint32_t> callees = Callees(i);
    CompileOptions opts;
    opts.include_prelude = false;
    opts.search_path = {"/shm/lib"};
    std::string src;
    opts.module_list.push_back("helper.o");
    src += "extern int helper(int x);\n";
    for (uint32_t j : callees) {
      opts.module_list.push_back(StrFormat("feat%u.o", j));
      for (uint32_t s = 0; s < kSyms; ++s) {
        src += StrFormat("extern int g%u_%u(int x);\n", j, s);
      }
    }
    for (uint32_t s = 0; s < kSyms; ++s) {
      std::string sum = StrFormat("helper(%u)", i);
      for (uint32_t j : callees) {
        sum += StrFormat(" + g%u_%u(x)", j, s);
      }
      src += StrFormat(
          "int g%u_%u(int x) {\n"
          "  if (x > 0) { return x + %u; }\n"
          "  return %s;\n"
          "}\n",
          i, s, i + s, sum.c_str());
    }
    if (!world->CompileTo(src, StrFormat("/shm/lib/feat%u.o", i), opts).ok()) {
      std::abort();
    }
  }
  return world;
}

// The program lives outside the shared partition, so a rebooted world recompiles
// it; identical source -> identical image -> the manifest's image hash matches.
Status CompileProgram(HemlockWorld* world) {
  std::string prog;
  for (uint32_t i = 0; i < kModules; ++i) {
    prog += StrFormat("extern int g%u_0(int x);\n", i);
  }
  prog += "int main(void) {\n  int sum;\n  sum = 0;\n";
  for (uint32_t i = 0; i < kModules; ++i) {
    prog += StrFormat("  sum = sum + g%u_0(1);\n", i);
  }
  prog += "  return sum & 127;\n}\n";
  return world->CompileTo(prog, "/home/user/prog.o");
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

struct TimedRun {
  double seconds = 0;
  uint64_t manifest_hits = 0;
  uint64_t scope_walks = 0;
};

// Compile + link untimed; the measured quantity is ldl's own startup clock
// (ldl.startup_ns). With the eager ablation every resolution decision — and
// every manifest hit — lands inside Startup, so the reading is pure link time
// with program execution and process setup excluded.
bool RunOnce(HemlockWorld* world, TimedRun* out, std::string* error) {
  Status compiled = CompileProgram(world);
  if (!compiled.ok()) {
    *error = compiled.ToString();
    return false;
  }
  Result<LoadImage> image = world->Link(LinkOptions());
  if (!image.ok()) {
    *error = image.status().ToString();
    return false;
  }
  ExecOptions exec;
  exec.ldl.lazy = false;
  exec.ldl.use_manifest = true;
  Result<ExecResult> run = world->Exec(*image, exec);
  if (!run.ok()) {
    *error = run.status().ToString();
    return false;
  }
  Result<int> status = world->RunToExit(run->pid);
  if (!status.ok()) {
    *error = status.status().ToString();
    return false;
  }
  out->seconds = static_cast<double>(run->ldl->metrics().Get("ldl.startup_ns")) * 1e-9;
  out->manifest_hits = run->ldl->metrics().Get("ldl.manifest.hits");
  out->scope_walks = run->ldl->metrics().Get("ldl.scope_walks");
  return true;
}

void BM_ManifestWarmStart(benchmark::State& state) {
  // Cold, once: creates every public module and writes the manifest.
  std::unique_ptr<HemlockWorld> cold_world = BuildWorld();
  TimedRun cold;
  std::string error;
  if (!RunOnce(cold_world.get(), &cold, &error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  ByteWriter w;
  if (!cold_world->sfs().Serialize(&w).ok()) {
    state.SkipWithError("cannot serialize the cold partition");
    return;
  }
  const std::vector<uint8_t> disk = w.buffer();

  TimedRun warm;
  for (auto _ : state) {
    auto world = std::make_unique<HemlockWorld>();
    ByteReader r(disk);
    SfsCheckReport report;
    Result<std::unique_ptr<SharedFs>> fs = SharedFs::Deserialize(&r, &report);
    if (!fs.ok()) {
      state.SkipWithError(fs.status().ToString().c_str());
      return;
    }
    world->machine().ReplaceSfs(std::move(*fs));
    if (!RunOnce(world.get(), &warm, &error)) {
      state.SkipWithError(error.c_str());
      return;
    }
    if (warm.manifest_hits == 0) {
      state.SkipWithError("warm run installed no manifest resolutions");
      return;
    }
    state.SetIterationTime(warm.seconds);
  }
  state.counters["cold_ns"] = cold.seconds * 1e9;
  state.counters["warm_ns"] = warm.seconds * 1e9;
  state.counters["manifest_hits"] = static_cast<double>(warm.manifest_hits);
  state.counters["warm_scope_walks"] = static_cast<double>(warm.scope_walks);
  state.counters["modules"] = kModules;
}
BENCHMARK(BM_ManifestWarmStart)->UseManualTime();

}  // namespace
}  // namespace hemlock
