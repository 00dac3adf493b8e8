// lazy_startup — link-bound. 64 library templates form a seeded scoped DAG
// (paper Figure 2); the main program links modules 0-7 as dynamic public. One
// op reboots a fresh world from the templates-only snapshot, execs the image
// (lazy-link faults cascade down the whole DAG and ldl creates every public
// segment under its creation lock), then execs it again in the same world,
// which takes the attach path. The guest retires only thousands of
// instructions, so a vm, kernel or net change must leave this workload alone.
#include <vector>

#include "e2ebench/harness.h"
#include "src/base/strings.h"

namespace e2ebench {
namespace {

using hemlock::StrFormat;

constexpr uint32_t kModules = 64;
constexpr uint32_t kExports = 8;
constexpr uint32_t kRootModules = 8;  // linked by the main program
constexpr uint32_t kMaxExtraSuccessors = 3;
constexpr uint32_t kSuccessorWindow = 8;  // extra successors come from i+2..i+8

class LazyStartup : public Workload {
 public:
  explicit LazyStartup(const Inputs& inputs) : inputs_(inputs) {}

  Status Setup(SpanLog& spans) override {
    Rng rng(inputs_.seed);
    // succ[i][0] = i+1: the only edge taken at run time. The others are real
    // references behind a branch that is never taken, as in bench_manifest.
    std::vector<std::vector<uint32_t>> succ(kModules);
    std::vector<std::vector<int32_t>> add(kModules, std::vector<int32_t>(kExports));
    for (uint32_t i = 0; i < kModules; ++i) {
      if (i + 1 < kModules) {
        succ[i].push_back(i + 1);
      }
      uint32_t extra = rng.Below(kMaxExtraSuccessors + 1);
      for (uint32_t k = 0; k < extra; ++k) {
        uint32_t j = i + 2 + rng.Below(kSuccessorWindow - 1);
        bool seen = false;
        for (uint32_t s : succ[i]) {
          seen = seen || s == j;
        }
        if (j < kModules && !seen) {
          succ[i].push_back(j);
        }
      }
      for (uint32_t s = 0; s < kExports; ++s) {
        add[i][s] = static_cast<int32_t>(rng.Below(1000));
      }
    }

    hemlock::HemlockWorld world;
    for (uint32_t i = 0; i < kModules; ++i) {
      hemlock::CompileOptions opts;
      opts.include_prelude = false;
      opts.search_path = {"/shm/lib"};
      std::string src;
      for (uint32_t j : succ[i]) {
        opts.module_list.push_back(StrFormat("lib%u.o", j));
        for (uint32_t t = 0; t < kExports; ++t) {
          src += StrFormat("extern int f%u_%u(int x);\n", j, t);
        }
      }
      for (uint32_t s = 0; s < kExports; ++s) {
        std::string cold = "0";
        for (uint32_t j : succ[i]) {
          for (uint32_t t = 0; t < kExports; ++t) {
            cold += StrFormat(" + f%u_%u(x)", j, t);
          }
        }
        std::string hot =
            i + 1 < kModules ? StrFormat("f%u_%u(x) + %d", i + 1, s, add[i][s])
                             : StrFormat("x + %d", add[i][s]);
        src += StrFormat(
            "int f%u_%u(int x) {\n"
            "  if (x < 0) { return %s; }\n"
            "  return %s;\n"
            "}\n",
            i, s, cold.c_str(), hot.c_str());
      }
      RETURN_IF_ERROR(Compile(world, src, StrFormat("/shm/lib/lib%u.o", i), opts, spans));
    }

    // main calls one seeded export of each root module with a seeded argument;
    // each call runs down the i+1 chain to module 63.
    std::string prog;
    std::string body;
    expected_ = 0;
    for (uint32_t m = 0; m < kRootModules; ++m) {
      uint32_t s = rng.Below(kExports);
      int32_t x = static_cast<int32_t>(1 + rng.Below(1000));
      prog += StrFormat("extern int f%u_%u(int x);\n", m, s);
      body += StrFormat("  sum = sum + f%u_%u(%d);\n", m, s, x);
      expected_ += x;
      for (uint32_t i = m; i < kModules; ++i) {
        expected_ += add[i][s];
      }
    }
    prog += "int main(void) {\n  int sum;\n  sum = 0;\n" + body + "  return sum;\n}\n";
    RETURN_IF_ERROR(Compile(world, prog, "/home/user/main.o", {}, spans));

    hemlock::LdsOptions lds;
    lds.inputs.push_back({"/home/user/main.o", hemlock::ShareClass::kStaticPrivate});
    for (uint32_t m = 0; m < kRootModules; ++m) {
      lds.inputs.push_back({StrFormat("lib%u.o", m), hemlock::ShareClass::kDynamicPublic});
    }
    lds.lib_dirs = {"/shm/lib"};
    ASSIGN_OR_RETURN(image_, Link(world, lds, spans));
    ASSIGN_OR_RETURN(disk_, Snapshot(world));
    return hemlock::OkStatus();
  }

  OpOutcome RunOp(SpanLog& spans) override {
    OpOutcome out;
    hemlock::HemlockWorld world;
    MetricsSnapshot before = world.machine().metrics().Snapshot();
    uint64_t ticks_before = world.machine().ticks();
    Status st = Reboot(world, disk_, spans);
    // First exec creates all 64 public segments; the second attaches them.
    for (int pass = 0; pass < 2 && st.ok(); ++pass) {
      Result<hemlock::ExecResult> exec = Exec(world, image_, spans);
      if (!exec.ok()) {
        st = exec.status();
        break;
      }
      st = Run(world.machine(), 1, spans);
      hemlock::MetricsRegistry::Merge(&out.counters, exec->ldl->metrics().Snapshot());
      if (!st.ok()) {
        break;
      }
      SpanLog::Scope check(&spans, "check");
      Result<int> code = ExitCodeOf(world.machine(), exec->pid);
      int want = expected_ + (inputs_.wrong_expected ? 1 : 0);
      if (!code.ok()) {
        st = code.status();
      } else if (*code != want) {
        out.error = StrFormat("pass %d exited %d, expected %d", pass, *code, want);
      }
    }
    if (!st.ok()) {
      out.error = st.ToString();
    }
    hemlock::MetricsRegistry::Merge(&out.counters,
                                    Delta(world.machine().metrics().Snapshot(), before));
    out.counters["vm.ticks"] = world.machine().ticks() - ticks_before;
    return out;
  }

  Status BetweenOps(OpOutcome* /*out*/) override { return cpus_.Next(); }

 private:
  Inputs inputs_;
  CpuRotation cpus_;
  int32_t expected_ = 0;
  hemlock::LoadImage image_;
  std::vector<uint8_t> disk_;
};

}  // namespace

std::unique_ptr<Workload> MakeLazyStartup(const Inputs& inputs) {
  return std::make_unique<LazyStartup>(inputs);
}

}  // namespace e2ebench
