// shared_compute — execution-bound, SMP. Four workers chase a seeded
// permutation through a 64-page public table on two cores; every 256 hops a
// worker takes a hem_mutex and bumps a shared histogram bucket, which puts
// writes beside the reads. The JIT, the inline TLB probe on SFS pages, quantum
// dispatch, futex and the big kernel lock do the work; ldl links only three
// modules per worker, so a link change must leave this workload alone. Two
// cores leave headroom on a shared 4-CPU host.
#include <algorithm>
#include <vector>

#include "e2ebench/harness.h"
#include "src/base/strings.h"
#include "src/runtime/sync.h"

namespace e2ebench {
namespace {

using hemlock::StrFormat;

constexpr uint32_t kTableWords = 64 * 1024;  // 64 pages of 4 KB
constexpr int kWorkers = 4;
constexpr int kCores = 2;
constexpr uint32_t kHopsPerBump = 256;
// Rounds of kHopsPerBump hops per worker: with four workers, about 6.6e7
// guest ticks per op (about 55 ms on two cores), so a 40 s run leaves more
// than ten samples beyond p95.
constexpr uint32_t kRounds = 1536;
constexpr uint32_t kBuckets = 64;

class SharedCompute : public Workload {
 public:
  explicit SharedCompute(const Inputs& inputs) : inputs_(inputs) {}

  Status Setup(SpanLog& spans) override {
    // A single seeded cycle over the table (Sattolo), so no chase falls into a
    // short loop that would stay inside a few pages.
    Rng rng(inputs_.seed);
    std::vector<uint32_t> next(kTableWords);
    for (uint32_t i = 0; i < kTableWords; ++i) {
      next[i] = i;
    }
    for (uint32_t i = kTableWords - 1; i > 0; --i) {
      std::swap(next[i], next[rng.Below(i)]);
    }
    uint32_t starts[kWorkers];
    std::string table_src = "int starts[4] = {";
    for (int w = 0; w < kWorkers; ++w) {
      starts[w] = rng.Below(kTableWords);
      table_src += StrFormat("%s%u", w == 0 ? "" : ", ", starts[w]);
    }
    table_src += "};\nint table[65536] = {";
    for (uint32_t i = 0; i < kTableWords; ++i) {
      table_src += StrFormat("%s%u", i == 0 ? "" : ",", next[i]);
    }
    table_src += "};\n";

    // The expected outcome, computed here: each worker's endpoint and the
    // exact histogram the bumps must leave.
    expected_hist_.assign(kBuckets, 0);
    for (int w = 0; w < kWorkers; ++w) {
      uint32_t p = starts[w];
      for (uint32_t r = 0; r < kRounds; ++r) {
        for (uint32_t h = 0; h < kHopsPerBump; ++h) {
          p = next[p];
        }
        ++expected_hist_[p % kBuckets];
      }
      endpoints_[w] = p;
    }

    hemlock::HemlockWorld world;
    hemlock::CompileOptions lib;
    lib.include_prelude = false;
    RETURN_IF_ERROR(Compile(world, table_src, "/shm/lib/table.o", lib, spans));
    RETURN_IF_ERROR(Compile(world, hemlock::HemSyncModuleSource(), "/shm/lib/hemsync.o", {},
                            spans));
    // Data only: a write beside code would invalidate the code's blocks.
    RETURN_IF_ERROR(Compile(world,
                            "int hist_lock = 0;\n"
                            "int next_worker = 0;\n"
                            "int hist[64];\n",
                            "/shm/lib/hist.o", lib, spans));
    // Each worker claims an index with sys_cas, then chases from its start.
    RETURN_IF_ERROR(Compile(world,
                            hemlock::HemSyncDecls() +
                                StrFormat("extern int table[65536];\n"
                                      "extern int starts[4];\n"
                                      "extern int next_worker;\n"
                                      "extern int hist_lock;\n"
                                      "extern int hist[64];\n"
                                      "int main(void) {\n"
                                      "  int me; int p; int r; int h;\n"
                                      "  me = 0;\n"
                                      "  while (sys_cas(&next_worker, me, me + 1) != me) {\n"
                                      "    me = me + 1;\n"
                                      "  }\n"
                                      "  p = starts[me];\n"
                                      "  for (r = 0; r < %u; r += 1) {\n"
                                      "    for (h = 0; h < %u; h += 1) { p = table[p]; }\n"
                                      "    hem_mutex_lock(&hist_lock);\n"
                                      "    hist[p & %u] = hist[p & %u] + 1;\n"
                                      "    hem_mutex_unlock(&hist_lock);\n"
                                      "  }\n"
                                      "  return me * 65536 + p;\n"
                                      "}\n",
                                      kRounds, kHopsPerBump, kBuckets - 1, kBuckets - 1),
                            "/home/user/worker.o", {}, spans));

    hemlock::LdsOptions lds;
    lds.inputs.push_back({"/home/user/worker.o", hemlock::ShareClass::kStaticPrivate});
    for (const char* name : {"table.o", "hist.o", "hemsync.o"}) {
      lds.inputs.push_back({name, hemlock::ShareClass::kDynamicPublic});
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
    std::vector<hemlock::ExecResult> workers;
    for (int w = 0; w < kWorkers && st.ok(); ++w) {
      Result<hemlock::ExecResult> exec = Exec(world, image_, spans);
      if (exec.ok()) {
        workers.push_back(*exec);
      } else {
        st = exec.status();
      }
    }
    if (st.ok()) {
      st = Run(world.machine(), kCores, spans);
    }
    for (const hemlock::ExecResult& exec : workers) {
      hemlock::MetricsRegistry::Merge(&out.counters, exec.ldl->metrics().Snapshot());
    }
    hemlock::MetricsRegistry::Merge(&out.counters,
                                    Delta(world.machine().metrics().Snapshot(), before));
    out.counters["vm.ticks"] = world.machine().ticks() - ticks_before;
    if (st.ok()) {
      SpanLog::Scope check(&spans, "check");
      st = Check(world, workers, out.counters, &out.error);
    }
    if (!st.ok()) {
      out.error = st.ToString();
    }
    return out;
  }

 private:
  Status Check(hemlock::HemlockWorld& world, const std::vector<hemlock::ExecResult>& workers,
               const MetricsSnapshot& counters, std::string* error) {
    std::vector<bool> claimed(kWorkers, false);
    for (const hemlock::ExecResult& exec : workers) {
      ASSIGN_OR_RETURN(int code, ExitCodeOf(world.machine(), exec.pid));
      uint32_t me = static_cast<uint32_t>(code) >> 16;
      uint32_t end = static_cast<uint32_t>(code) & 0xFFFF;
      if (me >= kWorkers || claimed[me] || end != endpoints_[me]) {
        *error = StrFormat("worker exit %d: bad index or endpoint", code);
        return hemlock::OkStatus();
      }
      claimed[me] = true;
    }
    ASSIGN_OR_RETURN(uint32_t addr, workers.front().ldl->LookupRootSymbol("hist"));
    hemlock::Process* proc = world.machine().FindProcess(workers.front().pid);
    if (proc == nullptr) {
      return hemlock::Internal("first worker vanished");
    }
    std::vector<uint32_t> hist(kBuckets);
    RETURN_IF_ERROR(proc->space().ReadBytes(addr, reinterpret_cast<uint8_t*>(hist.data()),
                                            kBuckets * sizeof(uint32_t)));
    uint64_t total = 0;
    for (uint32_t b : hist) {
      total += b;
    }
    uint64_t want_total = uint64_t{kWorkers} * kRounds + (inputs_.wrong_expected ? 1 : 0);
    if (total != want_total || hist != expected_hist_) {
      *error = StrFormat("histogram total %llu, expected %llu",
                         static_cast<unsigned long long>(total),
                         static_cast<unsigned long long>(want_total));
    } else if (counters.count("vm.jit.compiled_blocks") == 0 ||
               counters.at("vm.jit.compiled_blocks") == 0) {
      *error = "the JIT compiled no block";
    }
    return hemlock::OkStatus();
  }

  Inputs inputs_;
  uint32_t endpoints_[kWorkers] = {};
  std::vector<uint32_t> expected_hist_;
  hemlock::LoadImage image_;
  std::vector<uint8_t> disk_;
};

}  // namespace

std::unique_ptr<Workload> MakeSharedCompute(const Inputs& inputs) {
  return std::make_unique<SharedCompute>(inputs);
}

}  // namespace e2ebench
