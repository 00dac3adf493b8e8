// The end-to-end benchmark's harness: spans, per-op counter deltas, and the
// interface every workload implements. See README.md in this directory for the
// workloads, the metrics, and which layer each metric attributes.
#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/metrics.h"
#include "src/base/status.h"
#include "src/link/loader.h"
#include "src/runtime/world.h"

namespace e2ebench {

using hemlock::MetricsSnapshot;
using hemlock::Result;
using hemlock::Status;

// What the workload receives from the command line. |seed| alone drives every
// generated input; |wrong_expected| is the test hook that corrupts one expected
// value per op so the checks can be shown to fail.
struct Inputs {
  uint64_t seed = 1;
  bool wrong_expected = false;
};

// One span: a timed call into a layer's public function, made from the
// benchmark's own code. |parent| is -1 for a root (an op, or a set-up).
struct Span {
  int64_t id = 0;
  int64_t parent = -1;
  int64_t op = -1;  // -1 = set-up
  std::string name;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
};

// Spans kept in memory and written once, at exit, as Chrome trace-event JSON.
// Disabled logs record nothing, so the untraced run pays one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled)
      : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_op(int64_t op) { op_ = op; }
  const std::vector<Span>& spans() const { return spans_; }

  // Opens a child of the innermost open span; closed when the Scope dies.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;  // null when the log is disabled
    size_t index_ = 0;
  };

  // The spans as Chrome trace-event JSON (loads in Perfetto).
  std::string ChromeTraceJson() const;

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  int64_t op_ = -1;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices into spans_ of the open spans
};

// The outcome of one op. |error| is empty when every check passed; |counters|
// holds this op's deltas of every registry the op touched, merged by name.
struct OpOutcome {
  std::string error;
  MetricsSnapshot counters;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Everything before the first timed op: compile, lds, snapshot, server start.
  virtual Status Setup(SpanLog& spans) = 0;
  // One closed-loop op: the next op starts only after this returns.
  virtual OpOutcome RunOp(SpanLog& spans) = 0;
  // Untimed upkeep after an op: counted in a run's wall time, not in any op's
  // latency. It may still add to |out|'s counters what it reads about the op.
  virtual Status BetweenOps(OpOutcome* /*out*/) { return hemlock::OkStatus(); }
};

std::unique_ptr<Workload> MakeLazyStartup(const Inputs& inputs);
std::unique_ptr<Workload> MakeSharedCompute(const Inputs& inputs);
std::unique_ptr<Workload> MakeTwoNode(const Inputs& inputs);

// --- Helpers shared by the workloads: each wraps one public call in a span. ---

// Writes |contents| to the host file |path|.
Status WriteFile(const std::string& path, const std::string& contents);

// after - before, per name (names missing from |before| count from 0).
MetricsSnapshot Delta(const MetricsSnapshot& after, const MetricsSnapshot& before);

// HemlockWorld::CompileTo under a "lang.compile" span (lang.objects counts them).
Status Compile(hemlock::HemlockWorld& world, const std::string& source,
               const std::string& path, const hemlock::CompileOptions& options,
               SpanLog& spans);
// StaticLinker::Link under an "lds.link" span.
Result<hemlock::LoadImage> Link(hemlock::HemlockWorld& world,
                                const hemlock::LdsOptions& options, SpanLog& spans);
// SharedFs::Serialize of |world|'s partition: the "disk" later ops reboot from.
Result<std::vector<uint8_t>> Snapshot(hemlock::HemlockWorld& world);
// SharedFs::Deserialize + Machine::ReplaceSfs under an "sfs.boot" span.
Status Reboot(hemlock::HemlockWorld& world, const std::vector<uint8_t>& disk,
              SpanLog& spans);
// ExecuteImage under a "loader.exec" span.
Result<hemlock::ExecResult> Exec(hemlock::HemlockWorld& world,
                                 const hemlock::LoadImage& image, SpanLog& spans);
// Machine::RunScheduled under a "vm.run" span; anything but kExited is an error.
Status Run(hemlock::Machine& machine, int num_cores, SpanLog& spans);
// Exit status of a finished process, or an error when it did not exit.
Result<int> ExitCodeOf(hemlock::Machine& machine, int pid);

// Moves the whole process (every thread) to one CPU at a time, round robin
// over the CPUs it may use. On a shared VM each vCPU has slow spells of its
// own, seconds long (another tenant on its host core); a run that rotates its
// ops over every CPU sees their average instead of one CPU's luck. Pinning
// also keeps a client and its server thread on one CPU, so an RPC round trip
// is a same-CPU switch instead of a wake-up of an idle vCPU, which waits for
// the host to schedule it.
class CpuRotation {
 public:
  CpuRotation();
  size_t size() const { return cpus_.size(); }
  // Pins every thread of this process to the next CPU.
  Status Next();
  // Lets every thread run on all the CPUs it started with again.
  Status Release();

 private:
  Status PinEveryThread(const std::vector<int>& cpus);

  std::vector<int> cpus_;
  size_t next_ = 0;
};

// Splitmix64: the single source of every seeded choice.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint32_t Below(uint32_t n) { return static_cast<uint32_t>(Next() % n); }

 private:
  uint64_t state_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_HARNESS_H_
