// two_node — network-bound: `hemrun --connect` traffic. An in-process
// SegmentServer on 127.0.0.1 homes the partition (templates, a 64-page public
// table and a counter); one long-lived observer node stays connected. One op:
// a fresh node connects with a cold replica, execs a writer that reads every
// table page through demand FETCH, writes 4 seeded pages and the counter, and
// disconnects (twin-diff FLUSH, BYE). The observer then execs a reader whose
// sys_lockf on the table is the sync point that delivers the invalidations and
// re-fetches the dirty pages; the reader's checksum and counter are checked.
// HELLO/mount, FETCH batching, FLUSH and coherence dominate; guest work and
// ldl are small. Load: 2 connections, 2 threads (this one and the server's),
// both on one CPU that changes between ops (see BetweenOps).
#include <map>
#include <vector>

#include "e2ebench/harness.h"
#include "src/base/strings.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/sfs/shared_fs.h"

namespace e2ebench {
namespace {

using hemlock::StrFormat;

constexpr uint32_t kPages = 64;
constexpr uint32_t kPageWords = 1024;
constexpr uint32_t kTableWords = kPages * kPageWords;
constexpr uint32_t kPlan = 2048;     // seeded page choices, cycled by op index
constexpr uint32_t kWritten = 4;     // pages written per op
constexpr uint32_t kSlots = 16;      // words per page the writes rotate through
constexpr uint32_t kObserverOps = 128;  // ops served by one observer node
constexpr char kHost[] = "127.0.0.1";

// Writer: reads one word of every page (the word this op will overwrite) and
// returns their sum, then writes 4 planned pages and bumps the counter.
constexpr char kWriterSrc[] = R"(
extern int table[65536];
extern int counter;
extern int plan[2048];
int main(void) {
  int sum; int p; int op; int pages; int k;
  op = counter;
  sum = 0;
  for (p = 0; p < 64; p += 1) { sum = sum + table[p * 1024 + (op & 15)]; }
  pages = plan[op & 2047];
  for (k = 0; k < 4; k += 1) {
    p = (pages >> (k * 6)) & 63;
    table[p * 1024 + (op & 15)] = op * 4 + k + 1;
  }
  counter = op + 1;
  return sum;
}
)";

// Reader: locks the table (the sync point), checksums the words writers touch,
// and prints the checksum and the counter.
constexpr char kReaderSrc[] = R"(
extern int table[65536];
extern int counter;
int main(void) {
  int fd; int sum; int p; int w;
  fd = sys_open_by_addr(&table, 0);
  if (fd < 0) { return 1; }
  if (sys_lockf(fd, 1) != 0) { return 2; }
  sum = 0;
  for (p = 0; p < 64; p += 1) {
    for (w = 0; w < 16; w += 1) { sum = (sum * 31 + table[p * 1024 + w]) & 2147483647; }
  }
  putint(sum);
  puts(" ");
  putint(counter);
  puts("\n");
  sys_lockf(fd, 0);
  sys_close(fd);
  return 0;
}
)";

MetricsSnapshot ToSnapshot(const std::vector<std::pair<std::string, uint64_t>>& stats) {
  MetricsSnapshot out;
  for (const auto& [name, value] : stats) {
    out[name] = value;
  }
  return out;
}

class TwoNode : public Workload {
 public:
  explicit TwoNode(const Inputs& inputs) : inputs_(inputs) {}

  ~TwoNode() override {
    StopObserver();
    if (server_ != nullptr) {
      server_->Stop();
    }
  }

  Status Setup(SpanLog& spans) override {
    Rng rng(inputs_.seed);
    mirror_.resize(kTableWords);
    std::string table_src = "int table[65536] = {";
    for (uint32_t i = 0; i < kTableWords; ++i) {
      mirror_[i] = rng.Below(1u << 20);
      table_src += StrFormat("%s%u", i == 0 ? "" : ",", mirror_[i]);
    }
    table_src += "};\n";
    std::string counter_src = "int counter = 0;\nint plan[2048] = {";
    for (uint32_t i = 0; i < kPlan; ++i) {
      // kWritten distinct pages, 6 bits each.
      uint32_t packed = 0;
      std::vector<uint32_t> chosen;
      while (chosen.size() < kWritten) {
        uint32_t page = rng.Below(kPages);
        bool seen = false;
        for (uint32_t c : chosen) {
          seen = seen || c == page;
        }
        if (!seen) {
          packed |= page << (6 * chosen.size());
          chosen.push_back(page);
        }
      }
      plan_.push_back(packed);
      counter_src += StrFormat("%s%u", i == 0 ? "" : ",", packed);
    }
    counter_src += "};\n";

    // Build the partition in a local world; exec the reader once so ldl
    // creates the table and counter segments before the server owns them.
    hemlock::HemlockWorld world;
    hemlock::CompileOptions lib;
    lib.include_prelude = false;
    RETURN_IF_ERROR(Compile(world, table_src, "/shm/lib/table.o", lib, spans));
    RETURN_IF_ERROR(Compile(world, counter_src, "/shm/lib/counter.o", lib, spans));
    RETURN_IF_ERROR(Compile(world, kWriterSrc, "/home/user/writer.o", {}, spans));
    RETURN_IF_ERROR(Compile(world, kReaderSrc, "/home/user/reader.o", {}, spans));
    for (auto [prog, image] : {std::pair{"/home/user/writer.o", &writer_},
                               std::pair{"/home/user/reader.o", &reader_}}) {
      hemlock::LdsOptions lds;
      lds.inputs.push_back({prog, hemlock::ShareClass::kStaticPrivate});
      lds.inputs.push_back({"table.o", hemlock::ShareClass::kDynamicPublic});
      lds.inputs.push_back({"counter.o", hemlock::ShareClass::kDynamicPublic});
      lds.lib_dirs = {"/shm/lib"};
      ASSIGN_OR_RETURN(*image, Link(world, lds, spans));
    }
    ASSIGN_OR_RETURN(hemlock::ExecResult preload, Exec(world, reader_, spans));
    RETURN_IF_ERROR(Run(world.machine(), 1, spans));
    ASSIGN_OR_RETURN(int preload_code, ExitCodeOf(world.machine(), preload.pid));
    if (preload_code != 0) {
      return hemlock::Internal(StrFormat("preload reader exited %d", preload_code));
    }
    ASSIGN_OR_RETURN(std::vector<uint8_t> disk, Snapshot(world));
    hemlock::ByteReader r(disk);
    ASSIGN_OR_RETURN(std::unique_ptr<hemlock::SharedFs> fs, hemlock::SharedFs::Deserialize(&r));

    server_ = std::make_unique<hemlock::SegmentServer>(std::move(fs));
    RETURN_IF_ERROR(server_->Listen(kHost, 0));
    RETURN_IF_ERROR(server_->Start());
    return StartObserver();
  }

  OpOutcome RunOp(SpanLog& spans) override {
    OpOutcome out;
    uint32_t op = next_op_++;
    Status st = WriterNode(op, spans, &out);
    // The op's writes, applied to the mirror the checks compare against.
    uint32_t pages = plan_[op % kPlan];
    for (uint32_t k = 0; k < kWritten; ++k) {
      uint32_t page = (pages >> (6 * k)) & 63;
      mirror_[page * kPageWords + (op % kSlots)] = op * 4 + k + 1;
    }
    if (st.ok()) {
      st = ObserverRead(op, spans, &out);
    }
    if (!st.ok()) {
      out.error = st.ToString();
    }
    return out;
  }

  // Untimed: the op's server-side counters, read over the wire (the poll
  // thread owns them) after the op so the STATS request is not op traffic.
  // The server counts a request before it answers it, so the delta holds
  // this STATS request; it is taken out of net.server.rpcs.
  //
  // Every exec leaves a zombie in the observer's process table (no guest
  // parent reaps it), so a long run would grow without bound: replace the
  // observer every kObserverOps ops.
  //
  // The whole process, the server thread with it, then moves to the next CPU:
  // client and server always share one CPU. With the two on two vCPUs, p95
  // swung 2.5x from run to run. So this workload cannot show a gain from
  // overlapping client and server work.
  Status BetweenOps(OpOutcome* out) override {
    ASSIGN_OR_RETURN(auto stats, observer_client_->FetchServerStats());
    MetricsSnapshot server_now = ToSnapshot(stats);
    MetricsSnapshot delta = Delta(server_now, server_stats_);
    delta["net.server.rpcs"] -= 1;
    hemlock::MetricsRegistry::Merge(&out->counters, delta);
    server_stats_ = server_now;
    if (++observer_ops_ == kObserverOps) {
      RETURN_IF_ERROR(StartObserver());
    }
    return cpus_.Next();
  }

 private:
  void StopObserver() {
    if (observer_client_ != nullptr) {
      observer_client_->Disconnect();
    }
    observer_client_.reset();  // before the world it is wired into
    observer_.reset();
  }

  // Connects a fresh observer and warms its replica with one reader run, so
  // every timed op moves the same pages and its counters repeat exactly.
  Status StartObserver() {
    StopObserver();
    observer_ops_ = 0;
    observer_ = std::make_unique<hemlock::HemlockWorld>();
    observer_client_ = std::make_unique<hemlock::NetClient>();
    RETURN_IF_ERROR(observer_client_->Connect(kHost, server_->port(), &observer_->machine()));
    SpanLog quiet(false);
    ASSIGN_OR_RETURN(hemlock::ExecResult exec, Exec(*observer_, reader_, quiet));
    RETURN_IF_ERROR(Run(observer_->machine(), 1, quiet));
    hemlock::Process* proc = observer_->machine().FindProcess(exec.pid);
    if (proc == nullptr || proc->stdout_text() != ReaderOutput(next_op_)) {
      return hemlock::Internal("the observer's warm-up read saw the wrong table");
    }
    ASSIGN_OR_RETURN(auto stats, observer_client_->FetchServerStats());
    server_stats_ = ToSnapshot(stats);
    return hemlock::OkStatus();
  }

  // What the reader must print: the mirror's checksum and the counter.
  std::string ReaderOutput(uint32_t counter) const {
    uint32_t sum = 0;
    for (uint32_t p = 0; p < kPages; ++p) {
      for (uint32_t w = 0; w < kSlots; ++w) {
        sum = (sum * 31 + mirror_[p * kPageWords + w]) & 0x7FFFFFFFu;
      }
    }
    return StrFormat("%u %u\n", sum, counter);
  }

  // The fresh node: connect (cold replica), exec + run the writer, disconnect.
  Status WriterNode(uint32_t op, SpanLog& spans, OpOutcome* out) {
    hemlock::HemlockWorld node;
    hemlock::NetClient client;
    MetricsSnapshot before = node.machine().metrics().Snapshot();
    uint64_t ticks_before = node.machine().ticks();
    {
      SpanLog::Scope span(&spans, "net.connect");
      RETURN_IF_ERROR(client.Connect(kHost, server_->port(), &node.machine()));
    }
    ASSIGN_OR_RETURN(hemlock::ExecResult exec, Exec(node, writer_, spans));
    Status ran = Run(node.machine(), 1, spans);
    {
      SpanLog::Scope span(&spans, "net.disconnect");
      client.Disconnect();
    }
    hemlock::MetricsRegistry::Merge(&out->counters, exec.ldl->metrics().Snapshot());
    hemlock::MetricsRegistry::Merge(&out->counters,
                                    Delta(node.machine().metrics().Snapshot(), before));
    out->counters["vm.ticks"] += node.machine().ticks() - ticks_before;
    RETURN_IF_ERROR(ran);
    SpanLog::Scope check(&spans, "check");
    ASSIGN_OR_RETURN(int code, ExitCodeOf(node.machine(), exec.pid));
    uint32_t want = 0;
    for (uint32_t p = 0; p < kPages; ++p) {
      want += mirror_[p * kPageWords + (op % kSlots)];
    }
    if (code != static_cast<int>(want) || client.degraded()) {
      out->error = StrFormat("op %u: writer exited %d, expected %d%s", op, code,
                             static_cast<int>(want), client.degraded() ? " (degraded)" : "");
    }
    return hemlock::OkStatus();
  }

  // The observer: exec + run the reader, check it saw this op's writes.
  Status ObserverRead(uint32_t op, SpanLog& spans, OpOutcome* out) {
    hemlock::Machine& machine = observer_->machine();
    MetricsSnapshot before = machine.metrics().Snapshot();
    uint64_t ticks_before = machine.ticks();
    int pid = 0;
    std::shared_ptr<hemlock::Ldl> ldl;
    Status ran;
    {
      // One leaf span: the reader's exec and run are the observer's cost.
      SpanLog::Scope span(&spans, "net.observer_run");
      SpanLog quiet(false);
      Result<hemlock::ExecResult> exec = Exec(*observer_, reader_, quiet);
      RETURN_IF_ERROR(exec.status());
      pid = exec->pid;
      ldl = exec->ldl;
      ran = Run(machine, 1, quiet);
    }
    SpanLog::Scope check(&spans, "check");
    hemlock::MetricsRegistry::Merge(&out->counters, ldl->metrics().Snapshot());
    hemlock::MetricsRegistry::Merge(&out->counters, Delta(machine.metrics().Snapshot(), before));
    out->counters["vm.ticks"] += machine.ticks() - ticks_before;
    RETURN_IF_ERROR(ran);

    ASSIGN_OR_RETURN(int code, ExitCodeOf(machine, pid));
    hemlock::Process* proc = machine.FindProcess(pid);
    std::string want = ReaderOutput(op + 1 + (inputs_.wrong_expected ? 1 : 0));
    if (code != 0 || proc == nullptr || proc->stdout_text() != want ||
        observer_client_->degraded()) {
      out->error = StrFormat("op %u: reader exited %d, printed '%s', expected '%s'", op, code,
                             proc == nullptr ? "" : proc->stdout_text().c_str(), want.c_str());
    }
    return hemlock::OkStatus();
  }

  Inputs inputs_;
  CpuRotation cpus_;
  std::vector<uint32_t> mirror_;  // the table as the checks expect it
  std::vector<uint32_t> plan_;
  hemlock::LoadImage writer_;
  hemlock::LoadImage reader_;
  std::unique_ptr<hemlock::SegmentServer> server_;
  std::unique_ptr<hemlock::HemlockWorld> observer_;
  std::unique_ptr<hemlock::NetClient> observer_client_;
  uint32_t observer_ops_ = 0;
  MetricsSnapshot server_stats_;  // the server's stats after the last op
  uint32_t next_op_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeTwoNode(const Inputs& inputs) {
  return std::make_unique<TwoNode>(inputs);
}

}  // namespace e2ebench
