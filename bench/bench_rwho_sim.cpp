// E1, simulated-machine variant (paper §4 "Administrative Files").
//
// bench_rwho measures the two database designs as host-side C++; this bench runs the
// *actual re-implementation the paper describes* — rwho as a program — on the
// simulated machine, so kernel-crossing costs are charged the way the paper's SGI
// charged them. The file-based rwho opens/reads/closes one file per host (3+ syscalls
// each); the Hemlock rwho walks the shared database with zero syscalls.
//
// Reported in simulated ticks (instructions + syscall/fault surcharges), the unit in
// which the paper's "saves a little over a second" would be measured, and in syscalls
// per query (the walk's only one is its exit). Both are deterministic, so
// tools/bench_compare.py gates them. Sweep includes the paper's 65 hosts.
#include <benchmark/benchmark.h>

#include "src/base/strings.h"
#include "src/runtime/world.h"

namespace hemlock {
namespace {

// Fixed-size binary per-host record, as rwhod's whod files were (a binary struct,
// not ASCII): hostname[16], boot, recv, load, users = 32 bytes.
constexpr char kSharedDbSrc[] = R"(
  int host_count = 0;
  int recv_time[256];
  int load_avg[256];
  int user_count[256];
  int db_set(int i, int recv, int load, int users) {
    recv_time[i] = recv;
    load_avg[i] = load;
    user_count[i] = users;
    if (i >= host_count) { host_count = i + 1; }
    return i;
  }
)";

// rwhod, file flavor: writes one 16-byte binary record file per host.
std::string FileRwhodSrc(uint32_t hosts) {
  return StrFormat(R"(
    int main(void) {
      int h;
      int fd;
      int rec[4];
      char path[32];
      char digits[4];
      for (h = 0; h < %u; h = h + 1) {
        strcpy(path, "/var/whod.");
        digits[0] = '0' + h / 100;
        digits[1] = '0' + (h / 10) %% 10;
        digits[2] = '0' + h %% 10;
        digits[3] = 0;
        strcpy(&path[10], digits);
        rec[0] = h;
        rec[1] = sys_time();
        rec[2] = (h * 37) %% 800;
        rec[3] = h %% 8;
        fd = sys_open(path, 0x242);
        sys_write(fd, rec, 16);
        sys_close(fd);
      }
      return 0;
    }
  )",
                   hosts);
}

// rwho, file flavor: opens and reads every per-host file (the original design).
std::string FileRwhoSrc(uint32_t hosts) {
  return StrFormat(R"(
    int main(void) {
      int h;
      int fd;
      int n;
      int users;
      int rec[4];
      char path[32];
      char digits[4];
      users = 0;
      for (h = 0; h < %u; h = h + 1) {
        strcpy(path, "/var/whod.");
        digits[0] = '0' + h / 100;
        digits[1] = '0' + (h / 10) %% 10;
        digits[2] = '0' + h %% 10;
        digits[3] = 0;
        strcpy(&path[10], digits);
        fd = sys_open(path, 0);
        n = sys_read(fd, rec, 16);
        sys_close(fd);
        users = users + rec[3];
      }
      return users & 127;
    }
  )",
                   hosts);
}

// rwhod, shared flavor: one in-place store per host, no files.
std::string ShmRwhodSrc(uint32_t hosts) {
  return StrFormat(R"(
    extern int db_set(int i, int recv, int load, int users);
    int main(void) {
      int h;
      for (h = 0; h < %u; h = h + 1) {
        db_set(h, sys_time(), (h * 37) %% 800, h %% 8);
      }
      return 0;
    }
  )",
                   hosts);
}

// rwho, shared flavor: a zero-syscall walk of the shared tables.
constexpr char kShmRwhoSrc[] = R"(
  extern int host_count;
  extern int user_count[256];
  int main(void) {
    int h;
    int users;
    users = 0;
    for (h = 0; h < host_count; h = h + 1) {
      users = users + user_count[h];
    }
    return users & 127;
  }
)";

// One run of a program: its simulated cost and its exit status.
struct SimRun {
  uint64_t ticks = 0;
  uint64_t syscalls = 0;
  int status = 0;
};

// Runs |image| once, measuring the ticks and syscalls of that run alone.
Result<SimRun> RunOnce(HemlockWorld& world, const LoadImage& image) {
  Machine& machine = world.machine();
  uint64_t ticks = machine.ticks();
  uint64_t syscalls = machine.metrics().Get("vm.syscalls");
  Result<ExecResult> run = world.Exec(image);
  if (!run.ok()) {
    return run.status();
  }
  Result<int> status = world.RunToExit(run->pid);
  if (!status.ok()) {
    return status.status();
  }
  return SimRun{machine.ticks() - ticks, machine.metrics().Get("vm.syscalls") - syscalls,
                *status};
}

// Both rwho flavours return the users summed over every host, mod 128; rwhod
// records h % 8 users for host h.
int ExpectedUsers(uint32_t hosts) {
  int users = 0;
  for (uint32_t h = 0; h < hosts; ++h) {
    users += static_cast<int>(h % 8);
  }
  return users & 127;
}

void BM_SimRwho(benchmark::State& state, bool shared) {
  uint32_t hosts = static_cast<uint32_t>(state.range(0));
  HemlockWorld world;
  (void)world.vfs().MkdirAll("/var");
  (void)world.vfs().MkdirAll("/shm/lib");
  CompileOptions db_opts;
  db_opts.include_prelude = false;
  if (!world.CompileTo(kSharedDbSrc, "/shm/lib/rwhodb.o", db_opts).ok()) {
    state.SkipWithError("db compile failed");
    return;
  }
  std::string rwhod_src = shared ? ShmRwhodSrc(hosts) : FileRwhodSrc(hosts);
  std::string rwho_src = shared ? std::string(kShmRwhoSrc) : FileRwhoSrc(hosts);
  if (!world.CompileTo(rwhod_src, "/home/user/rwhod.o").ok() ||
      !world.CompileTo(rwho_src, "/home/user/rwho.o").ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  auto link = [&](const char* tpl) {
    LdsOptions lds;
    lds.inputs.push_back({tpl, ShareClass::kStaticPrivate});
    if (shared) {
      lds.inputs.push_back({"rwhodb.o", ShareClass::kDynamicPublic});
    }
    return world.Link(lds);
  };
  Result<LoadImage> rwhod = link("rwhod.o");
  Result<LoadImage> rwho = link("rwho.o");
  if (!rwhod.ok() || !rwho.ok()) {
    state.SkipWithError("link failed");
    return;
  }
  // The daemon populates the database once (also creates the shared module).
  Result<SimRun> update = RunOnce(world, *rwhod);
  if (!update.ok()) {
    state.SkipWithError(update.status().ToString().c_str());
    return;
  }
  SimRun query;
  for (auto _ : state) {
    Result<SimRun> run = RunOnce(world, *rwho);
    if (!run.ok() || run->status != ExpectedUsers(hosts)) {
      state.SkipWithError(run.ok() ? "rwho returned the wrong user count"
                                   : run.status().ToString().c_str());
      return;
    }
    query = *run;
  }
  state.counters["hosts"] = hosts;
  state.counters["sim_query_ticks"] = static_cast<double>(query.ticks);
  state.counters["sim_update_ticks"] = static_cast<double>(update->ticks);
  state.counters["sim_query_syscalls"] = static_cast<double>(query.syscalls);
}

BENCHMARK_CAPTURE(BM_SimRwho, files, false)
    ->Name("SimRwho/files")->Arg(8)->Arg(32)->Arg(65)->Arg(128);
BENCHMARK_CAPTURE(BM_SimRwho, shared_memory, true)
    ->Name("SimRwho/shared_memory")->Arg(8)->Arg(32)->Arg(65)->Arg(128);

}  // namespace
}  // namespace hemlock
