// hemrun — compile, link, and run HemC programs from the shell.
//
// The whole Figure-1 pipeline as one command: host-file HemC sources go through cc,
// lds (with per-module sharing classes), the loader/ldl, and the simulated machine;
// program stdout and exit status come back. The simulated shared partition can be
// persisted to a host file so *separate hemrun invocations share segments* — the
// cross-application story, from the shell.
//
// Usage:
//   hemrun [options] <main.hc>
// Options:
//   --private <file.hc>        link as static private (more main-image code)
//   --public <file.hc>         compile to /shm/lib and link as dynamic public
//   --static-public <file.hc>  ... as static public
//   --dynamic-private <f.hc>   ... as dynamic private
//   --state <file>             load/save the shared partition from/to this host file
//   --connect HOST:PORT[,...]  mount the shared partition from a running hemserve
//                              instead of a local one (mutually exclusive with
//                              --state; the server owns persistence). Extra
//                              comma-separated addresses are failover targets:
//                              reconnects walk the list, so a warm standby
//                              takes over transparently
//   --net-retries <n>          RPC retry budget before the client degrades
//                              (default 4)
//   --net-timeout-ms <ms>      per-recv socket deadline (default 30000)
//   --net-backoff-ms <ms>      base of the exponential retry backoff (default 10)
//   --net-chaos <spec>         seeded chaos transport, e.g. "drop=7,dup=13:42"
//   --env K=V                  set an environment variable (e.g. LD_LIBRARY_PATH)
//   --eager                    eager ldl ablation (resolve everything at startup)
//   --manifest                 persist ldl resolutions to /shm/.ldl.manifest so a
//                              warm start on the same tree skips the scope walks
//   --no-manifest              explicitly disable the manifest (the default)
//   --emit <dir>               also write template .o files and a.out to <dir> (host)
//   --stats                    print ldl statistics after the run
//   --metrics                  print every counter (vm.*, sfs.*, ldl.*) after the run
//   --trace                    record and print the structured resolution trace
//   --faults SPEC[:SEED]       arm fault points (point=error|crash|delay[@N|@rN];...);
//                              an injected crash saves the (possibly torn) state and
//                              exits 42 — run `hemdump check` or just rerun to recover
//   --procs N                  run N copies of the program as scheduled processes
//   --quantum Q                preemption quantum in instructions (default 4096)
//   --cores N                  drive the scheduled run on N host worker threads
//                              (true SMP: per-core run queues with work stealing;
//                              1 = the reference single-threaded dispatch order)
//   --sched rr|random[:SEED]   scheduling policy: round-robin, or seeded-random
//                              ("chaos") interleaving for flushing out races
//   --race                     enable the shared-region race detector; reports go to
//                              stderr and any finding turns the exit code into 5
//   --race-sample N            check every Nth shared access per process (default 1)
//   --slow-interp              reference decode-every-step interpreter (differential
//                              runs; must behave identically to the fast path)
//   --jit / --no-jit           force the template-JIT tier on/off (default: on, via
//                              env HEMLOCK_JIT; all three engines must behave
//                              identically — the differential CI job diffs them)
//   --jit-threshold N          compile a block on its Nth dispatch (default 16)
//
// Any of --procs/--quantum/--cores/--sched/--race selects the scheduled
// (preemptive) run mode; without them a single process runs to completion
// uninterrupted.
//
// Exit codes:
//   0-41, 43+  the program's own exit status (process 1's, in scheduled mode)
//   1          toolchain or machine error (compile, link, exec)
//   2          usage / bad flags
//   3          deadlock: every process blocked with nothing left to wake them
//   4          step budget exhausted before the processes finished
//   5          the race detector found at least one unsynchronized access pair
//   6          hostile input: a corrupt or unsupported-version object, image, or
//              state file was rejected by a validating decoder
//   7          resource exhaustion: SFS inodes, the 1 MB file cap, or segment slots
//   8          host I/O error while reading or writing backing files
//   42         an injected fault crashed the run (state saved for recovery)
// Codes 6/7/8 are ToolExitCode(Status) (src/base/status.h), shared with hemdump.
//
// Example (two shells sharing a counter):
//   hemrun --state /tmp/shm.img --public counter.hc prog.hc   # prints 1
//   hemrun --state /tmp/shm.img --public counter.hc prog.hc   # prints 2
// Example (hunting a race under chaos scheduling):
//   hemrun --procs 2 --sched random:7 --race --public counter.hc racy.hc
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/base/faults.h"
#include "src/base/strings.h"
#include "src/link/search.h"
#include "src/net/chaos.h"
#include "src/net/client.h"
#include "src/obj/object_file.h"
#include "src/runtime/world.h"
#include "src/sfs/sfs_check.h"

using namespace hemlock;

namespace {

Result<std::string> ReadHostFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFound("cannot read " + path);
  }
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

Status WriteHostFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Internal("cannot write " + path);
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return OkStatus();
}

struct ModuleArg {
  std::string host_path;
  ShareClass cls;
};

std::string BaseNoExt(const std::string& host_path) {
  return StripExtension(PathBasename(host_path));
}

int Usage() {
  std::fprintf(stderr,
               "usage: hemrun [--state f | --connect host:port[,host:port...]]\n"
               "              [--net-retries n] [--net-timeout-ms n]\n"
               "              [--net-backoff-ms n] [--net-chaos spec]\n"
               "              [--env K=V] [--eager]\n"
               "              [--manifest|--no-manifest]\n"
               "              [--stats] [--metrics]\n"
               "              [--trace] [--emit dir] [--faults spec[:seed]]\n"
               "              [--procs n] [--quantum q] [--cores n]\n"
               "              [--sched rr|random[:seed]]\n"
               "              [--race] [--race-sample n] [--slow-interp]\n"
               "              [--jit|--no-jit] [--jit-threshold n]\n"
               "              [--private f.hc | --public f.hc | --static-public f.hc |\n"
               "               --dynamic-private f.hc]... <main.hc>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string main_src;
  std::vector<ModuleArg> modules;
  std::string state_path;
  std::string connect_spec;
  NetClientOptions net_options;
  std::string chaos_spec;
  std::string emit_dir;
  std::string fault_spec;
  std::map<std::string, std::string> env;
  bool eager = false;
  bool manifest = false;
  bool stats = false;
  bool metrics = false;
  bool trace = false;
  bool scheduled = false;
  bool race = false;
  bool slow_interp = false;
  int jit = -1;  // -1 default (on, unless env HEMLOCK_JIT=0), 0 off, 1 on
  uint32_t jit_threshold = 0;
  uint32_t race_sample = 1;
  long procs = 1;
  long cores = 1;
  uint64_t quantum = 0;
  std::string sched_spec;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--private" || arg == "--public" || arg == "--static-public" ||
        arg == "--dynamic-private") {
      const char* file = next();
      if (file == nullptr) {
        return Usage();
      }
      ShareClass cls = arg == "--private"        ? ShareClass::kStaticPrivate
                       : arg == "--public"       ? ShareClass::kDynamicPublic
                       : arg == "--static-public" ? ShareClass::kStaticPublic
                                                  : ShareClass::kDynamicPrivate;
      modules.push_back(ModuleArg{file, cls});
    } else if (arg == "--state") {
      const char* file = next();
      if (file == nullptr) {
        return Usage();
      }
      state_path = file;
    } else if (arg == "--connect") {
      const char* spec = next();
      if (spec == nullptr) {
        return Usage();
      }
      connect_spec = spec;
    } else if (arg == "--net-retries") {
      const char* n = next();
      if (n == nullptr) {
        return Usage();
      }
      net_options.retries = std::atoi(n);
      if (net_options.retries < 0) {
        return Usage();
      }
    } else if (arg == "--net-timeout-ms") {
      const char* n = next();
      if (n == nullptr || (net_options.timeout_ms = std::atoll(n)) < 1) {
        return Usage();
      }
    } else if (arg == "--net-backoff-ms") {
      const char* n = next();
      if (n == nullptr || (net_options.backoff_ms = std::atoll(n)) < 1) {
        return Usage();
      }
    } else if (arg == "--net-chaos") {
      const char* spec = next();
      if (spec == nullptr) {
        return Usage();
      }
      chaos_spec = spec;
    } else if (arg == "--emit") {
      const char* dir = next();
      if (dir == nullptr) {
        return Usage();
      }
      emit_dir = dir;
    } else if (arg == "--env") {
      const char* kv = next();
      if (kv == nullptr) {
        return Usage();
      }
      std::string pair = kv;
      size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        return Usage();
      }
      env[pair.substr(0, eq)] = pair.substr(eq + 1);
    } else if (arg == "--faults" || arg.rfind("--faults=", 0) == 0) {
      if (arg.size() > 8 && arg[8] == '=') {
        fault_spec = arg.substr(9);
      } else {
        const char* spec = next();
        if (spec == nullptr) {
          return Usage();
        }
        fault_spec = spec;
      }
    } else if (arg == "--procs") {
      const char* n = next();
      if (n == nullptr || (procs = std::strtol(n, nullptr, 10)) < 1 || procs > 1024) {
        return Usage();
      }
      scheduled = true;
    } else if (arg == "--quantum") {
      const char* q = next();
      if (q == nullptr || (quantum = std::strtoull(q, nullptr, 10)) == 0) {
        return Usage();
      }
      scheduled = true;
    } else if (arg == "--cores") {
      const char* n = next();
      if (n == nullptr || (cores = std::strtol(n, nullptr, 10)) < 1 || cores > 64) {
        return Usage();
      }
      scheduled = true;
    } else if (arg == "--sched") {
      const char* spec = next();
      if (spec == nullptr) {
        return Usage();
      }
      sched_spec = spec;
      scheduled = true;
    } else if (arg == "--race") {
      race = true;
      scheduled = true;
    } else if (arg == "--race-sample") {
      const char* n = next();
      if (n == nullptr || (race_sample = static_cast<uint32_t>(std::strtoul(n, nullptr, 10))) == 0) {
        return Usage();
      }
    } else if (arg == "--slow-interp") {
      slow_interp = true;
    } else if (arg == "--jit") {
      jit = 1;
    } else if (arg == "--no-jit") {
      jit = 0;
    } else if (arg == "--jit-threshold") {
      const char* n = next();
      if (n == nullptr ||
          (jit_threshold = static_cast<uint32_t>(std::strtoul(n, nullptr, 10))) == 0) {
        return Usage();
      }
    } else if (arg == "--eager") {
      eager = true;
    } else if (arg == "--manifest") {
      manifest = true;
    } else if (arg == "--no-manifest") {
      manifest = false;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else if (main_src.empty()) {
      main_src = arg;
    } else {
      return Usage();
    }
  }
  if (main_src.empty()) {
    return Usage();
  }
  if (!connect_spec.empty() && !state_path.empty()) {
    std::fprintf(stderr, "hemrun: --connect and --state are mutually exclusive "
                         "(the server owns persistence)\n");
    return 2;
  }

  if (!fault_spec.empty()) {
    // A trailing `:<digits>` is the seed for @rN ordinals.
    uint64_t seed = 0;
    size_t colon = fault_spec.rfind(':');
    if (colon != std::string::npos && colon + 1 < fault_spec.size() &&
        fault_spec.find_first_not_of("0123456789", colon + 1) == std::string::npos) {
      seed = std::strtoull(fault_spec.c_str() + colon + 1, nullptr, 10);
      fault_spec = fault_spec.substr(0, colon);
    }
    Status armed = FaultRegistry::Global().ArmFromSpec(fault_spec, seed);
    if (!armed.ok()) {
      std::fprintf(stderr, "hemrun: %s\n", armed.ToString().c_str());
      return 2;
    }
  }

  HemlockWorld world;
  if (slow_interp) {
    world.machine().set_slow_interp(true);
  }
  if (jit != -1) {
    world.machine().set_jit_enabled(jit == 1);
  }
  if (jit_threshold != 0) {
    world.machine().set_jit_threshold(jit_threshold);
  }

  // An injected crash mimics the process dying mid-operation: persist whatever the
  // shared partition looks like *right now* (serialization itself may be the armed
  // point, leaving a truncated image — exactly the artifact recovery must handle)
  // and exit with the distinguished crash status.
  auto crash_exit = [&](const Status& st) -> int {
    std::fprintf(stderr, "[hemrun] injected crash: %s\n", st.ToString().c_str());
    if (!state_path.empty()) {
      ByteWriter w;
      (void)world.sfs().Serialize(&w);
      Status save = WriteHostFile(state_path, w.buffer());
      if (!save.ok()) {
        std::fprintf(stderr, "hemrun: cannot save state: %s\n", save.ToString().c_str());
      }
    }
    return 42;
  };

  if (!chaos_spec.empty()) {
    Status chaos = ChaosEngine::Global().Configure(chaos_spec);
    if (!chaos.ok()) {
      std::fprintf(stderr, "hemrun: bad --net-chaos spec: %s\n", chaos.ToString().c_str());
      return 2;
    }
  }

  // Mount a remote partition instead of a local one. The client's destructor
  // flushes dirty pages and says Bye on every exit path below. Extra
  // comma-separated addresses are failover targets for reconnects.
  NetClient client;
  if (!connect_spec.empty()) {
    std::vector<std::pair<std::string, int>> addrs;
    size_t start = 0;
    while (start <= connect_spec.size()) {
      size_t comma = connect_spec.find(',', start);
      std::string one = connect_spec.substr(
          start, comma == std::string::npos ? std::string::npos : comma - start);
      size_t colon = one.rfind(':');
      long port = 0;
      if (colon == std::string::npos || colon == 0 ||
          (port = std::strtol(one.c_str() + colon + 1, nullptr, 10)) < 1 || port > 65535) {
        std::fprintf(stderr, "hemrun: --connect wants HOST:PORT[,HOST:PORT...], got '%s'\n",
                     connect_spec.c_str());
        return 2;
      }
      addrs.emplace_back(one.substr(0, colon), static_cast<int>(port));
      if (comma == std::string::npos) {
        break;
      }
      start = comma + 1;
    }
    client.set_options(net_options);
    Status attached = client.Connect(std::move(addrs), &world.machine());
    if (!attached.ok()) {
      std::fprintf(stderr, "hemrun: cannot attach %s: %s\n", connect_spec.c_str(),
                   attached.ToString().c_str());
      return ToolExitCode(attached);
    }
  }

  // Restore the shared partition from a previous invocation.
  if (!state_path.empty()) {
    std::ifstream in(state_path, std::ios::binary);
    if (in) {
      std::vector<uint8_t> disk((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
      ByteReader r(disk);
      // Salvage mode: a torn or corrupt image from a crashed run is repaired by the
      // fsck pass rather than rejected, so the next run always boots.
      SfsCheckReport report;
      Result<std::unique_ptr<SharedFs>> fs = SharedFs::Deserialize(&r, &report);
      if (!fs.ok()) {
        std::fprintf(stderr, "hemrun: bad state file: %s\n", fs.status().ToString().c_str());
        return ToolExitCode(fs.status());
      }
      if (!report.issues.empty()) {
        std::fprintf(stderr, "[hemrun] state file needed recovery (%zu issues):\n",
                     report.issues.size());
        for (const SfsCheckIssue& issue : report.issues) {
          std::fprintf(stderr, "[hemrun]   %s\n", issue.ToString().c_str());
        }
      }
      world.machine().ReplaceSfs(std::move(*fs));
    }
  }
  if (!world.vfs().Exists("/shm/lib")) {
    (void)world.vfs().MkdirAll("/shm/lib");
  }

  // Compile every module into the simulated world (+ optionally emit to host disk).
  LdsOptions lds;
  auto compile_one = [&](const std::string& host_path, const std::string& vfs_path,
                         bool prelude) -> Status {
    ASSIGN_OR_RETURN(std::string src, ReadHostFile(host_path));
    CompileOptions opts;
    opts.include_prelude = prelude;
    RETURN_IF_ERROR(world.CompileTo(src, vfs_path, opts));
    if (!emit_dir.empty()) {
      ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, world.vfs().ReadFile(vfs_path));
      RETURN_IF_ERROR(WriteHostFile(emit_dir + "/" + PathBasename(vfs_path), bytes));
    }
    return OkStatus();
  };

  // Non-crash failures map through the shared Status -> exit-code table (6 for
  // hostile input, 7 for exhaustion, 8 for host I/O, 1 otherwise).
  auto fail_exit = [](const std::string& what, const Status& st) -> int {
    std::fprintf(stderr, "hemrun: %s: %s\n", what.c_str(), st.ToString().c_str());
    return ToolExitCode(st);
  };

  Status st = compile_one(main_src, "/home/user/" + BaseNoExt(main_src) + ".o", true);
  if (!st.ok()) {
    if (IsCrash(st)) {
      return crash_exit(st);
    }
    return fail_exit(main_src, st);
  }
  lds.inputs.push_back({BaseNoExt(main_src) + ".o", ShareClass::kStaticPrivate});
  for (const ModuleArg& mod : modules) {
    std::string name = BaseNoExt(mod.host_path) + ".o";
    std::string vfs_path =
        IsPublic(mod.cls) ? "/shm/lib/" + name : "/home/user/" + name;
    // Public segments persist in the state file; their templates may already exist.
    // Reuse one only if it still parses — a template torn by a crashed run is
    // recompiled in place.
    bool reuse = false;
    if (world.vfs().Exists(vfs_path)) {
      Result<std::vector<uint8_t>> bytes = world.vfs().ReadFile(vfs_path);
      reuse = bytes.ok() && ObjectFile::Deserialize(*bytes).ok();
    }
    if (!reuse) {
      st = compile_one(mod.host_path, vfs_path, false);
      if (!st.ok()) {
        if (IsCrash(st)) {
          return crash_exit(st);
        }
        return fail_exit(mod.host_path, st);
      }
    }
    lds.inputs.push_back({name, mod.cls});
  }
  if (env.count(kLdLibraryPathVar) != 0) {
    lds.env_ld_library_path = env[kLdLibraryPathVar];
  }

  LdsReport report;
  Result<LoadImage> image = world.Link(lds, &report);
  if (!image.ok()) {
    if (IsCrash(image.status())) {
      return crash_exit(image.status());
    }
    return fail_exit("link failed", image.status());
  }
  for (const std::string& warning : report.warnings) {
    std::fprintf(stderr, "hemrun: %s\n", warning.c_str());
  }
  if (!emit_dir.empty()) {
    (void)WriteHostFile(emit_dir + "/a.out", image->Serialize());
  }

  ExecOptions exec;
  exec.env = env;
  exec.ldl.lazy = !eager;
  exec.ldl.use_manifest = manifest;
  if (trace) {
    world.machine().trace().set_enabled(true);
  }
  SchedParams sched;
  if (!sched_spec.empty()) {
    Result<SchedParams> parsed = ParseSchedSpec(sched_spec);
    if (!parsed.ok()) {
      std::fprintf(stderr, "hemrun: %s\n", parsed.status().ToString().c_str());
      return 2;
    }
    sched = *parsed;
  }
  if (quantum != 0) {
    sched.quantum = quantum;
  }
  sched.num_cores = static_cast<int>(cores);
  if (race) {
    RaceOptions ropts;
    ropts.sample_period = race_sample;
    world.machine().EnableRaceDetector(ropts);
  }
  if (scheduled) {
    InstallSpawnHandler(world.machine(), exec);
  }

  Result<ExecResult> run = world.Exec(*image, exec);
  if (!run.ok()) {
    if (IsCrash(run.status())) {
      return crash_exit(run.status());
    }
    return fail_exit("exec failed", run.status());
  }

  int program_status = 0;
  int run_exit = 0;  // nonzero: a scheduled-mode outcome that trumps program status
  if (scheduled) {
    std::vector<int> pids = {run->pid};
    for (long p = 1; p < procs; ++p) {
      Result<ExecResult> extra = world.Exec(*image, exec);
      if (!extra.ok()) {
        if (IsCrash(extra.status())) {
          return crash_exit(extra.status());
        }
        return fail_exit("exec failed", extra.status());
      }
      pids.push_back(extra->pid);
    }
    SchedStatus outcome = world.machine().RunScheduled(sched, 200'000'000);
    for (int pid : pids) {
      Process* proc = world.machine().FindProcess(pid);
      if (proc != nullptr) {
        std::fputs(proc->stdout_text().c_str(), stdout);
      }
    }
    if (outcome == SchedStatus::kDeadlock) {
      std::fprintf(stderr, "hemrun: deadlock — all processes blocked\n");
      run_exit = 3;
    } else if (outcome != SchedStatus::kExited) {
      std::fprintf(stderr, "hemrun: step budget exhausted\n");
      run_exit = 4;
    }
    Process* first = world.machine().FindProcess(run->pid);
    program_status = first != nullptr ? first->exit_status() : 0;
  } else {
    Result<int> status = world.RunToExit(run->pid);
    if (!status.ok()) {
      if (IsCrash(status.status())) {
        return crash_exit(status.status());
      }
      return fail_exit("run failed", status.status());
    }
    program_status = *status;
    std::fputs(world.machine().FindProcess(run->pid)->stdout_text().c_str(), stdout);
  }

  if (race) {
    const RaceDetector* detector = world.machine().race();
    for (const RaceReport& r : detector->reports()) {
      std::fprintf(stderr, "[race] %s\n", r.ToString().c_str());
    }
    if (detector->HasRaces() && run_exit == 0) {
      run_exit = 5;
    }
  }

  if (stats) {
    auto row = [](const MetricsRegistry& m, const char* name) {
      return static_cast<unsigned long long>(m.Get(name));
    };
    const MetricsRegistry& ldl = run->ldl->metrics();
    std::fprintf(stderr,
                 "[hemrun] lds: %u modules, %u trampolines, %u pending; "
                 "ldl: %llu located, %llu created, %llu attached, %llu link faults, "
                 "%llu map faults, %llu relocs applied\n",
                 report.modules_linked, report.trampolines, report.pending_relocs,
                 row(ldl, "ldl.modules_located"), row(ldl, "ldl.publics_created"),
                 row(ldl, "ldl.publics_attached"), row(ldl, "ldl.link_faults"),
                 row(ldl, "ldl.map_faults"), row(ldl, "ldl.relocs_applied"));
    if (manifest) {
      std::fprintf(stderr,
                   "[hemrun] manifest: %llu hits, %llu misses, %llu rebuilds, %llu rejected\n",
                   row(ldl, "ldl.manifest.hits"), row(ldl, "ldl.manifest.misses"),
                   row(ldl, "ldl.manifest.rebuilds"), row(ldl, "ldl.manifest.rejected"));
    }
    // Resource-pressure counters: a run that brushed the partition's limits shows
    // it here even when every individual syscall recovered.
    const MetricsRegistry& vm = world.machine().metrics();
    std::fprintf(stderr, "[hemrun] sfs: %llu enospc, %llu inode_exhausted\n",
                 row(vm, "sfs.enospc"), row(vm, "sfs.inode_exhausted"));
    std::fprintf(stderr,
                 "[hemrun] jit: %llu compiled, %llu chained, %llu deopts, "
                 "%llu bailouts, %llu arena bytes\n",
                 row(vm, "vm.jit.compiled_blocks"), row(vm, "vm.jit.chained"),
                 row(vm, "vm.jit.deopts"), row(vm, "vm.jit.bailouts"),
                 row(vm, "vm.jit.arena_bytes"));
  }
  if (metrics) {
    MetricsSnapshot merged = world.machine().metrics().Snapshot();
    MetricsRegistry::Merge(&merged, run->ldl->metrics().Snapshot());
    if (client.connected()) {
      Result<std::vector<std::pair<std::string, uint64_t>>> remote = client.FetchServerStats();
      if (remote.ok()) {
        for (const auto& [name, value] : *remote) {
          merged["server:" + name] += value;
        }
      }
    }
    for (const auto& [name, value] : merged) {
      std::fprintf(stderr, "[hemrun] %-28s %llu\n", name.c_str(),
                   static_cast<unsigned long long>(value));
    }
  }
  if (trace) {
    const TraceBuffer& ring = world.machine().trace();
    for (const TraceEvent& ev : ring.Snapshot()) {
      std::fprintf(stderr, "[trace] %s\n", ev.ToString().c_str());
    }
    if (ring.dropped() > 0) {
      std::fprintf(stderr, "[trace] (%llu earlier events dropped; ring capacity %zu)\n",
                   static_cast<unsigned long long>(ring.dropped()), ring.capacity());
    }
  }

  // Persist the shared partition for the next invocation.
  if (!state_path.empty()) {
    ByteWriter w;
    Status ser = world.sfs().Serialize(&w);
    if (!ser.ok() && !IsCrash(ser)) {
      std::fprintf(stderr, "hemrun: cannot serialize state: %s\n", ser.ToString().c_str());
      return 1;
    }
    // On an injected serialize crash the buffer holds a truncated prefix; write it
    // anyway — that torn image is what the next boot's salvage path must repair.
    Status save = WriteHostFile(state_path, w.buffer());
    if (!save.ok()) {
      std::fprintf(stderr, "hemrun: cannot save state: %s\n", save.ToString().c_str());
      return ToolExitCode(save);
    }
    if (IsCrash(ser)) {
      std::fprintf(stderr, "[hemrun] injected crash: %s\n", ser.ToString().c_str());
      return 42;
    }
  }
  return run_exit != 0 ? run_exit : program_status;
}
