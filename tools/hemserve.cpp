// hemserve — the segment-coherence server for distributed shared segments.
//
// Owns the authoritative shared partition and serves it to `hemrun --connect`
// clients over the length-prefixed HEMN wire protocol: mount snapshots, page
// fetches, dirty-page flushes, and creation locks as wire leases (see
// docs/DISTRIBUTED.md).
//
// Usage:
//   hemserve [--host A.B.C.D] [--port N] [--state f] [--journal f] [--standby]
//            [--faults spec] [--seed n]
//
//   --host                     IPv4 address to bind (default 127.0.0.1)
//   --port                     TCP port; 0 (the default) picks an ephemeral port
//   --state <file>             load/save the shared partition from/to this host file
//   --journal <file>           append every effectful request here; on restart the
//                              journal tail is replayed on top of --state, so a
//                              SIGKILLed server comes back with its exact pre-kill
//                              state (sessions, resume tokens, leases included)
//   --standby                  tail --journal read-only and promote to primary on
//                              the first incoming connection (warm failover)
//   --checkpoint-every <n>     auto-checkpoint (--state + journal rewrite) after
//                              every n journal records (0 = only at shutdown)
//   --resume-grace-ms <ms>     how long a cut session stays resumable before its
//                              leases are reclaimed (default 10000)
//   --recv-timeout-ms <ms>     per-socket recv deadline (default 10000; was a
//                              hardcoded 10 s before this flag existed)
//   --faults <spec>            arm fault injection, same spec language as hemrun
//   --net-chaos <spec>         seeded chaos transport, e.g. "drop=7,dup=13:42"
//   --seed <n>                 RNG seed for probabilistic fault modes
//   --stats-every <n>          print the metrics snapshot every n poll rounds
//
// The chosen port is announced on stdout as "hemserve: listening on HOST:PORT"
// (and flushed) so scripts driving an ephemeral port can scrape it. SIGINT or
// SIGTERM drains the loop, saves --state (a full checkpoint in journal mode),
// and exits 0.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <cstdlib>

#include "src/base/bytes.h"
#include "src/base/faults.h"
#include "src/base/status.h"
#include "src/net/chaos.h"
#include "src/net/server.h"
#include "src/sfs/sfs_check.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int) { g_stop = 1; }

hemlock::Status WriteHostFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return hemlock::IoError("cannot open for writing: " + path);
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    return hemlock::IoError("short write: " + path);
  }
  return hemlock::OkStatus();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hemlock;

  std::string host = "127.0.0.1";
  int port = 0;
  std::string state_path;
  std::string journal_path;
  bool standby = false;
  uint64_t checkpoint_every = 0;
  int64_t resume_grace_ms = 10'000;
  int64_t recv_timeout_ms = 10'000;
  std::string fault_spec;
  std::string chaos_spec;
  uint64_t seed = 0;
  uint64_t stats_every = 0;

  std::vector<std::string> args(argv + 1, argv + argc);
  auto next = [&](size_t& i, const char* flag) -> std::string {
    if (i + 1 >= args.size()) {
      std::fprintf(stderr, "hemserve: %s needs a value\n", flag);
      std::exit(2);
    }
    return args[++i];
  };
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--host") {
      host = next(i, "--host");
    } else if (arg == "--port") {
      port = std::atoi(next(i, "--port").c_str());
    } else if (arg == "--state") {
      state_path = next(i, "--state");
    } else if (arg == "--journal") {
      journal_path = next(i, "--journal");
    } else if (arg == "--standby") {
      standby = true;
    } else if (arg == "--checkpoint-every") {
      checkpoint_every = std::strtoull(next(i, "--checkpoint-every").c_str(), nullptr, 10);
    } else if (arg == "--resume-grace-ms") {
      resume_grace_ms = std::atoll(next(i, "--resume-grace-ms").c_str());
    } else if (arg == "--recv-timeout-ms") {
      recv_timeout_ms = std::atoll(next(i, "--recv-timeout-ms").c_str());
    } else if (arg == "--faults") {
      fault_spec = next(i, "--faults");
    } else if (arg == "--net-chaos") {
      chaos_spec = next(i, "--net-chaos");
    } else if (arg == "--seed") {
      seed = std::strtoull(next(i, "--seed").c_str(), nullptr, 10);
    } else if (arg == "--stats-every") {
      stats_every = std::strtoull(next(i, "--stats-every").c_str(), nullptr, 10);
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: hemserve [--host A.B.C.D] [--port n] [--state f]\n"
                   "                [--journal f] [--standby] [--checkpoint-every n]\n"
                   "                [--resume-grace-ms n] [--recv-timeout-ms n]\n"
                   "                [--faults spec] [--net-chaos spec] [--seed n]\n"
                   "                [--stats-every n]\n");
      return 2;
    } else {
      std::fprintf(stderr, "hemserve: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  if (!fault_spec.empty()) {
    Status armed = FaultRegistry::Global().ArmFromSpec(fault_spec, seed);
    if (!armed.ok()) {
      std::fprintf(stderr, "hemserve: bad --faults spec: %s\n", armed.ToString().c_str());
      return 2;
    }
  }
  if (!chaos_spec.empty()) {
    Status chaos = ChaosEngine::Global().Configure(chaos_spec);
    if (!chaos.ok()) {
      std::fprintf(stderr, "hemserve: bad --net-chaos spec: %s\n", chaos.ToString().c_str());
      return 2;
    }
  }
  if (standby && journal_path.empty()) {
    std::fprintf(stderr, "hemserve: --standby needs --journal to tail\n");
    return 2;
  }
  if (!journal_path.empty() && state_path.empty()) {
    // The journal's checkpoints rewrite it against the --state image; without
    // one, a rewrite would silently discard history.
    std::fprintf(stderr, "hemserve: --journal needs --state for its checkpoints\n");
    return 2;
  }

  // Restore the authoritative partition from a previous run; salvage mode means
  // a torn image from a crashed server boots anyway, repaired by fsck.
  std::unique_ptr<SharedFs> fs;
  if (!state_path.empty()) {
    std::ifstream in(state_path, std::ios::binary);
    if (in) {
      std::vector<uint8_t> disk((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
      ByteReader r(disk);
      SfsCheckReport report;
      Result<std::unique_ptr<SharedFs>> loaded = SharedFs::Deserialize(&r, &report);
      if (!loaded.ok()) {
        std::fprintf(stderr, "hemserve: bad state file: %s\n",
                     loaded.status().ToString().c_str());
        return ToolExitCode(loaded.status());
      }
      if (!report.issues.empty()) {
        std::fprintf(stderr, "[hemserve] state file needed recovery (%zu issues)\n",
                     report.issues.size());
      }
      fs = std::move(*loaded);
    }
  }

  SegmentServerOptions options;
  options.recv_timeout_ms = recv_timeout_ms;
  options.resume_grace_ms = resume_grace_ms;
  options.state_path = state_path;
  options.journal_path = journal_path;
  options.checkpoint_every = checkpoint_every;
  options.standby = standby;
  SegmentServer server(std::move(fs), options);
  if (!journal_path.empty()) {
    Status attached = server.AttachJournal();
    if (!attached.ok()) {
      std::fprintf(stderr, "hemserve: cannot attach journal: %s\n",
                   attached.ToString().c_str());
      return ToolExitCode(attached);
    }
  }
  Status listening = server.Listen(host, port);
  if (!listening.ok()) {
    std::fprintf(stderr, "hemserve: %s\n", listening.ToString().c_str());
    return ToolExitCode(listening);
  }
  std::printf("hemserve: listening on %s:%d\n", host.c_str(), server.port());
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  uint64_t rounds = 0;
  while (g_stop == 0) {
    Status polled = server.PollOnce(100);
    if (!polled.ok()) {
      std::fprintf(stderr, "hemserve: poll: %s\n", polled.ToString().c_str());
      break;
    }
    if (stats_every != 0 && ++rounds % stats_every == 0) {
      for (const auto& [name, value] : server.metrics().Snapshot()) {
        std::fprintf(stderr, "[hemserve] %s = %llu\n", name.c_str(),
                     static_cast<unsigned long long>(value));
      }
    }
  }

  if (!journal_path.empty()) {
    // Journal mode: state + journal rewrite move together (Checkpoint), so the
    // next boot never replays records the image already contains. A crash-fault
    // exit skips the save on purpose — the journal already holds everything,
    // which is exactly what the restart leg of the chaos CI exercises.
    ByteWriter probe;
    Status ser = server.sfs().Serialize(&probe);
    if (IsCrash(ser)) {
      return 42;
    }
    // A never-promoted standby owns neither the journal nor the image: exit.
    if (!server.standby()) {
      Status saved = server.Checkpoint();
      if (!saved.ok()) {
        std::fprintf(stderr, "hemserve: cannot checkpoint: %s\n", saved.ToString().c_str());
        return ToolExitCode(saved);
      }
    }
  } else if (!state_path.empty()) {
    ByteWriter w;
    Status ser = server.sfs().Serialize(&w);
    if (!ser.ok() && !IsCrash(ser)) {
      std::fprintf(stderr, "hemserve: cannot serialize state: %s\n", ser.ToString().c_str());
      return 1;
    }
    Status save = WriteHostFile(state_path, w.buffer());
    if (!save.ok()) {
      std::fprintf(stderr, "hemserve: cannot save state: %s\n", save.ToString().c_str());
      return ToolExitCode(save);
    }
    if (IsCrash(ser)) {
      return 42;
    }
  }
  return 0;
}
