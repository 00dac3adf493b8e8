// The rwho re-implementation exactly as the paper did it (§4): rwhod and the lookup
// utilities are ordinary programs, and the database is a *dynamic public module* they
// all link — "we re-implemented rwhod to keep its database in shared memory, rather
// than in files, and modified the various lookup utilities to access this database
// directly."
//
// Everything here runs on the simulated machine: the database module, the daemon, and
// two utilities (rwho, ruptime) are HemC programs; the daemon populates the shared
// tables; the utilities — separately compiled, separately linked — read them in place.
//
// Run:  ./build/examples/rwho_sim
#include <cstdio>

#include "src/runtime/world.h"

using namespace hemlock;

namespace {

// The shared database: fixed-size host records plus update/lookup routines. This is
// the module ldl creates on first use; it persists after every program exits.
constexpr char kDbSrc[] = R"(
  int host_count = 0;
  int boot_time[64];
  int recv_time[64];
  int load_avg[64];
  int user_count[64];
  char hostnames[64][16];

  int db_find(char *name) {
    int i;
    for (i = 0; i < host_count; i = i + 1) {
      if (strcmp(&hostnames[i][0], name) == 0) { return i; }
    }
    return 0 - 1;
  }
  int db_update(char *name, int boot, int recv, int load, int users) {
    int i;
    i = db_find(name);
    if (i < 0) {
      if (host_count >= 64) { return 0 - 1; }
      i = host_count;
      host_count = host_count + 1;
      strcpy(&hostnames[i][0], name);
    }
    boot_time[i] = boot;
    recv_time[i] = recv;
    load_avg[i] = load;
    user_count[i] = users;
    return i;
  }
)";

// rwhod: "receives" a round of packets (deterministic feed) and updates the database
// in place — no files, no serialization.
constexpr char kRwhodSrc[] = R"(
  extern int db_update(char *name, int boot, int recv, int load, int users);
  int main(void) {
    int h;
    int seed;
    char name[16];
    char digits[4];
    seed = 12345;
    for (h = 0; h < 12; h = h + 1) {
      strcpy(name, "node");
      digits[0] = '0' + h / 10;
      digits[1] = '0' + h % 10;
      digits[2] = 0;
      strcpy(&name[4], digits);
      seed = seed * 1103515245 + 12345;
      db_update(name, 100 + h, sys_time(), (seed >> 16) & 511, (seed >> 8) & 7);
    }
    puts("rwhod: updated 12 hosts in the shared database\n");
    return 0;
  }
)";

// rwho: walks the shared tables directly.
constexpr char kRwhoSrc[] = R"(
  extern int host_count;
  extern int user_count[64];
  extern char hostnames[64][16];
  int main(void) {
    int i;
    int total;
    total = 0;
    for (i = 0; i < host_count; i = i + 1) {
      total = total + user_count[i];
    }
    puts("rwho: ");
    putint(host_count);
    puts(" hosts, ");
    putint(total);
    puts(" users logged in\n");
    return host_count;
  }
)";

// ruptime: a second, separately linked utility over the same module.
constexpr char kRuptimeSrc[] = R"(
  extern int host_count;
  extern int load_avg[64];
  extern char hostnames[64][16];
  int main(void) {
    int i;
    for (i = 0; i < host_count; i = i + 1) {
      if (i < 3) {
        puts(&hostnames[i][0]);
        puts("  up, load 0.");
        putint(load_avg[i] % 100);
        puts("\n");
      }
    }
    puts("... (");
    putint(host_count);
    puts(" hosts total)\n");
    return 0;
  }
)";

// Returns the guest's exit status (>= 0), or the negated structured tool exit
// code when the ldl/run boundary itself failed.
int RunAndShow(HemlockWorld& world, const LoadImage& image, const char* what) {
  Result<ExecResult> run = world.Exec(image);
  if (!run.ok()) {
    std::fprintf(stderr, "%s: exec failed: %s\n", what, run.status().ToString().c_str());
    return -ToolExitCode(run.status());
  }
  Result<int> status = world.RunToExit(run->pid);
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.status().ToString().c_str());
    return -ToolExitCode(status.status());
  }
  std::printf("%s", world.machine().FindProcess(run->pid)->stdout_text().c_str());
  return *status;
}

}  // namespace

int main() {
  HemlockWorld world;
  CompileOptions db_opts;
  db_opts.include_prelude = true;  // db uses strcmp/strcpy
  if (!world.vfs().MkdirAll("/shm/lib").ok() ||
      !world.CompileTo(kDbSrc, "/shm/lib/rwhodb.o", db_opts).ok() ||
      !world.CompileTo(kRwhodSrc, "/home/user/rwhod.o").ok() ||
      !world.CompileTo(kRwhoSrc, "/home/user/rwho.o").ok() ||
      !world.CompileTo(kRuptimeSrc, "/home/user/ruptime.o").ok()) {
    std::fprintf(stderr, "compile failed\n");
    return 1;
  }
  auto link = [&world](const char* tpl) {
    return world.Link({.inputs = {{tpl, ShareClass::kStaticPrivate},
                                  {"rwhodb.o", ShareClass::kDynamicPublic}}});
  };
  Result<LoadImage> rwhod = link("rwhod.o");
  Result<LoadImage> rwho = link("rwho.o");
  Result<LoadImage> ruptime = link("ruptime.o");
  if (!rwhod.ok() || !rwho.ok() || !ruptime.ok()) {
    const Status& st =
        !rwhod.ok() ? rwhod.status() : (!rwho.ok() ? rwho.status() : ruptime.status());
    std::fprintf(stderr, "link failed: %s\n", st.ToString().c_str());
    return ToolExitCode(st);
  }

  // The daemon runs (creating the shared database on first touch), then the
  // utilities — separate programs, separate processes — read it directly.
  if (int rc = RunAndShow(world, *rwhod, "rwhod"); rc != 0) {
    return rc < 0 ? -rc : 1;
  }
  int hosts = RunAndShow(world, *rwho, "rwho");
  if (hosts != 12) {
    std::fprintf(stderr, "rwho saw %d hosts, expected 12\n", hosts);
    return hosts < 0 ? -hosts : 1;
  }
  if (int rc = RunAndShow(world, *ruptime, "ruptime"); rc != 0) {
    return rc < 0 ? -rc : 1;
  }
  // A second daemon round refreshes in place; rwho still agrees.
  if (RunAndShow(world, *rwhod, "rwhod") != 0 ||
      RunAndShow(world, *rwho, "rwho") != 12) {
    return 1;
  }
  std::printf("rwho_sim OK (database: /shm/lib/rwhodb, %u faults delivered machine-wide)\n",
              static_cast<unsigned>(world.machine().metrics().Get("vm.faults_delivered")));
  return 0;
}
