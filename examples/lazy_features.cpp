// Lazy linking and the "editor as a function library" vision (paper §2).
//
// "We envision, for example, rewriting the emacs editor with a functional interface
// to which every process with a text window can be linked. With lazy linking, we
// would not bother to bring the editor's more esoteric features into a particular
// process's address space unless and until they were needed."
//
// Here: an "editor" of 8 feature modules, each referencing a common core (so each is
// partially linked and mapped without access permissions). A client program links the
// whole feature surface but a given run calls only what it needs; watch which modules
// actually get linked.
//
// Run:  ./build/examples/lazy_features
#include <cstdio>

#include "src/base/strings.h"
#include "src/runtime/world.h"

using namespace hemlock;

namespace {
constexpr const char* kFeatures[] = {"insert",  "search",  "undo",    "spell",
                                     "mail",    "calendar", "tetris", "psychoanalyze"};
}

int main() {
  HemlockWorld world;
  (void)world.vfs().MkdirAll("/shm/editor");

  // The editor core, shared by every feature.
  CompileOptions core_opts;
  core_opts.include_prelude = false;
  if (!world.CompileTo("int core_dispatch(int op) { return op * 2 + 1; }",
                       "/shm/editor/core.o", core_opts)
           .ok()) {
    std::fprintf(stderr, "core compile failed\n");
    return 1;
  }
  // Eight feature modules; each carries an undefined reference to the core.
  int index = 0;
  for (const char* feature : kFeatures) {
    CompileOptions opts;
    opts.include_prelude = false;
    opts.module_list = {"core.o"};
    opts.search_path = {"/shm/editor"};
    std::string src = StrFormat(R"(
      extern int core_dispatch(int op);
      int feature_%s(void) { return core_dispatch(%d); }
    )",
                                feature, index++);
    if (!world.CompileTo(src, StrFormat("/shm/editor/%s.o", feature), opts).ok()) {
      std::fprintf(stderr, "feature compile failed\n");
      return 1;
    }
  }

  // The client links the entire feature surface but only edits a little text today.
  std::string client;
  for (const char* feature : kFeatures) {
    client += StrFormat("extern int feature_%s(void);\n", feature);
  }
  client += R"(
    int main(void) {
      putint(feature_insert());
      puts(" ");
      putint(feature_search());
      puts("\n");
      return 0;
    }
  )";
  if (!world.CompileTo(client, "/home/user/client.o").ok()) {
    std::fprintf(stderr, "client compile failed\n");
    return 1;
  }
  LdsOptions lds;
  lds.inputs.push_back({"client.o", ShareClass::kStaticPrivate});
  for (const char* feature : kFeatures) {
    lds.inputs.push_back({StrFormat("%s.o", feature), ShareClass::kDynamicPublic});
  }
  lds.lib_dirs = {"/shm/editor"};
  Result<LoadImage> image = world.Link(lds);
  if (!image.ok()) {
    std::fprintf(stderr, "link failed: %s\n", image.status().ToString().c_str());
    return ToolExitCode(image.status());
  }

  Result<ExecResult> run = world.Exec(*image);
  if (!run.ok()) {
    std::fprintf(stderr, "exec failed: %s\n", run.status().ToString().c_str());
    return ToolExitCode(run.status());
  }
  if (Result<int> st = world.RunToExit(run->pid); !st.ok()) {
    std::fprintf(stderr, "run failed: %s\n", st.status().ToString().c_str());
    return ToolExitCode(st.status());
  }
  std::printf("client output: %s",
              world.machine().FindProcess(run->pid)->stdout_text().c_str());

  const MetricsRegistry& ldl_metrics = run->ldl->metrics();
  std::printf("\nreachability graph: %zu modules known to ldl\n", run->ldl->ModuleCount());
  std::printf("feature modules actually *linked* this run (had their references "
              "resolved):\n");
  int linked = 0;
  for (const char* feature : kFeatures) {
    int idx = run->ldl->FindModuleIndex(StrFormat("/shm/editor/%s", feature));
    bool resolved = idx >= 0 && run->ldl->UnresolvedCountOf(idx) == 0;
    if (resolved) {
      std::printf("  %s\n", feature);
      ++linked;
    }
  }
  std::printf("%d of %zu features linked; %llu link faults; %llu relocations applied.\n",
              linked, std::size(kFeatures),
              static_cast<unsigned long long>(ldl_metrics.Get("ldl.link_faults")),
              static_cast<unsigned long long>(ldl_metrics.Get("ldl.relocs_applied")));
  std::printf("(tetris and psychoanalyze stay unlinked until someone needs them.)\n");
  return linked == 2 ? 0 : 1;
}
