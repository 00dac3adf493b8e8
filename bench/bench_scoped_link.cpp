// F2 (paper Figure 2: "Hierarchical Inclusion of Dynamically-Linked Modules" and §3
// "Scoped Linking").
//
// Linking a single module can start a chain reaction through a DAG of module lists;
// scoped resolution walks each module's own scope first, then its ancestors'. This
// bench regenerates two properties, and fails a row (SkipWithError) that breaks one:
//   * the cost of resolving a full DAG as depth and fanout grow (each internal module
//     references one symbol from each child). A unique_symbols row must link every
//     module of the tree and exit with the sum of all its leaves' values;
//   * conflict immunity: with scoped linking, sub-trees that export identically named
//     symbols still resolve to their own definitions, where a flat namespace binds
//     every reference to one of them. A duplicate_symbols row must exit with the
//     value scoped resolution gives: each parent's leaf_fn is its own first child.
#include <benchmark/benchmark.h>

#include <chrono>
#include <set>

#include "src/base/strings.h"
#include "src/runtime/world.h"

namespace hemlock {
namespace {

// Builds a complete tree of public modules: node (d, i) at depth d exports
// node_fn_<d>_<i> and calls every child's export. Leaves export a constant function.
// When |duplicate_leaves| is set, every leaf exports the *same* symbol name (leaf_fn),
// resolvable only through scoped linking.
struct TreeSpec {
  uint32_t depth = 2;
  uint32_t fanout = 2;
  bool duplicate_leaves = false;
};

void BuildTree(HemlockWorld* world, const TreeSpec& spec, uint32_t depth, uint32_t index,
               const std::string& dir) {
  (void)world->vfs().MkdirAll(dir);
  std::string name = StrFormat("node_%u_%u", depth, index);
  if (depth == spec.depth) {
    // Leaf.
    std::string fn = spec.duplicate_leaves ? "leaf_fn" : name + "_fn";
    CompileOptions opts;
    opts.include_prelude = false;
    std::string src = StrFormat("int %s(void) { return %u; }", fn.c_str(), index + 1);
    if (!world->CompileTo(src, dir + "/" + name + ".o", opts).ok()) {
      std::abort();
    }
    return;
  }
  // Internal node: children live in a per-node subdirectory (their own scope).
  std::string child_dir = dir + "/" + name + ".d";
  CompileOptions opts;
  opts.include_prelude = false;
  std::string src;
  std::string body;
  std::set<std::string> declared;
  for (uint32_t c = 0; c < spec.fanout; ++c) {
    uint32_t child_index = index * spec.fanout + c;
    std::string child_name = StrFormat("node_%u_%u", depth + 1, child_index);
    BuildTree(world, spec, depth + 1, child_index, child_dir);
    opts.module_list.push_back(child_name + ".o");
    std::string child_fn = (depth + 1 == spec.depth && spec.duplicate_leaves)
                               ? "leaf_fn"
                               : child_name + "_fn";
    // With duplicate leaf symbols every leaf exports the same name; declare each
    // distinct symbol once — scoped linking resolves it against this node's own
    // children.
    if (declared.insert(child_fn).second) {
      src += StrFormat("extern int %s(void);\n", child_fn.c_str());
    }
    body += StrFormat("  sum = sum + %s();\n", child_fn.c_str());
  }
  opts.search_path = {child_dir};
  src += StrFormat("int %s_fn(void) {\n  int sum;\n  sum = 0;\n%s  return sum;\n}\n",
                   name.c_str(), body.c_str());
  if (!world->CompileTo(src, dir + "/" + name + ".o", opts).ok()) {
    std::abort();
  }
}

void BM_ResolveDag(benchmark::State& state, bool duplicate_leaves) {
  TreeSpec spec;
  spec.depth = static_cast<uint32_t>(state.range(0));
  spec.fanout = static_cast<uint32_t>(state.range(1));
  spec.duplicate_leaves = duplicate_leaves;
  // The whole tree's module count, and what its root returns. Leaf i returns
  // i + 1: the root sums them all, or with duplicate names each parent p calls
  // its own first child, leaf p * f, once per child.
  const int f = static_cast<int>(spec.fanout);
  int leaves = 1;
  size_t tree_modules = 1;
  for (uint32_t d = 0; d < spec.depth; ++d) {
    leaves *= f;
    tree_modules += leaves;
  }
  int expected = leaves * (leaves + 1) / 2;
  if (duplicate_leaves) {
    expected = 0;
    for (int p = 0; p < leaves / f; ++p) expected += f * (p * f + 1);
  }

  // Fresh world per iteration: resolution of public modules persists in their files,
  // so first-run DAG resolution needs pristine modules each time (build untimed).
  size_t modules = 0;
  for (auto _ : state) {
    auto world = std::make_unique<HemlockWorld>();
    BuildTree(world.get(), spec, 0, 0, "/shm/tree");
    std::string prog = R"(
      extern int node_0_0_fn(void);
      int main(void) { return node_0_0_fn(); }
    )";
    if (!world->CompileTo(prog, "/home/user/prog.o").ok()) {
      state.SkipWithError("compile failed");
      return;
    }
    Result<LoadImage> image =
        world->Link({.inputs = {{"prog.o", ShareClass::kStaticPrivate},
                                {"node_0_0.o", ShareClass::kDynamicPublic}},
                     .lib_dirs = {"/shm/tree"}});
    if (!image.ok()) {
      state.SkipWithError(image.status().ToString().c_str());
      return;
    }
    auto t0 = std::chrono::steady_clock::now();
    Result<ExecResult> run = world->Exec(*image, ExecOptions{});
    if (!run.ok()) {
      state.SkipWithError(run.status().ToString().c_str());
      return;
    }
    Result<int> status = world->RunToExit(run->pid);
    auto t1 = std::chrono::steady_clock::now();
    if (!status.ok()) {
      state.SkipWithError(status.status().ToString().c_str());
      return;
    }
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    modules = run->ldl->ModuleCount();
    std::string error;
    if (*status != expected) {
      error = StrFormat("exit %d, scoped resolution gives %d", *status, expected);
    } else if (!duplicate_leaves && modules != tree_modules) {
      error = StrFormat("linked %zu of the tree's %zu modules", modules, tree_modules);
    }
    if (!error.empty()) {
      state.SkipWithError(error.c_str());
      return;
    }
  }
  state.counters["depth"] = spec.depth;
  state.counters["fanout"] = spec.fanout;
  state.counters["modules_linked"] = static_cast<double>(modules);
}

struct Registrar {
  Registrar() {
    for (auto [dup, name] :
         {std::pair{false, "unique_symbols"}, std::pair{true, "duplicate_symbols"}}) {
      auto* bench = benchmark::RegisterBenchmark(
          (std::string("ResolveDag/") + name).c_str(),
          [dup = dup](benchmark::State& s) { BM_ResolveDag(s, dup); });
      bench->UseManualTime();
      bench->Args({1, 2})->Args({2, 2})->Args({3, 2})->Args({4, 2});
      bench->Args({2, 1})->Args({2, 3})->Args({2, 4});
    }
  }
} registrar;

}  // namespace
}  // namespace hemlock
