// ldl — the Hemlock lazy dynamic linker (paper §2-§3).
//
// One Ldl instance serves a process tree (the state it keeps is either per-address
// (identical in parent and child after fork) or shared-by-design for public modules;
// per-process facts such as "are this module's pages accessible yet" are derived from
// the process's own page protections, so a forked child lazily re-links on its own
// faults).
//
// Duties, in paper order:
//   * locates dynamic modules with the run-time search strategy (current
//     LD_LIBRARY_PATH first, then the directories lds searched);
//   * creates a new instance of each dynamic *private* module, and of each dynamic
//     *public* module that does not yet exist (file creation under an advisory lock —
//     fn. 3: "Ldl uses file locking to synchronize the creation of shared segments");
//   * maps static public modules and all dynamic modules into the address space; a
//     module that still contains undefined references is mapped *without access
//     permissions* so its first touch faults;
//   * resolves undefined references from the main load image to objects in dynamic
//     modules — even though nothing about those symbols was known at static link time;
//   * on a lazy-link fault, resolves the references in (all pages of) the touched
//     module, mapping in — possibly inaccessibly — any new modules that are needed
//     (the recursive "reachability graph");
//   * scoped linking: a module's references resolve first against the modules on its
//     own module list / search path, then its parent's, its grandparent's, and so on
//     to the root; references undefined at the root stay unresolved and fault at use.
//
// Resolution fast path: every module carries a hashed export index, the root scope
// keeps an incremental first-wins symbol index, and each module memoizes its scoped
// lookups (positive results are stable because exports are fixed at registration;
// negative results are invalidated whenever a new module is registered and at each
// fault, preserving the paper's retry-on-later-fault semantics). Every resolution
// decision is counted in the linker's MetricsRegistry and, when enabled, recorded in
// the machine's TraceBuffer.
#ifndef SRC_LINK_LDL_H_
#define SRC_LINK_LDL_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/base/metrics.h"
#include "src/base/status.h"
#include "src/base/trace.h"
#include "src/link/image.h"
#include "src/link/manifest.h"
#include "src/vm/machine.h"

namespace hemlock {

// Ablation switches (DESIGN.md E5).
struct LdlOptions {
  // Paper behaviour: map partially linked modules inaccessible and resolve on first
  // touch. false = resolve everything transitively at startup (eager).
  bool lazy = true;
  // The SunOS jump-table optimization the paper planned to adopt ("modules first
  // accessed by calling a (named) function will be linked without fault-handling
  // overhead" — §3): partially linked modules are mapped *accessible*; their far-call
  // trampolines initially aim at per-symbol sentinel addresses, and the first call
  // resolves just that function and patches the trampoline. Data references are
  // resolved at map time (the SunOS scheme "works only for functions" laziness-wise,
  // exactly as the paper notes).
  bool function_lazy = false;
  // Stable linking (docs/STABLE_LINKING.md): maintain a persistent resolution
  // manifest on the shared partition. Warm starts whose image and module contents
  // all verify against the manifest install the recorded resolutions directly and
  // skip scope walks entirely; any mismatch falls back to scoped resolution and
  // the manifest is rebuilt. Off by default (opt in via hemrun --manifest).
  bool use_manifest = false;
};

class Ldl {
 public:
  Ldl(Machine* machine, LoadImage image, LdlOptions options);

  // Runs the start-up duties for |proc| (called by the loader before entry).
  Status Startup(Process& proc);

  // The fault-handler entry point: returns true if the fault was resolved and the
  // instruction should be retried. When resolution runs into a public segment that
  // a *live* process is still creating, the faulting process is parked on the
  // segment's address (Machine::BlockProcessOnAddr) and true is returned — the
  // retried instruction finds the finished segment after the creator's unlock, and
  // the waiter attaches instead of rebuilding.
  bool HandleFault(Machine& machine, Process& proc, const Fault& fault);

  // Explicitly resolves a module by name in |proc| (eager ablation / tests).
  Status ResolveAll(Process& proc);

  // This linker's counters ("ldl.*"). Per-process by construction: every Exec makes a
  // fresh Ldl, so its registry starts at zero.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  const LoadImage& image() const { return image_; }

  // Looks up a symbol the way the *root* scope sees it (main image + root modules).
  Result<uint32_t> LookupRootSymbol(const std::string& name);

  // Number of modules currently known to the linker (mapped or registered).
  size_t ModuleCount() const { return modules_.size(); }
  // Introspection for tests: index of a module by its identity key, -1 if unknown.
  int FindModuleIndex(const std::string& key) const;
  // Pending (still unresolved) reference count of module |index|.
  uint32_t UnresolvedCountOf(int index) const;

 private:
  struct RtModule {
    std::string key;   // identity: module-file path (public) / template path (private)
    std::string name;  // diagnostic name
    ShareClass cls = ShareClass::kDynamicPublic;
    uint32_t base = 0;
    uint32_t mem_size = 0;
    uint32_t text_size = 0;
    uint32_t data_size = 0;
    uint32_t bss_size = 0;
    uint32_t ino = 0;  // public modules: backing inode
    // Content identity for the resolution manifest: the template_hash stamped by
    // LinkModuleAtBase (0 for modules from pre-hash HML files — never recorded).
    uint64_t src_hash = 0;
    int parent = -1;   // scoped-linking parent (-1 = root)
    std::vector<std::string> module_list;
    std::vector<std::string> search_path;
    // All external references, kept (not drained) so resolution is idempotent and can
    // be re-applied in a forked child's address space.
    std::vector<PendingReloc> relocs;
    // Length of the pending list in the module file's trailer (public modules):
    // UpdatePublicTrailer rewrites the trailer only when resolution shrank it.
    uint32_t disk_pending = 0;
    std::vector<AbsSymbol> exports;
    // Hashed export index (first definition wins, matching the linear-scan order the
    // exports vector used to be searched in).
    std::unordered_map<std::string, uint32_t> export_index;
    // Resolution decisions: symbol -> absolute address (shared across processes —
    // public resolutions are shared memory anyway; private modules resolve to the
    // same addresses in parent and child by construction).
    std::map<std::string, uint32_t> resolved;
    std::set<std::string> unresolved;  // failed lookups, retried on later faults
    // Memoized scoped-lookup results for references *out of* this module. Positive
    // entries are stable (exports never change after registration); negative entries
    // are cleared on every module registration and at each fault.
    std::unordered_map<std::string, uint32_t> scope_cache;
    std::unordered_set<std::string> scope_negative;
    // Negative knowledge carried over from the manifest: symbols recorded absent
    // at the last run's teardown. Unlike scope_negative these survive
    // InvalidateNegativeCaches — the verified module set is identical to the
    // recording run's, so a symbol absent then is absent now (hits are counted
    // in ldl.manifest.negative_hits).
    std::unordered_set<std::string> manifest_negative;
    // Located module-list dependencies (name -> module index; -1 memoizes a locate
    // failure). Negative entries are dropped by InvalidateNegativeCaches (every
    // registration and every fault) so later-registered modules get found —
    // positive entries are stable, a located module never un-registers.
    std::unordered_map<std::string, int> dep_cache;
    // Missing dependencies already counted/traced (so retries don't inflate them).
    std::unordered_set<std::string> deps_reported_missing;
    bool payload_private = false;      // private instance: payload mapped per process
    std::shared_ptr<std::vector<uint8_t>> private_backing;  // private instance bytes
    // Fully-linked module verified against the manifest: its resolution table was
    // left in |warm_| (the segment bytes embody it) and WriteManifest merges it.
    bool warm_covered = false;
  };
  // Growing modules_ moves each RtModule, and a move hands its vectors' buffers
  // over: a reference to a name in |module_list| or |relocs| survives a
  // registration made while it is in use (LookupInOwnScope, ResolveModule).
  static_assert(std::is_nothrow_move_constructible_v<RtModule>);

  // Registers + maps the dynamic module |name|, whose template the caller located
  // at |found| (creating the module if needed). |parent| is the scoped-linking
  // parent index (-1 for root).
  Result<int> AcquireModule(Process& proc, const std::string& name, const std::string& found,
                            ShareClass cls, int parent);
  // Registers an already-linked module (static publics at startup, or an HML file
  // discovered through a pointer-follow fault).
  Result<int> RegisterLinked(Process& proc, LinkedModule mod, ShareClass cls,
                             const std::string& key, uint32_t ino, int parent);
  Status MapModule(Process& proc, RtModule& m, bool accessible);

  // Builds (or rebuilds) a public module's segment from the template file at
  // |tpl_path|, under the creation protocol: read + parse template ->
  // creation_pending marker -> lock -> link -> truncate -> write -> clear marker ->
  // unlock. |rebuild| means the file existed but its contents cannot be trusted
  // (pending marker set, or unparseable).
  Result<int> CreatePublicModule(Process& proc, const std::string& tpl_path,
                                 const std::string& module_path, uint32_t existing_ino,
                                 bool rebuild, ShareClass cls, int parent);
  // LockInode with bounded retry. A *dead* holder's lease is burned off with
  // exponential clock backoff so the lock breaks rather than the attacher failing
  // forever. A *live* holder inside fault handling instead sets |blocked_on_addr_|
  // (see HandleFault): breaking a live creator's lease would let two processes
  // write the same segment at once.
  Status LockInodeWithRetry(uint32_t ino, int pid);
  // True when the creation lock on |ino| is held by a live process other than
  // |pid| and we are inside fault handling (the only context that can block).
  bool CreatorBlocksUs(uint32_t ino, int pid);

  // Resolves all of the module's references (paper: "(all pages of) the module
  // that has just been accessed") and makes its pages accessible.
  Status ResolveModule(Process& proc, int index);
  // Applies every reloc whose symbol has a resolution, into this process's memory.
  Status ApplyResolved(Process& proc, RtModule& m);

  // Scoped symbol lookup for references out of module |index|.
  Result<uint32_t> LookupScoped(Process& proc, int index, const std::string& symbol);
  // Looks for |symbol| among the exports of the modules on |index|'s own list,
  // instantiating them (possibly inaccessibly) on demand.
  Result<uint32_t> LookupInOwnScope(Process& proc, int index, const std::string& symbol);

  // Drops every module's memoized *negative* lookups (called when a registration or a
  // new fault could turn an old miss into a hit).
  void InvalidateNegativeCaches();

  // Module whose mapping contains |addr|, -1 if none (ordered interval lookup).
  int FindModuleAt(uint32_t addr) const;

  // The directory list used to locate modules named by module |index|'s list.
  std::vector<std::string> DirsFor(Process& proc, int index);
  std::vector<std::string> RootDirs(Process& proc);
  // Convention: a dependency whose template was found (at |found|) on the shared
  // partition is public, else private.
  ShareClass ClassForDependency(const std::string& found);

  // Rewrites a public module file's trailer (and footer) to list only the
  // relocations still unresolved, built from |m| alone; the mapped pages are not
  // rewritten, except that a replica sends them along. The list is this linker's
  // view: a site another live linker patched meanwhile stays listed, and a later
  // attacher resolves it again.
  Status UpdatePublicTrailer(RtModule& m);

  // --- function-lazy (jump-table) machinery ---
  // Partitions a freshly registered module's pendings: trampoline call slots get
  // sentinel targets (bound on first call); data references resolve immediately.
  Status SetUpFunctionLazy(Process& proc, int index);
  // Binds one sentinel: resolves the symbol, patches its trampoline, redirects pc.
  bool HandlePltFault(Process& proc, uint32_t sentinel);

  bool HandleFaultImpl(Machine& machine, Process& proc, const Fault& fault);

  // Startup's body; the public wrapper times it into ldl.startup_ns.
  Status StartupImpl(Process& proc);

  // --- stable linking (resolution manifest) machinery ---
  // Reads + verifies the on-disk manifest against this image and the current
  // module bytes; verified records are staged in |warm_| for RegisterLinked to
  // install. Never fails the program: a bad manifest counts rejected/missed and
  // resolution proceeds cold.
  void LoadManifest(Process& proc);
  // Rebuilds this image's record from current decisions and persists the manifest
  // with the torn-write discipline (pending marker + fault points
  // "ldl.manifest.write"/"ldl.manifest.written"). Crash statuses propagate.
  Status WriteManifest();

  Machine* machine_;
  LoadImage image_;
  LdlOptions options_;

  // Set while inside HandleFault — the only context where blocking on another
  // process's creation lock is possible (Startup runs with no scheduler to return
  // to). |blocked_on_addr_| carries the wait target up through the lookup stack.
  bool in_fault_ = false;
  uint32_t blocked_on_addr_ = 0;

  // Observability: this linker's own registry (per-process counters) plus the
  // machine-wide trace ring.
  MetricsRegistry metrics_;
  TraceBuffer* trace_;
  uint64_t* c_modules_located_;
  uint64_t* c_publics_created_;
  uint64_t* c_publics_rebuilt_;
  uint64_t* c_publics_attached_;
  uint64_t* c_privates_instantiated_;
  uint64_t* c_link_faults_;
  uint64_t* c_map_faults_;
  uint64_t* c_plt_faults_;
  uint64_t* c_relocs_applied_;
  uint64_t* c_lock_acquisitions_;
  uint64_t* c_lock_retries_;
  uint64_t* c_lock_waits_;
  uint64_t* c_unresolved_refs_;
  uint64_t* c_deps_missing_;
  uint64_t* c_lookups_;
  uint64_t* c_cache_hits_;
  uint64_t* c_cache_misses_;
  uint64_t* c_scope_walks_;
  uint64_t* c_root_lookups_;
  uint64_t* c_manifest_hits_;      // modules whose recorded resolutions were installed
  uint64_t* c_manifest_misses_;    // warm start attempted, no verifiable record
  uint64_t* c_manifest_rebuilds_;  // manifest (re)written with fresh decisions
  uint64_t* c_manifest_rejected_;  // manifest unreadable/pending/corrupt, ignored
  uint64_t* c_manifest_negative_hits_;   // lookups short-circuited by recorded absences
  uint64_t* c_manifest_shared_parses_;   // verified parses reused across Execs
  uint64_t* c_startup_ns_;         // wall time spent inside Startup (link time)

  std::vector<RtModule> modules_;
  std::map<std::string, int> by_key_;
  // Ordered interval index over module mappings: base -> module index.
  std::map<uint32_t, int> by_base_;
  std::map<std::string, AbsSymbol> image_syms_;
  // Incremental first-wins index over the root scope (image symbols shadow modules;
  // modules shadow each other in registration order) — what LookupRootSymbol's
  // nested scan used to compute, now O(1).
  std::unordered_map<std::string, uint32_t> root_index_;
  uint32_t private_arena_ = 0x04000000;  // dynamic private instances grow from here
  // function-lazy: sentinel address -> (module index, symbol). Sentinels live in an
  // always-unmapped band below the stack, so calling an unbound function faults here.
  std::map<uint32_t, std::pair<int, std::string>> plt_sentinels_;
  uint32_t next_sentinel_ = 0x7F100000;

  // Stable linking state (use_manifest only). |warm_| holds the verified records
  // for this image, keyed by module identity; RegisterLinked consumes them.
  ResolutionManifest manifest_;
  std::unordered_map<std::string, ManifestModule> warm_;
  // Modules parsed while verifying the manifest, kept so the attach path does not
  // read + parse the same file again moments later. Entries are consumed (moved
  // out) on first attach; populated only when the whole image verified.
  std::unordered_map<std::string, LinkedModule> warm_parsed_;
  uint64_t image_hash_ = 0;
  bool manifest_dirty_ = false;
};

}  // namespace hemlock

#endif  // SRC_LINK_LDL_H_
