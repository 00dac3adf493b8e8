#include "src/link/ldl.h"

#include "src/base/faults.h"
#include "src/base/layout.h"
#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/link/lds.h"
#include "src/link/search.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <span>

namespace hemlock {

namespace {

// One verified manifest parse, shared across the processes of a scheduled
// --procs run (every Exec makes a fresh Ldl; the partition cannot change
// between the back-to-back Execs of one run). Single entry: the most recent
// verification wins, which is exactly the shape a --procs loop produces.
struct SharedManifestParse {
  std::mutex mu;
  uint64_t machine = 0;  // Machine::serial(): a dead machine's address may be reused
  uint64_t bytes_hash = 0;
  uint64_t image_hash = 0;
  ResolutionManifest manifest;
  std::unordered_map<std::string, ManifestModule> warm;
  std::unordered_map<std::string, LinkedModule> warm_parsed;
};

SharedManifestParse& SharedParse() {
  static SharedManifestParse* cache = new SharedManifestParse();
  return *cache;
}

// Applies a pending reloc directly into process memory (kernel write path, so it works
// on pages mapped inaccessible).
Status WriteRelocToSpace(Process& proc, const PendingReloc& rel, uint32_t target) {
  uint8_t cell[4];
  RETURN_IF_ERROR(proc.space().ReadBytes(rel.site, cell, 4));
  RETURN_IF_ERROR(ApplyReloc(cell, sizeof(cell), rel.site, rel.type, rel.site, target));
  return proc.space().WriteBytes(rel.site, cell, 4);
}

}  // namespace

Ldl::Ldl(Machine* machine, LoadImage image, LdlOptions options)
    : machine_(machine), image_(std::move(image)), options_(options), trace_(&machine->trace()) {
  c_modules_located_ = metrics_.Counter("ldl.modules_located");
  c_publics_created_ = metrics_.Counter("ldl.publics_created");
  c_publics_rebuilt_ = metrics_.Counter("ldl.publics_rebuilt");
  c_publics_attached_ = metrics_.Counter("ldl.publics_attached");
  c_privates_instantiated_ = metrics_.Counter("ldl.privates_instantiated");
  c_link_faults_ = metrics_.Counter("ldl.link_faults");
  c_map_faults_ = metrics_.Counter("ldl.map_faults");
  c_plt_faults_ = metrics_.Counter("ldl.plt_faults");
  c_relocs_applied_ = metrics_.Counter("ldl.relocs_applied");
  c_lock_acquisitions_ = metrics_.Counter("ldl.lock_acquisitions");
  c_lock_retries_ = metrics_.Counter("ldl.lock_retries");
  c_lock_waits_ = metrics_.Counter("ldl.lock_waits");
  c_unresolved_refs_ = metrics_.Counter("ldl.unresolved_refs");
  c_deps_missing_ = metrics_.Counter("ldl.deps_missing");
  c_lookups_ = metrics_.Counter("ldl.lookups");
  c_cache_hits_ = metrics_.Counter("ldl.cache_hits");
  c_cache_misses_ = metrics_.Counter("ldl.cache_misses");
  c_scope_walks_ = metrics_.Counter("ldl.scope_walks");
  c_root_lookups_ = metrics_.Counter("ldl.root_lookups");
  c_manifest_hits_ = metrics_.Counter("ldl.manifest.hits");
  c_manifest_misses_ = metrics_.Counter("ldl.manifest.misses");
  c_manifest_rebuilds_ = metrics_.Counter("ldl.manifest.rebuilds");
  c_manifest_rejected_ = metrics_.Counter("ldl.manifest.rejected");
  c_manifest_negative_hits_ = metrics_.Counter("ldl.manifest.negative_hits");
  c_manifest_shared_parses_ = metrics_.Counter("ldl.manifest.shared_parses");
  c_startup_ns_ = metrics_.Counter("ldl.startup_ns");
  for (const AbsSymbol& sym : image_.symbols) {
    image_syms_.emplace(sym.name, sym);
    root_index_.emplace(sym.name, sym.addr);
  }
}

int Ldl::FindModuleIndex(const std::string& key) const {
  auto it = by_key_.find(key);
  return it == by_key_.end() ? -1 : it->second;
}

uint32_t Ldl::UnresolvedCountOf(int index) const {
  if (index < 0 || index >= static_cast<int>(modules_.size())) {
    return 0;
  }
  const RtModule& m = modules_[index];
  uint32_t n = 0;
  for (const PendingReloc& rel : m.relocs) {
    if (m.resolved.count(rel.symbol) == 0) {
      ++n;
    }
  }
  return n;
}

int Ldl::FindModuleAt(uint32_t addr) const {
  // Greatest base <= addr, then a bounds check — module mappings are disjoint.
  auto it = by_base_.upper_bound(addr);
  if (it == by_base_.begin()) {
    return -1;
  }
  --it;
  const RtModule& m = modules_[it->second];
  return (addr >= m.base && addr < m.base + m.mem_size) ? it->second : -1;
}

void Ldl::InvalidateNegativeCaches() {
  for (RtModule& m : modules_) {
    if (!m.scope_negative.empty()) {
      m.scope_negative.clear();  // clear() walks the bucket array even when empty
    }
    // Negative dep_cache entries (-1: locate failed) go with them — a freshly
    // registered module may be exactly the dependency that could not be found.
    // Positive entries are stable (a located module never un-registers).
    for (auto it = m.dep_cache.begin(); it != m.dep_cache.end();) {
      it = it->second < 0 ? m.dep_cache.erase(it) : std::next(it);
    }
  }
}

std::vector<std::string> Ldl::RootDirs(Process& proc) {
  // Run-time order (paper §3): current LD_LIBRARY_PATH, then the saved static dirs.
  return DynamicSearchDirs(proc.GetEnv(kLdLibraryPathVar), image_.search_path);
}

std::vector<std::string> Ldl::DirsFor(Process& proc, int index) {
  if (index < 0) {
    return RootDirs(proc);
  }
  // A module's own search path; scoped fallback walks the parent chain separately.
  return modules_[index].search_path;
}

Status Ldl::Startup(Process& proc) {
  auto t0 = std::chrono::steady_clock::now();
  Status status = StartupImpl(proc);
  *c_startup_ns_ += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() - t0)
          .count());
  return status;
}

Status Ldl::StartupImpl(Process& proc) {
  // (0) Stable linking: read + verify the persistent resolution manifest. Verified
  // records are staged in |warm_|; RegisterLinked installs them as the modules
  // appear, so every path below (static publics, dynamic acquires, lazy faults)
  // benefits without knowing the manifest exists.
  if (options_.use_manifest) {
    LoadManifest(proc);
  }

  // (2) Map static public modules (created by lds; "Ldl also creates any static
  // public modules that do not yet exist" — covered by AcquireModule's create path
  // when a static public template appears only at run time).
  for (const StaticPublicRef& ref : image_.static_publics) {
    if (by_key_.count(ref.module_path) != 0) {
      continue;
    }
    LinkedModule mod;
    auto cached = warm_parsed_.find(ref.module_path);
    if (cached != warm_parsed_.end()) {
      mod = std::move(cached->second);
      warm_parsed_.erase(cached);
    } else {
      ASSIGN_OR_RETURN(std::span<const uint8_t> file,
                       machine_->vfs().ViewSharedFile(ref.module_path));
      ASSIGN_OR_RETURN(mod, LinkedModule::ParseTrailer(file));
    }
    ASSIGN_OR_RETURN(SfsStat st, machine_->sfs().Stat(Vfs::SfsRelative(ref.module_path)));
    ASSIGN_OR_RETURN(int idx, RegisterLinked(proc, std::move(mod), ShareClass::kStaticPublic,
                                             ref.module_path, st.ino, /*parent=*/-1));
    (void)idx;
    ++*c_publics_attached_;
  }

  // (1)+(3) Locate dynamic modules; instantiate privates; create missing publics; map.
  std::vector<std::string> dirs = RootDirs(proc);
  for (const DynModuleRecord& rec : image_.dynamic_modules) {
    Result<std::string> found = FindModuleFile(machine_->vfs(), rec.name, dirs);
    Result<int> idx = found.ok() ? AcquireModule(proc, rec.name, *found, rec.cls, /*parent=*/-1)
                                 : Result<int>(found.status());
    if (!idx.ok()) {
      if (IsCrash(idx.status())) {
        return idx.status();  // an injected crash kills the machine, not just this module
      }
      // Still missing at run time: leave its symbols unresolved (faults at use are
      // the application's recovery hook).
      HLOG(Warning) << "ldl: dynamic module '" << rec.name
                    << "' not found at startup: " << idx.status().ToString();
    }
  }

  // (4) Resolve undefined references from the main load image against the dynamic
  // modules — "even when the location of those symbols was not known at static link
  // time".
  for (const PendingReloc& rel : image_.pending) {
    Result<uint32_t> addr = LookupRootSymbol(rel.symbol);
    if (!addr.ok()) {
      ++*c_unresolved_refs_;
      if (trace_->enabled()) trace_->Emit(TraceKind::kUnresolved, rel.symbol, "<image>");
      HLOG(Info) << "ldl: image reference to '" << rel.symbol << "' left unresolved";
      continue;
    }
    uint32_t target = *addr + static_cast<uint32_t>(rel.addend);
    RETURN_IF_ERROR(WriteRelocToSpace(proc, rel, target));
    ++*c_relocs_applied_;
  }

  if (!options_.lazy) {
    RETURN_IF_ERROR(ResolveAll(proc));
  }

  // Persist the resolution decisions made so far. A write failure never fails the
  // program (the manifest is an optimization), but an injected crash kills the
  // machine mid-write exactly like the module-creation fault points do.
  if (options_.use_manifest) {
    Status ws = WriteManifest();
    if (!ws.ok()) {
      if (IsCrash(ws)) {
        return ws;
      }
      HLOG(Warning) << "ldl: resolution manifest not written: " << ws.ToString();
    }
  }
  return OkStatus();
}

Result<int> Ldl::AcquireModule(Process& proc, const std::string& name, const std::string& found,
                               ShareClass cls, int parent) {
  Vfs& vfs = machine_->vfs();
  ++*c_modules_located_;

  if (IsPublic(cls)) {
    // The module file lives next to where the *name* was found (symlinks included —
    // the Presto temp-directory recipe depends on this), named by dropping ".o".
    std::string module_path = StripExtension(found);
    if (!Vfs::OnSharedPartition(module_path)) {
      return InvalidArgument("ldl: public module '" + name +
                             "' must reside on the shared partition (found at " + found + ")");
    }
    auto it = by_key_.find(module_path);
    if (it != by_key_.end()) {
      // Already known to this linker; make sure it is mapped in this process.
      RtModule& m = modules_[it->second];
      if (!proc.space().IsMapped(m.base)) {
        bool accessible = options_.function_lazy || UnresolvedCountOf(it->second) == 0;
        RETURN_IF_ERROR(MapModule(proc, m, accessible));
      }
      return it->second;
    }
    if (vfs.Exists(module_path)) {
      ASSIGN_OR_RETURN(SfsStat st, machine_->sfs().Stat(Vfs::SfsRelative(module_path)));
      // Attach only a segment whose creation provably completed: the pending marker
      // must be clear and the contents must parse. Anything else is a creator's
      // corpse (crash between Create and the final write) — rebuild from template.
      bool trustworthy = !machine_->sfs().CreationPending(st.ino);
      if (trustworthy) {
        auto cached = warm_parsed_.find(module_path);
        if (cached != warm_parsed_.end()) {
          // Manifest verification already read and parsed this exact file.
          LinkedModule mod = std::move(cached->second);
          warm_parsed_.erase(cached);
          ++*c_publics_attached_;
          return RegisterLinked(proc, std::move(mod), cls, module_path, st.ino, parent);
        }
        // A public module is registered, never copied: its pages are mapped
        // from the extent, so only the trailer is parsed.
        ASSIGN_OR_RETURN(std::span<const uint8_t> file, vfs.ViewSharedFile(module_path));
        Result<LinkedModule> mod = LinkedModule::ParseTrailer(file);
        if (mod.ok()) {
          ++*c_publics_attached_;
          return RegisterLinked(proc, std::move(*mod), cls, module_path, st.ino, parent);
        }
        trustworthy = false;
      }
      if (!trustworthy) {
        // Untrustworthy because a *live* process is mid-creation (pending marker up,
        // lock held)? Then this is contention, not a corpse: park the faulting
        // process until the creator unlocks, and attach the finished segment on
        // retry. Rebuilding here would race the creator's writes.
        if (CreatorBlocksUs(st.ino, proc.pid())) {
          blocked_on_addr_ = SfsAddressForInode(st.ino);
          return WouldBlock("ldl: public module '" + module_path +
                            "' is being created by pid " +
                            std::to_string(machine_->sfs().LockOwner(st.ino)));
        }
        return CreatePublicModule(proc, found, module_path, st.ino, /*rebuild=*/true, cls,
                                  parent);
      }
    }
    // Create the public module from its template, under the creation lock (fn. 3).
    return CreatePublicModule(proc, found, module_path, /*existing_ino=*/0, /*rebuild=*/false,
                              cls, parent);
  }

  // Dynamic private: a fresh instance per process tree, in private memory.
  auto it = by_key_.find(found);
  if (it != by_key_.end()) {
    return it->second;
  }
  ASSIGN_OR_RETURN(std::vector<uint8_t> tpl_bytes, vfs.ReadFile(found));
  ASSIGN_OR_RETURN(ObjectFile tpl, ObjectFile::Deserialize(tpl_bytes));
  uint32_t base = private_arena_;
  uint32_t trampolines = 0;
  ASSIGN_OR_RETURN(LinkedModule mod, LinkModuleAtBase(tpl, tpl_bytes, base,
                                                      StripExtension(PathBasename(found)),
                                                      &trampolines));
  private_arena_ += PageCeil(mod.MemSize()) + kPageSize;  // guard page between instances
  ++*c_privates_instantiated_;
  return RegisterLinked(proc, std::move(mod), ShareClass::kDynamicPrivate, found, /*ino=*/0,
                        parent);
}

bool Ldl::CreatorBlocksUs(uint32_t ino, int pid) {
  if (!in_fault_) {
    return false;  // Startup has no scheduler context to block in
  }
  int owner = machine_->sfs().LockOwner(ino);
  if (owner < 0 || owner == pid) {
    return false;
  }
  Process* holder = machine_->FindProcess(owner);
  return holder != nullptr && holder->state() != ProcState::kZombie;
}

Status Ldl::LockInodeWithRetry(uint32_t ino, int pid) {
  SharedFs& sfs = machine_->sfs();
  // Backoff in simulated partition ops: eight doublings from lease/8 add up to ~32
  // leases, so a holder that died without unlocking is guaranteed to expire.
  uint64_t backoff = std::max<uint64_t>(1, sfs.lock_lease_ops() / 8);
  Status st = OkStatus();
  for (int attempt = 0; attempt < 8; ++attempt) {
    st = sfs.LockInode(ino, pid);
    if (st.ok() || st.code() != ErrorCode::kWouldBlock) {
      return st;
    }
    ++*c_lock_retries_;
    // Burning the clock is how a *dead* holder's lease expires. Against a *live*
    // holder it would break a lease that is still protecting in-progress writes —
    // block on the inode's segment address instead and retry after its unlock.
    if (CreatorBlocksUs(ino, pid)) {
      blocked_on_addr_ = SfsAddressForInode(ino);
      return st;
    }
    sfs.AdvanceClock(backoff);
    backoff *= 2;
  }
  return st;
}

Result<int> Ldl::CreatePublicModule(Process& proc, const std::string& tpl_path,
                                    const std::string& module_path, uint32_t existing_ino,
                                    bool rebuild, ShareClass cls, int parent) {
  ASSIGN_OR_RETURN(std::vector<uint8_t> tpl_bytes, machine_->vfs().ReadFile(tpl_path));
  ASSIGN_OR_RETURN(ObjectFile tpl, ObjectFile::Deserialize(tpl_bytes));
  SharedFs& sfs = machine_->sfs();
  FaultRegistry& faults = FaultRegistry::Global();
  std::string rel_path = Vfs::SfsRelative(module_path);
  uint32_t ino = existing_ino;
  if (!rebuild) {
    ASSIGN_OR_RETURN(ino, sfs.Create(rel_path));
  }
  // Crash-safe creation protocol: the pending marker goes up first, so every crash
  // window from here to the final write leaves a segment attachers will rebuild
  // instead of trusting.
  RETURN_IF_ERROR(sfs.SetCreationPending(ino, true));
  RETURN_IF_ERROR(faults.Check("ldl.create.pending"));
  RETURN_IF_ERROR(LockInodeWithRetry(ino, proc.pid()));
  ++*c_lock_acquisitions_;
  Status fault = faults.Check("ldl.create.locked");
  if (!fault.ok()) {
    if (!IsCrash(fault)) {
      (void)sfs.UnlockInode(ino, proc.pid());
    }
    return fault;  // a crash dies holding the lock — lease/boot cleanup's problem
  }
  uint32_t base = SfsAddressForInode(ino);
  uint32_t trampolines = 0;
  Result<LinkedModule> mod =
      LinkModuleAtBase(tpl, tpl_bytes, base, PathBasename(module_path), &trampolines);
  if (!mod.ok()) {
    (void)sfs.UnlockInode(ino, proc.pid());
    if (!rebuild) {
      (void)sfs.Unlink(rel_path);  // fresh create: leave no half-made file behind
    }
    return mod.status();
  }
  std::vector<uint8_t> file = mod->SerializeFile();
  // Drop any stale occupant bytes before the write: a rebuild over a torn segment
  // must not leave a previous creator's tail past the new module's end.
  RETURN_IF_ERROR(sfs.Truncate(ino, 0));
  RETURN_IF_ERROR(sfs.WriteAt(ino, 0, file.data(), static_cast<uint32_t>(file.size())));
  RETURN_IF_ERROR(faults.Check("ldl.create.written"));
  RETURN_IF_ERROR(sfs.SetCreationPending(ino, false));
  RETURN_IF_ERROR(sfs.UnlockInode(ino, proc.pid()));
  ++*(rebuild ? c_publics_rebuilt_ : c_publics_created_);
  return RegisterLinked(proc, std::move(*mod), cls, module_path, ino, parent);
}

Result<int> Ldl::RegisterLinked(Process& proc, LinkedModule mod, ShareClass cls,
                                const std::string& key, uint32_t ino, int parent) {
  RtModule m;
  m.key = key;
  m.name = std::move(mod.name);
  m.cls = cls;
  m.base = mod.base;
  m.mem_size = mod.MemSize();
  m.text_size = mod.text_size;
  m.data_size = mod.data_size;
  m.bss_size = mod.bss_size;
  m.ino = ino;
  m.src_hash = mod.template_hash;
  m.parent = parent;
  m.module_list = std::move(mod.module_list);
  m.search_path = std::move(mod.search_path);
  m.relocs = std::move(mod.pending);
  m.disk_pending = static_cast<uint32_t>(m.relocs.size());
  m.exports = std::move(mod.exports);
  m.export_index.reserve(m.exports.size());
  for (const AbsSymbol& sym : m.exports) {
    m.export_index.emplace(sym.name, sym.addr);  // first definition wins
  }
  if (!IsPublic(cls)) {
    m.payload_private = true;
    auto backing = std::make_shared<std::vector<uint8_t>>(PageCeil(m.mem_size), 0);
    std::copy(mod.payload.begin(), mod.payload.end(), backing->begin());
    m.private_backing = std::move(backing);
  }
  int index = static_cast<int>(modules_.size());
  modules_.push_back(std::move(m));
  by_key_[key] = index;
  by_base_[modules_[index].base] = index;
  // Root scope sees modules in registration order; try_emplace keeps the first
  // winner without allocating a node for shadowed duplicates.
  for (const AbsSymbol& sym : modules_[index].exports) {
    root_index_.try_emplace(sym.name, sym.addr);
  }
  // A new module can only turn old misses into hits: drop memoized negatives.
  InvalidateNegativeCaches();
  RtModule& ref = modules_[index];
  // Stable linking: adopt the manifest's recorded resolutions for this module.
  // LoadManifest already verified content hashes against the bytes on disk, but the
  // identity is re-checked here against the module *actually registered* — the
  // install-time belt under the load-time suspenders.
  if (options_.use_manifest) {
    bool covered = false;
    auto rec = warm_.find(key);
    if (rec != warm_.end()) {
      const ManifestModule& wm = rec->second;
      if (wm.base == ref.base && ref.src_hash != 0 && wm.src_hash == ref.src_hash) {
        ref.manifest_negative.insert(wm.negatives.begin(), wm.negatives.end());
        if (!ref.relocs.empty()) {
          // Partially linked (function-lazy trailers): seed `resolved` so the
          // remaining bindings skip their lookups and `scope_cache` so residual
          // lookups stay cache hits.
          for (const auto& [symbol, addr] : wm.resolved) {
            ref.resolved.emplace(symbol, addr);
            ref.scope_cache.emplace(symbol, addr);
          }
        } else {
          // Fully linked: the shared segment bytes already carry every patched
          // site, so copying ~the whole resolution table into maps would be pure
          // bookkeeping. Mark the module covered; WriteManifest merges the
          // record back from |warm_| if the manifest ever goes dirty.
          ref.warm_covered = true;
        }
        ++*c_manifest_hits_;
        covered = true;
      } else {
        ++*c_manifest_rejected_;
        warm_.erase(rec);  // stale record: never merge it into a future write
      }
    }
    // A verifiable module the manifest did not cover means the persisted record
    // is stale or incomplete — even if this module needs no fresh resolutions
    // (trailer-restored state), the next flush must re-record the full set.
    if (!covered && ref.src_hash != 0) {
      manifest_dirty_ = true;
    }
  }
  bool fully_linked = ref.relocs.empty();
  if (options_.function_lazy && !fully_linked) {
    // Jump-table scheme: the module is accessible from the start; calls bind lazily
    // through sentinels, data references resolve now.
    RETURN_IF_ERROR(MapModule(proc, ref, /*accessible=*/true));
    RETURN_IF_ERROR(SetUpFunctionLazy(proc, index));
    return index;
  }
  RETURN_IF_ERROR(MapModule(proc, ref, /*accessible=*/fully_linked || !options_.lazy));
  if (!options_.lazy && !fully_linked) {
    RETURN_IF_ERROR(ResolveModule(proc, index));
  }
  return index;
}

Status Ldl::SetUpFunctionLazy(Process& proc, int index) {
  // Identify trampoline slots: a pending HI16 at s with a matching LO16 at s+4 for the
  // same symbol, inside the text region, followed by `jr $at` — the fragment layout
  // LinkModuleAtBase emits for external calls.
  struct PltSlot {
    uint32_t hi_site = 0;
    std::string symbol;
  };
  std::vector<PltSlot> plt;
  std::set<std::string> plt_symbols;
  std::vector<std::string> data_symbols;
  {
    const RtModule& m = modules_[index];
    const uint32_t jr_at = EncodeJr(kRegAt);
    std::set<uint32_t> plt_sites;
    for (size_t i = 0; i < m.relocs.size(); ++i) {
      const PendingReloc& rel = m.relocs[i];
      if (rel.type != RelocType::kHi16 || rel.site < m.base ||
          rel.site >= m.base + m.text_size) {
        continue;
      }
      bool has_lo = false;
      for (const PendingReloc& other : m.relocs) {
        if (other.type == RelocType::kLo16 && other.site == rel.site + 4 &&
            other.symbol == rel.symbol) {
          has_lo = true;
          break;
        }
      }
      uint8_t word[4];
      if (!has_lo || !proc.space().ReadBytes(rel.site + 8, word, 4).ok()) {
        continue;
      }
      uint32_t jr = 0;
      std::memcpy(&jr, word, 4);
      if (jr != jr_at) {
        continue;
      }
      plt.push_back(PltSlot{rel.site, rel.symbol});
      plt_symbols.insert(rel.symbol);
      plt_sites.insert(rel.site);
      plt_sites.insert(rel.site + 4);
    }
    for (const PendingReloc& rel : m.relocs) {
      if (plt_sites.count(rel.site) == 0 &&
          modules_[index].resolved.count(rel.symbol) == 0) {
        data_symbols.push_back(rel.symbol);
      }
    }
  }

  // Data references resolve at map time — the SunOS scheme's non-lazy half.
  for (const std::string& symbol : data_symbols) {
    if (modules_[index].resolved.count(symbol) != 0 || plt_symbols.count(symbol) != 0) {
      continue;
    }
    Result<uint32_t> addr = LookupScoped(proc, index, symbol);
    if (addr.ok()) {
      modules_[index].resolved[symbol] = *addr;
      manifest_dirty_ = true;
    } else if (modules_[index].unresolved.insert(symbol).second) {
      ++*c_unresolved_refs_;
      if (trace_->enabled()) trace_->Emit(TraceKind::kUnresolved, symbol, modules_[index].name);
    }
  }
  // Apply everything resolved so far, except the call slots that stay lazy.
  {
    RtModule& m = modules_[index];
    for (const PendingReloc& rel : m.relocs) {
      if (plt_symbols.count(rel.symbol) != 0) {
        continue;
      }
      auto it = m.resolved.find(rel.symbol);
      if (it == m.resolved.end()) {
        continue;
      }
      RETURN_IF_ERROR(
          WriteRelocToSpace(proc, rel, it->second + static_cast<uint32_t>(rel.addend)));
      ++*c_relocs_applied_;
    }
  }
  // Aim each call slot at its sentinel (one sentinel per (module, symbol)).
  std::map<std::string, uint32_t> symbol_sentinel;
  for (const auto& [sentinel, entry] : plt_sentinels_) {
    if (entry.first == index) {
      symbol_sentinel[entry.second] = sentinel;
    }
  }
  RtModule& m = modules_[index];
  for (const PltSlot& slot : plt) {
    uint32_t sentinel = 0;
    auto found = symbol_sentinel.find(slot.symbol);
    if (found != symbol_sentinel.end()) {
      sentinel = found->second;
    } else {
      sentinel = next_sentinel_;
      next_sentinel_ += 16;
      plt_sentinels_[sentinel] = {index, slot.symbol};
      symbol_sentinel[slot.symbol] = sentinel;
    }
    PendingReloc hi{RelocType::kHi16, slot.hi_site, slot.symbol, 0};
    PendingReloc lo{RelocType::kLo16, slot.hi_site + 4, slot.symbol, 0};
    RETURN_IF_ERROR(WriteRelocToSpace(proc, hi, sentinel));
    RETURN_IF_ERROR(WriteRelocToSpace(proc, lo, sentinel));
  }
  (void)m;
  return OkStatus();
}

bool Ldl::HandlePltFault(Process& proc, uint32_t sentinel) {
  auto it = plt_sentinels_.find(sentinel);
  if (it == plt_sentinels_.end()) {
    return false;
  }
  auto [index, symbol] = it->second;
  uint32_t target = 0;
  auto resolved = modules_[index].resolved.find(symbol);
  if (resolved != modules_[index].resolved.end()) {
    target = resolved->second;
  } else {
    Result<uint32_t> addr = LookupScoped(proc, index, symbol);
    if (!addr.ok()) {
      HLOG(Info) << "ldl: call to unresolved '" << symbol << "' (function-lazy)";
      return false;  // calling a symbol nobody defines: fatal, as in the paper
    }
    target = *addr;
    modules_[index].resolved[symbol] = target;
    manifest_dirty_ = true;
  }
  // Bind: patch every call slot for this symbol so later calls go direct.
  for (const PendingReloc& rel : modules_[index].relocs) {
    if (rel.symbol != symbol) {
      continue;
    }
    if (!WriteRelocToSpace(proc, rel, target + static_cast<uint32_t>(rel.addend)).ok()) {
      return false;
    }
    ++*c_relocs_applied_;
  }
  ++*c_plt_faults_;
  if (trace_->enabled()) trace_->Emit(TraceKind::kFaultHandled, "plt", symbol, sentinel, target);
  if (modules_[index].ino != 0) {
    (void)UpdatePublicTrailer(modules_[index]);
  }
  // The call is already in flight ($ra holds the return address); continue directly
  // at the freshly bound callee.
  proc.cpu().pc = target;
  return true;
}

Status Ldl::MapModule(Process& proc, RtModule& m, bool accessible) {
  Prot prot = accessible ? Prot::kAll : Prot::kNone;
  if (trace_->enabled()) trace_->Emit(TraceKind::kModuleMapped, m.name, "", m.base, accessible ? 1 : 0);
  if (m.payload_private) {
    return proc.space().MapPrivate(m.base, m.mem_size, prot, m.private_backing, 0);
  }
  RETURN_IF_ERROR(machine_->sfs().EnsureExtent(m.ino, PageCeil(m.mem_size)));
  return proc.space().MapPublic(m.base, m.mem_size, prot, m.ino, 0);
}

Result<uint32_t> Ldl::LookupRootSymbol(const std::string& name) {
  ++*c_root_lookups_;
  // root_index_ holds the image's symbols plus every registered module's exports,
  // first definition wins — exactly the old nested scan, precomputed.
  auto it = root_index_.find(name);
  if (it != root_index_.end()) {
    return it->second;
  }
  return NotFound("symbol '" + name + "' not found in the root scope");
}

Result<uint32_t> Ldl::LookupInOwnScope(Process& proc, int index, const std::string& symbol) {
  // Instantiate (lazily, possibly inaccessibly) the modules on this module's own list
  // and search their exports. AcquireModule may grow modules_, so the module is
  // indexed afresh each round; its list's names stay put (see RtModule).
  for (size_t i = 0; i < modules_[index].module_list.size(); ++i) {
    const std::string& dep_name = modules_[index].module_list[i];
    int dep_index = -1;
    auto cached = modules_[index].dep_cache.find(dep_name);
    if (cached != modules_[index].dep_cache.end()) {
      dep_index = cached->second;
      if (dep_index < 0) {
        continue;  // memoized locate failure; dropped on registration / next fault
      }
    } else {
      // "If this strategy fails, it reverts to the strategy of the module(s) that make
      // references into the new module": walk ancestor dir lists on locate failure.
      Result<int> dep = NotFound("unresolved dependency");
      int scope = index;
      while (true) {
        Result<std::string> found = FindModuleFile(machine_->vfs(), dep_name, DirsFor(proc, scope));
        dep = found.ok() ? AcquireModule(proc, dep_name, *found, ClassForDependency(*found), index)
                         : Result<int>(found.status());
        if (dep.ok() || scope < 0) {
          break;
        }
        scope = modules_[scope].parent;
      }
      if (!dep.ok()) {
        if (blocked_on_addr_ != 0) {
          // Not missing — being created by a live process right now. Propagate so
          // the fault handler parks this process instead of recording a false miss.
          return dep.status();
        }
        // Dependency missing entirely; its symbols stay unresolved. This used to be a
        // silent `continue` — record it once per (module, dependency) so lost
        // dependencies are diagnosable.
        RtModule& m = modules_[index];
        if (m.deps_reported_missing.insert(dep_name).second) {
          ++*c_deps_missing_;
          if (trace_->enabled()) trace_->Emit(TraceKind::kDepMissing, dep_name, m.name);
          HLOG(Warning) << "ldl: module '" << m.name << "' lists dependency '" << dep_name
                        << "' which could not be located";
        }
        // Memoize the failure like a negative symbol lookup: retrying the whole
        // ancestor dir walk on every lookup is wasted work until something changes.
        // InvalidateNegativeCaches drops it, so a registration (or the next fault)
        // gives the dependency another chance — the stale-failure bug was keeping
        // dep misses forever while symbol misses were correctly invalidated.
        m.dep_cache.emplace(dep_name, -1);
        continue;
      }
      dep_index = *dep;
      modules_[index].dep_cache.emplace(dep_name, dep_index);
    }
    const RtModule& dep_mod = modules_[dep_index];
    auto sym = dep_mod.export_index.find(symbol);
    if (sym != dep_mod.export_index.end()) {
      return sym->second;
    }
  }
  return NotFound("not in own scope");
}

// Convention: a dependency whose template is found on the shared partition is a public
// module; anything else instantiates privately.
ShareClass Ldl::ClassForDependency(const std::string& found) {
  Result<std::string> resolved = machine_->vfs().Resolve(found);
  const std::string& target = resolved.ok() ? *resolved : found;
  if (Vfs::OnSharedPartition(StripExtension(found)) || Vfs::OnSharedPartition(target)) {
    return ShareClass::kDynamicPublic;
  }
  return ShareClass::kDynamicPrivate;
}

Result<uint32_t> Ldl::LookupScoped(Process& proc, int index, const std::string& symbol) {
  ++*c_lookups_;
  {
    RtModule& m = modules_[index];
    auto hit = m.scope_cache.find(symbol);
    if (hit != m.scope_cache.end()) {
      ++*c_cache_hits_;
      if (trace_->enabled()) trace_->Emit(TraceKind::kCacheHit, symbol, m.name, hit->second);
      return hit->second;
    }
    if (m.scope_negative.count(symbol) != 0) {
      ++*c_cache_hits_;
      if (trace_->enabled()) trace_->Emit(TraceKind::kCacheHit, symbol, m.name);
      return NotFound("symbol '" + symbol + "' not found (memoized miss)");
    }
    if (m.manifest_negative.count(symbol) != 0) {
      // Recorded absent at the last run's teardown; the verified module set is
      // the same, so skip the walk — and the retry-on-later-fault churn.
      ++*c_manifest_negative_hits_;
      if (trace_->enabled()) trace_->Emit(TraceKind::kCacheHit, symbol, m.name);
      return NotFound("symbol '" + symbol + "' not found (recorded absent)");
    }
  }
  ++*c_cache_misses_;
  if (trace_->enabled()) trace_->Emit(TraceKind::kCacheMiss, symbol, modules_[index].name);

  // Up the DAG: own scope, then parent's, then grandparent's, ... then root.
  uint32_t depth = 0;
  Result<uint32_t> addr = NotFound("unresolved");
  int cur = index;
  while (cur >= 0) {
    ++depth;
    ++*c_scope_walks_;
    addr = LookupInOwnScope(proc, cur, symbol);
    if (addr.ok()) {
      break;
    }
    if (blocked_on_addr_ != 0) {
      // A scope module is mid-creation elsewhere: don't memoize this as a miss —
      // the symbol may well exist once the creator finishes.
      return addr;
    }
    cur = modules_[cur].parent;
  }
  if (!addr.ok()) {
    addr = LookupRootSymbol(symbol);
  }
  // modules_ may have grown (and moved) during the walk; re-acquire the reference.
  RtModule& m = modules_[index];
  if (addr.ok()) {
    m.scope_cache.emplace(symbol, *addr);
  } else {
    m.scope_negative.insert(symbol);
  }
  if (trace_->enabled()) trace_->Emit(TraceKind::kScopeWalk, symbol, m.name, addr.ok() ? *addr : 0, depth);
  if (trace_->enabled()) trace_->Emit(TraceKind::kSymbolLookup, symbol, m.name, addr.ok() ? *addr : 0);
  return addr;
}

Status Ldl::ApplyResolved(Process& proc, RtModule& m) {
  for (const PendingReloc& rel : m.relocs) {
    auto it = m.resolved.find(rel.symbol);
    if (it == m.resolved.end()) {
      continue;
    }
    RETURN_IF_ERROR(
        WriteRelocToSpace(proc, rel, it->second + static_cast<uint32_t>(rel.addend)));
    ++*c_relocs_applied_;
  }
  return OkStatus();
}

Status Ldl::ResolveModule(Process& proc, int index) {
  // Phase 1: make lookup decisions for every symbol this module needs.
  // (Indexing modules_ by value each round: lookups may register new modules and
  // invalidate references. The relocations' names stay put; see RtModule.)
  std::vector<uint32_t> needed;
  for (uint32_t i = 0; i < modules_[index].relocs.size(); ++i) {
    const PendingReloc& rel = modules_[index].relocs[i];
    if (modules_[index].resolved.count(rel.symbol) != 0) {
      continue;
    }
    needed.push_back(i);
  }
  for (uint32_t reloc : needed) {
    const std::string& symbol = modules_[index].relocs[reloc].symbol;
    if (modules_[index].resolved.count(symbol) != 0) {
      continue;
    }
    Result<uint32_t> addr = LookupScoped(proc, index, symbol);
    if (addr.ok()) {
      modules_[index].resolved[symbol] = *addr;
      modules_[index].unresolved.erase(symbol);
      manifest_dirty_ = true;
    } else if (blocked_on_addr_ != 0) {
      // Resolution must pause for a segment under creation; leave the module's
      // pages closed and let the retried fault finish the job after the wake.
      return WouldBlock("ldl: resolution of module '" + modules_[index].name +
                        "' blocked on a segment under creation");
    } else {
      // Left unresolved: a use will fault, which the application may catch
      // (paper: "could be used ... to trigger application-specific recovery").
      if (modules_[index].unresolved.insert(symbol).second) {
        ++*c_unresolved_refs_;
        if (trace_->enabled()) trace_->Emit(TraceKind::kUnresolved, symbol, modules_[index].name);
        HLOG(Info) << "ldl: reference to '" << symbol << "' from module '"
                   << modules_[index].name << "' left unresolved";
      }
    }
  }
  // Phase 2: apply and open the pages.
  RtModule& m = modules_[index];
  RETURN_IF_ERROR(ApplyResolved(proc, m));
  RETURN_IF_ERROR(proc.space().Protect(m.base, m.mem_size, Prot::kAll));
  if (m.ino != 0) {
    RETURN_IF_ERROR(UpdatePublicTrailer(m));
  }
  return OkStatus();
}

Status Ldl::UpdatePublicTrailer(RtModule& m) {
  // Persist the shrinking pending list so a later boot (or another program) sees the
  // module's resolution state. Only the trailer and footer past the mapped pages are
  // rewritten: the live segment — applied relocations, data, .bss — stays as it is.
  LinkedModule meta;
  for (const PendingReloc& rel : m.relocs) {
    if (m.resolved.count(rel.symbol) == 0) {
      meta.pending.push_back(rel);
    }
  }
  if (meta.pending.size() == m.disk_pending) {
    return OkStatus();
  }
  meta.name = m.name;
  meta.base = m.base;
  meta.text_size = m.text_size;
  meta.data_size = m.data_size;
  meta.bss_size = m.bss_size;
  meta.exports = m.exports;
  meta.module_list = m.module_list;
  meta.search_path = m.search_path;
  meta.template_hash = m.src_hash;
  SharedFs& sfs = machine_->sfs();
  uint32_t mapped = PageCeil(m.mem_size);
  // A replica must not publish a trailer ahead of the patched pages it describes,
  // so under --connect the live pages travel with it (a same-bytes rewrite here).
  uint32_t from = sfs.remote_attached() ? 0 : mapped;
  std::vector<uint8_t> out(mapped - from);
  if (!out.empty()) {
    RETURN_IF_ERROR(sfs.ReadAt(m.ino, 0, out.data(), mapped).status());
  }
  std::vector<uint8_t> tail = meta.SerializeTrailer();
  out.insert(out.end(), tail.begin(), tail.end());
  // A crash between the two leaves a file without a footer, which attachers rebuild.
  RETURN_IF_ERROR(sfs.Truncate(m.ino, mapped));
  RETURN_IF_ERROR(sfs.WriteAt(m.ino, from, out.data(), static_cast<uint32_t>(out.size())));
  m.disk_pending = static_cast<uint32_t>(meta.pending.size());
  return OkStatus();
}

Status Ldl::ResolveAll(Process& proc) {
  // Transitive closure: resolving one module can register more.
  size_t done = 0;
  while (done < modules_.size()) {
    size_t index = done++;
    if (UnresolvedCountOf(static_cast<int>(index)) > 0 || !options_.lazy) {
      RETURN_IF_ERROR(ResolveModule(proc, static_cast<int>(index)));
    } else if (!proc.space().IsMapped(modules_[index].base)) {
      RETURN_IF_ERROR(MapModule(proc, modules_[index], /*accessible=*/true));
    } else {
      RETURN_IF_ERROR(
          proc.space().Protect(modules_[index].base, modules_[index].mem_size, Prot::kAll));
    }
  }
  return OkStatus();
}

bool Ldl::HandleFault(Machine& machine, Process& proc, const Fault& fault) {
  in_fault_ = true;
  blocked_on_addr_ = 0;
  bool handled = HandleFaultImpl(machine, proc, fault);
  in_fault_ = false;
  if (!handled && blocked_on_addr_ != 0) {
    // Resolution ran into a segment that a live process is still creating. Park the
    // faulter on the segment's address; the creator's unlock (or exit) wakes it and
    // the retried instruction attaches the finished segment.
    uint32_t addr = blocked_on_addr_;
    blocked_on_addr_ = 0;
    ++*c_lock_waits_;
    if (trace_->enabled()) trace_->Emit(TraceKind::kFaultHandled, "lock_wait", "", addr);
    HLOG(Info) << "ldl: pid " << proc.pid()
               << StrFormat(" waiting for segment creation at 0x%08X", addr);
    machine.BlockProcessOnAddr(proc, addr);
    return true;
  }
  blocked_on_addr_ = 0;
  // Flush fresh resolution decisions to the manifest while the fault context is
  // still ours. Write failures don't undo the (already successful) resolution —
  // except an injected crash, which kills this process mid-write like any other
  // fault-point crash (the pending marker makes the next boot reject the torn
  // manifest and resolve cold).
  if (handled && options_.use_manifest && manifest_dirty_) {
    Status ws = WriteManifest();
    if (!ws.ok()) {
      HLOG(Warning) << "ldl: resolution manifest not written: " << ws.ToString();
      if (IsCrash(ws)) {
        return false;
      }
    }
  }
  return handled;
}

bool Ldl::HandleFaultImpl(Machine& machine, Process& proc, const Fault& fault) {
  // A fault is the retry signal for anything that failed before: forget memoized
  // misses so files or modules that appeared since get another chance.
  InvalidateNegativeCaches();

  // (0) Function-lazy binding: a call landed on a PLT sentinel.
  if (options_.function_lazy && fault.access == AccessKind::kExec &&
      plt_sentinels_.count(fault.addr) != 0) {
    return HandlePltFault(proc, fault.addr);
  }

  // (a) A touch of a module mapped without access permissions: lazy linking.
  int touched = FindModuleAt(fault.addr);
  if (touched >= 0) {
    if (proc.space().ProtectionAt(fault.addr) != Prot::kNone) {
      return false;  // a real protection error inside a linked module
    }
    if (!proc.space().IsMapped(fault.addr)) {
      // Known module not mapped in this process (fork edge): map it first.
      Status st = MapModule(proc, modules_[touched], /*accessible=*/false);
      if (!st.ok()) {
        return false;
      }
    }
    ++*c_link_faults_;
    if (trace_->enabled()) trace_->Emit(TraceKind::kFaultHandled, "link", modules_[touched].name, fault.addr);
    Status st = ResolveModule(proc, touched);
    if (!st.ok()) {
      if (blocked_on_addr_ == 0) {
        HLOG(Warning) << "ldl: lazy link of '" << modules_[touched].name
                      << "' failed: " << st.ToString();
      }
      return false;
    }
    return true;
  }

  // (b) A pointer followed into the shared region: translate address -> file, map it.
  if (InSfsRegion(fault.addr) && fault.kind == FaultKind::kUnmapped) {
    Result<uint32_t> ino = machine.sfs().AddrToInode(fault.addr);
    if (!ino.ok()) {
      return false;  // no file there: a stray pointer
    }
    Result<std::string> rel = machine.sfs().InodeToPath(*ino);
    if (!rel.ok()) {
      return false;
    }
    std::string path = std::string(kSfsMount) + *rel;
    Result<SfsStat> st_result = machine.sfs().StatInode(*ino);
    if (!st_result.ok()) {
      return false;
    }
    SfsStat st = *st_result;
    if (machine.sfs().CreationPending(*ino) && CreatorBlocksUs(*ino, proc.pid())) {
      // Half-written by a live creator: wait for its unlock rather than mapping
      // (or rebuilding over) bytes that are still changing.
      blocked_on_addr_ = SfsAddressForInode(*ino);
      return false;
    }
    Result<std::span<const uint8_t>> file = machine.sfs().View(*ino);
    if (!file.ok()) {
      return false;
    }
    if (LinkedModule::LooksLikeModuleFile(*file)) {
      // A module file reached by address: register it with ldl (lazy if unlinked).
      Result<LinkedModule> mod = LinkedModule::ParseTrailer(*file);
      if (!mod.ok()) {
        return false;
      }
      Result<int> idx = RegisterLinked(proc, std::move(*mod), ShareClass::kDynamicPublic, path,
                                       *ino, /*parent=*/-1);
      if (!idx.ok()) {
        return false;
      }
      ++*c_map_faults_;
      if (trace_->enabled()) trace_->Emit(TraceKind::kFaultHandled, "map", path, fault.addr);
      return true;
    }
    // A plain data segment: just map the file at its address, access rights
    // permitting — "it ... opens and maps the file. It then restarts the faulting
    // instruction."
    uint32_t base = SfsAddressForInode(*ino);
    uint32_t len = std::max<uint32_t>(PageCeil(st.size), kPageSize);
    if (!machine.sfs().EnsureExtent(*ino, len).ok()) {
      return false;
    }
    if (!proc.space().MapPublic(base, len, Prot::kReadWrite, *ino, 0).ok()) {
      return false;
    }
    ++*c_map_faults_;
    if (trace_->enabled()) trace_->Emit(TraceKind::kFaultHandled, "map", path, fault.addr);
    return true;
  }
  return false;
}

void Ldl::LoadManifest(Process& proc) {
  (void)proc;
  {
    std::vector<uint8_t> img = image_.Serialize();
    image_hash_ = Fnv1a64(img.data(), img.size());
  }
  SharedFs& sfs = machine_->sfs();
  Vfs& vfs = machine_->vfs();
  if (!vfs.Exists(kLdlManifestPath)) {
    ++*c_manifest_misses_;  // first run on this partition: nothing recorded yet
    return;
  }
  // A pending creation marker means a writer crashed mid-manifest (or is mid-write
  // right now): the bytes cannot be trusted even if they happen to parse.
  Result<SfsStat> st = sfs.Stat(Vfs::SfsRelative(kLdlManifestPath));
  if (!st.ok() || sfs.CreationPending(st->ino)) {
    ++*c_manifest_rejected_;
    HLOG(Warning) << "ldl: resolution manifest has a pending creation marker; ignoring it";
    return;
  }
  Result<std::vector<uint8_t>> bytes = vfs.ReadFile(kLdlManifestPath);
  if (!bytes.ok()) {
    ++*c_manifest_rejected_;
    return;
  }
  // One verified parse is shared across the back-to-back Execs of a scheduled
  // --procs run: each Exec makes a fresh Ldl, but the manifest bytes and module
  // files cannot change between them, so re-parsing and re-hashing every module
  // per process is pure waste. Keyed by machine + manifest content + image so
  // any other reuse (different world, rewritten manifest) misses; the
  // install-time identity re-check in RegisterLinked still guards each module.
  uint64_t bytes_hash = Fnv1a64(bytes->data(), bytes->size());
  {
    SharedManifestParse& cache = SharedParse();
    std::lock_guard<std::mutex> lock(cache.mu);
    if (cache.machine == machine_->serial() && cache.bytes_hash == bytes_hash &&
        cache.image_hash == image_hash_) {
      manifest_ = cache.manifest;
      warm_ = cache.warm;
      warm_parsed_ = cache.warm_parsed;
      ++*c_manifest_shared_parses_;
      return;
    }
  }
  Result<ResolutionManifest> parsed = ResolutionManifest::Deserialize(*bytes);
  if (!parsed.ok()) {
    // Torn, corrupt, or from a different format version — never an error for the
    // program. Resolution proceeds cold and the next write replaces the file.
    ++*c_manifest_rejected_;
    HLOG(Warning) << "ldl: ignoring unusable resolution manifest: "
                  << parsed.status().ToString();
    return;
  }
  manifest_ = std::move(*parsed);
  const ManifestImage* img = manifest_.FindImage(image_hash_);
  if (img == nullptr) {
    ++*c_manifest_misses_;
    return;
  }
  // Verify every recorded module against the bytes on disk, all-or-nothing: a
  // single changed module moves symbols that *other* modules' recorded resolutions
  // point at, so partial installs would be unsound. Public modules verify against
  // the template_hash stamped in their HML trailer; private instances verify by
  // recomputing what LinkModuleAtBase would stamp (deterministic linking).
  std::unordered_map<std::string, ManifestModule> staged;
  staged.reserve(img->modules.size());
  std::unordered_map<std::string, LinkedModule> parsed_modules;
  for (const ManifestModule& rec : img->modules) {
    bool ok = false;
    if (IsPublic(rec.cls)) {
      Result<SfsStat> mst = vfs.Exists(rec.key) ? sfs.Stat(Vfs::SfsRelative(rec.key))
                                                : Result<SfsStat>(NotFound("module file gone"));
      if (mst.ok() && mst->ino == rec.ino && !sfs.CreationPending(mst->ino)) {
        Result<std::span<const uint8_t>> mb = vfs.ViewSharedFile(rec.key);
        if (mb.ok()) {
          Result<LinkedModule> mod = LinkedModule::ParseTrailer(*mb);
          if (mod.ok() && mod->base == rec.base && mod->template_hash != 0 &&
              mod->template_hash == rec.src_hash) {
            ok = true;
            parsed_modules.emplace(rec.key, std::move(*mod));
          }
        }
      }
    } else {
      Result<std::vector<uint8_t>> tb = vfs.ReadFile(rec.key);
      ok = tb.ok() && LinkedTemplateHash(*tb, rec.base) == rec.src_hash;
    }
    if (!ok) {
      ++*c_manifest_misses_;
      HLOG(Info) << "ldl: manifest record for '" << rec.key
                 << "' no longer matches the bytes on disk; resolving cold";
      return;  // staged records are dropped with the local map
    }
    staged.emplace(rec.key, rec);
  }
  warm_ = std::move(staged);
  warm_parsed_ = std::move(parsed_modules);
  SharedManifestParse& cache = SharedParse();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.machine = machine_->serial();
  cache.bytes_hash = bytes_hash;
  cache.image_hash = image_hash_;
  cache.manifest = manifest_;
  cache.warm = warm_;
  cache.warm_parsed = warm_parsed_;
}

Status Ldl::WriteManifest() {
  if (modules_.empty()) {
    return OkStatus();
  }
  if (!manifest_dirty_ && manifest_.FindImage(image_hash_) != nullptr) {
    return OkStatus();  // warm start with nothing new: leave the file untouched
  }
  ManifestImage record;
  record.image_hash = image_hash_;
  for (const RtModule& m : modules_) {
    if (m.src_hash == 0) {
      continue;  // pre-hash HML file: unverifiable on the next boot, never recorded
    }
    ManifestModule rec;
    rec.key = m.key;
    rec.name = m.name;
    rec.cls = m.cls;
    rec.base = m.base;
    rec.ino = m.ino;
    rec.src_hash = m.src_hash;
    rec.resolved.assign(m.resolved.begin(), m.resolved.end());
    // Teardown-time negative knowledge: symbols still unresolved now (plus any
    // carried over from the last record) are known-absent for this module set.
    {
      std::set<std::string> negs(m.unresolved.begin(), m.unresolved.end());
      negs.insert(m.manifest_negative.begin(), m.manifest_negative.end());
      for (const auto& [symbol, addr] : m.resolved) {
        (void)addr;
        negs.erase(symbol);  // resolved on a later fault after all: not absent
      }
      rec.negatives.assign(negs.begin(), negs.end());
    }
    if (m.warm_covered) {
      // Covered modules skipped the install, so their table still lives in
      // |warm_|; union it in (fresh decisions win) or the record would shrink.
      auto w = warm_.find(m.key);
      if (w != warm_.end() && w->second.src_hash == m.src_hash && w->second.base == m.base) {
        for (const auto& entry : w->second.resolved) {
          if (m.resolved.find(entry.first) == m.resolved.end()) {
            rec.resolved.push_back(entry);
          }
        }
        std::sort(rec.resolved.begin(), rec.resolved.end());
      }
    }
    record.modules.push_back(std::move(rec));
  }
  manifest_.Upsert(std::move(record));
  std::vector<uint8_t> bytes = manifest_.Serialize();
  if (bytes.size() > kSfsMaxFileBytes) {
    manifest_dirty_ = false;  // oversized stays oversized; don't retry every fault
    return ResourceExhausted("ldl: resolution manifest exceeds the partition file limit");
  }
  SharedFs& sfs = machine_->sfs();
  std::string rel = Vfs::SfsRelative(kLdlManifestPath);
  uint32_t ino = 0;
  Result<SfsStat> st = sfs.Stat(rel);
  if (st.ok()) {
    ino = st->ino;
  } else {
    ASSIGN_OR_RETURN(ino, sfs.Create(rel));
  }
  // Same torn-write discipline as module creation: the pending marker goes up
  // before the first byte moves, so a crash anywhere in the window leaves a file
  // the next boot rejects (and rebuilds) instead of trusting.
  FaultRegistry& faults = FaultRegistry::Global();
  RETURN_IF_ERROR(sfs.SetCreationPending(ino, true));
  RETURN_IF_ERROR(faults.Check("ldl.manifest.write"));
  RETURN_IF_ERROR(sfs.Truncate(ino, 0));
  RETURN_IF_ERROR(sfs.WriteAt(ino, 0, bytes.data(), static_cast<uint32_t>(bytes.size())));
  RETURN_IF_ERROR(faults.Check("ldl.manifest.written"));
  RETURN_IF_ERROR(sfs.SetCreationPending(ino, false));
  ++*c_manifest_rebuilds_;
  manifest_dirty_ = false;
  return OkStatus();
}

}  // namespace hemlock
