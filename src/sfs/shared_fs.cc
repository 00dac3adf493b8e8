#include "src/sfs/shared_fs.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "src/base/atomic_mem.h"
#include "src/base/faults.h"
#include "src/base/strings.h"
#include "src/sfs/remote_backing.h"
#include "src/sfs/sfs_check.h"

namespace hemlock {

namespace {
constexpr uint32_t kRootIno = 1;
constexpr uint32_t kSfsMagic = 0x53465348;  // "HSFS"
constexpr uint32_t kSfsVersion2 = 2;

// One bit per page across the whole 1 GB shared region.
constexpr uint32_t kSfsRegionBytes = kSfsMaxInodes * kSfsMaxFileBytes;
constexpr uint32_t kSfsCodeBitmapBytes = kSfsRegionBytes / kPageSize / 8;

// Whether |name| is the final component of the stored path |path|, without copying
// it out: most siblings fail on the separator check before any bytes are compared.
bool IsLeafOf(std::string_view path, std::string_view name) {
  return path.size() > name.size() && path[path.size() - name.size() - 1] == '/' &&
         path.ends_with(name);
}
}  // namespace

SharedFs::SharedFs()
    : inodes_(kSfsMaxInodes + 1),
      // Eager (32 KB): the bitmap is poked from guest execution on any core, so
      // it cannot be grown lazily without a racy allocation.
      code_page_bits_(new std::atomic<uint8_t>[kSfsCodeBitmapBytes]()) {
  inodes_[kRootIno].type = SfsNodeType::kDirectory;
  inodes_[kRootIno].path = "/";
  inodes_[kRootIno].parent = kRootIno;
}

Result<uint32_t> SharedFs::AllocInode() {
  for (uint32_t ino = 1; ino <= kSfsMaxInodes; ++ino) {
    if (inodes_[ino].type == SfsNodeType::kFree) {
      return ino;
    }
  }
  if (inode_exhausted_ != nullptr) {
    ++*inode_exhausted_;
  }
  return ResourceExhausted("sfs: all 1024 inodes in use");
}

uint32_t SharedFs::FindChild(uint32_t dir, std::string_view name) const {
  for (uint32_t child : inodes_[dir].children) {
    if (IsLeafOf(inodes_[child].path, name)) {
      return child;
    }
  }
  return 0;
}

Result<uint32_t> SharedFs::WalkDir(const std::string& dir_path) const {
  // Canonical paths (nearly every caller's) are walked in place; others once normalized.
  std::string normalized;
  std::string_view norm = dir_path;
  if (!IsCanonicalAbsolutePath(norm)) {
    normalized = NormalizePath(dir_path);
    norm = normalized;
  }
  uint32_t cur = kRootIno;
  size_t start = 0;
  while (start < norm.size()) {
    size_t end = norm.find('/', start);
    if (end == std::string_view::npos) {
      end = norm.size();
    }
    if (end > start) {
      if (inodes_[cur].type != SfsNodeType::kDirectory) {
        return NotFound("sfs: not a directory on path: " + dir_path);
      }
      cur = FindChild(cur, norm.substr(start, end - start));
      if (cur == 0) {
        return NotFound("sfs: no such path: " + dir_path);
      }
    }
    start = end + 1;
  }
  return cur;
}

Status SharedFs::ValidatePathForCreate(const std::string& path, uint32_t* parent_ino) const {
  std::string norm = NormalizePath(path);
  if (!IsAbsolutePath(norm) || norm == "/") {
    return InvalidArgument("sfs: bad path: " + path);
  }
  Result<uint32_t> parent = WalkDir(PathDirname(norm));
  if (!parent.ok()) {
    return parent.status();
  }
  if (inodes_[*parent].type != SfsNodeType::kDirectory) {
    return InvalidArgument("sfs: parent not a directory: " + path);
  }
  if (FindChild(*parent, std::string_view(norm).substr(norm.find_last_of('/') + 1)) != 0) {
    return AlreadyExists("sfs: exists: " + norm);
  }
  *parent_ino = *parent;
  return OkStatus();
}

Result<uint32_t> SharedFs::Create(const std::string& path) {
  uint32_t expect = 0;
  if (remote_active()) {
    // Forward-first: the server serializes the create (and its inode choice);
    // its queued invalidations have been applied locally by the time this
    // returns, so the deterministic allocator below must agree with |expect|.
    ASSIGN_OR_RETURN(expect, remote_->OnCreate(path));
  }
  uint32_t parent = 0;
  RETURN_IF_ERROR(ValidatePathForCreate(path, &parent));
  ASSIGN_OR_RETURN(uint32_t ino, AllocInode());
  if (expect != 0 && ino != expect) {
    return Internal(StrFormat("sfs: replica diverged: server created inode %u, local chose %u",
                              expect, ino));
  }
  ++clock_;
  // A freed inode can be recycled under a stale public mapping (unlink + create);
  // quiesce guest cores so none reads the node mid-initialization.
  ShootdownGuard shootdown = BeginShootdown();
  Inode& node = inodes_[ino];
  node.type = SfsNodeType::kRegular;
  node.path = NormalizePath(path);
  node.size = 0;
  node.data.clear();
  node.parent = parent;
  node.lock_owner = -1;
  node.lock_lease = 0;
  node.creation_pending = false;
  // Crash window between claiming the inode and linking it into its directory: a
  // crash here leaves a file its parent does not list, for fsck to reattach.
  Status fault = FaultRegistry::Global().Check("sfs.create.link");
  if (!fault.ok()) {
    if (!IsCrash(fault)) {
      node = Inode{};  // clean failure: release the inode again
    }
    return fault;
  }
  inodes_[parent].children.push_back(ino);
  AddAddrEntry(ino);
  return ino;
}

Result<uint32_t> SharedFs::Mkdir(const std::string& path) {
  uint32_t expect = 0;
  if (remote_active()) {
    ASSIGN_OR_RETURN(expect, remote_->OnMkdir(path));
  }
  uint32_t parent = 0;
  RETURN_IF_ERROR(ValidatePathForCreate(path, &parent));
  ASSIGN_OR_RETURN(uint32_t ino, AllocInode());
  if (expect != 0 && ino != expect) {
    return Internal(StrFormat("sfs: replica diverged: server created inode %u, local chose %u",
                              expect, ino));
  }
  ++clock_;
  Inode& node = inodes_[ino];
  node.type = SfsNodeType::kDirectory;
  node.path = NormalizePath(path);
  node.parent = parent;
  inodes_[parent].children.push_back(ino);
  return ino;
}

Status SharedFs::Unlink(const std::string& path, bool force) {
  if (remote_active()) {
    RETURN_IF_ERROR(remote_->OnUnlink(path, force));
  }
  ASSIGN_OR_RETURN(uint32_t ino, Lookup(path));
  if (ino == kRootIno) {
    return InvalidArgument("sfs: cannot unlink root");
  }
  Inode& node = inodes_[ino];
  if (!force && node.lock_owner != -1) {
    if (unlink_locked_refused_ != nullptr) {
      ++*unlink_locked_refused_;
    }
    return FailedPrecondition(StrFormat("sfs: '%s' is locked by pid %d; unlink would destroy the lock",
                                        node.path.c_str(), node.lock_owner));
  }
  if (node.type == SfsNodeType::kDirectory && !node.children.empty()) {
    return FailedPrecondition("sfs: directory not empty: " + path);
  }
  ++clock_;
  // The backing vector dies with the inode: stop every core before it dangles.
  ShootdownGuard shootdown = BeginShootdown();
  if (node.type == SfsNodeType::kRegular) {
    RemoveAddrEntry(ino);
    // The backing bytes are gone: stale TLB entries and decoded blocks over this
    // slot must not survive a later re-Create of the same inode.
    NoteMutatedRange(ino, 0, static_cast<uint32_t>(node.data.size()));
    ++data_epoch_;
  }
  Inode& parent = inodes_[node.parent];
  parent.children.erase(std::remove(parent.children.begin(), parent.children.end(), ino),
                        parent.children.end());
  node = Inode{};  // frees the inode (and its address slot for reuse)
  return OkStatus();
}

Result<uint32_t> SharedFs::Lookup(const std::string& path) const { return WalkDir(path); }

Result<SfsStat> SharedFs::Stat(const std::string& path) const {
  ASSIGN_OR_RETURN(uint32_t ino, Lookup(path));
  return StatInode(ino);
}

Result<SfsStat> SharedFs::StatInode(uint32_t ino) const {
  if (!InodeInUse(ino)) {
    return NotFound("sfs: bad inode " + std::to_string(ino));
  }
  const Inode& node = inodes_[ino];
  SfsStat st;
  st.ino = ino;
  st.type = node.type;
  st.size = node.size;
  st.addr = node.type == SfsNodeType::kRegular ? SfsAddressForInode(ino) : 0;
  return st;
}

Result<std::vector<std::string>> SharedFs::List(const std::string& path) const {
  ASSIGN_OR_RETURN(uint32_t ino, Lookup(path));
  const Inode& node = inodes_[ino];
  if (node.type != SfsNodeType::kDirectory) {
    return InvalidArgument("sfs: not a directory: " + path);
  }
  std::vector<std::string> names;
  names.reserve(node.children.size());
  for (uint32_t child : node.children) {
    names.push_back(PathBasename(inodes_[child].path));
  }
  std::sort(names.begin(), names.end());
  return names;
}

Status SharedFs::Link(const std::string& existing, const std::string& link) {
  return PermissionDenied("sfs: hard links are prohibited on the shared partition");
}

Result<uint32_t> SharedFs::Symlink(const std::string& path, const std::string& target) {
  uint32_t expect = 0;
  if (remote_active()) {
    ASSIGN_OR_RETURN(expect, remote_->OnSymlink(path, target));
  }
  uint32_t parent = 0;
  RETURN_IF_ERROR(ValidatePathForCreate(path, &parent));
  ASSIGN_OR_RETURN(uint32_t ino, AllocInode());
  if (expect != 0 && ino != expect) {
    return Internal(StrFormat("sfs: replica diverged: server created inode %u, local chose %u",
                              expect, ino));
  }
  ++clock_;
  Inode& node = inodes_[ino];
  node.type = SfsNodeType::kSymlink;
  node.path = NormalizePath(path);
  node.symlink_target = target;
  node.parent = parent;
  inodes_[parent].children.push_back(ino);
  return ino;
}

Result<std::string> SharedFs::ReadLink(const std::string& path) const {
  ASSIGN_OR_RETURN(uint32_t ino, Lookup(path));
  if (inodes_[ino].type != SfsNodeType::kSymlink) {
    return InvalidArgument("sfs: not a symlink: " + path);
  }
  return inodes_[ino].symlink_target;
}

Status SharedFs::WriteAt(uint32_t ino, uint32_t offset, const uint8_t* data, uint32_t len) {
  if (remote_active()) {
    RETURN_IF_ERROR(remote_->OnWriteAt(ino, offset, data, len));
  }
  ASSIGN_OR_RETURN(SfsStat st, StatInode(ino));
  if (st.type != SfsNodeType::kRegular) {
    return InvalidArgument("sfs: not a regular file: inode " + std::to_string(ino));
  }
  if (static_cast<uint64_t>(offset) + len > kSfsMaxFileBytes) {
    if (enospc_ != nullptr) {
      ++*enospc_;
    }
    return OutOfRange("sfs: write past the 1 MB file limit");
  }
  ++clock_;
  Inode& node = inodes_[ino];
  Status fault = FaultRegistry::Global().Check("sfs.write");
  if (!fault.ok()) {
    if (IsCrash(fault) && len > 0) {
      // Torn write: half the payload lands in the extent, the logical size never
      // advances — exactly what a death between two sector writes leaves behind.
      uint32_t torn = len / 2;
      uint32_t torn_end = offset + torn;
      if (node.data.size() < torn_end) {
        ShootdownGuard shootdown = BeginShootdown();
        node.data.resize(torn_end, 0);
        ++data_epoch_;
      }
      RelaxedCopyTo(node.data.data() + offset, data, torn);
      NoteMutatedRange(ino, offset, torn);
    }
    return fault;
  }
  uint32_t end = offset + len;
  if (node.data.size() < end) {
    // The vector may reallocate; quiesce guest cores, then stale every cached
    // DataPtr. Bytes within the surviving extent are copied with relaxed atomics
    // instead — a plain shootdown-per-write would serialize every file write.
    ShootdownGuard shootdown = BeginShootdown();
    node.data.resize(end, 0);
    ++data_epoch_;
  }
  RelaxedCopyTo(node.data.data() + offset, data, len);
  node.size = std::max(node.size, end);
  // ldl rebuilds a module's segment through this path, under the VM's feet: any
  // decoded blocks over the written pages must die exactly like on a VM store.
  NoteMutatedRange(ino, offset, len);
  return OkStatus();
}

Result<uint32_t> SharedFs::ReadAt(uint32_t ino, uint32_t offset, uint8_t* out,
                                  uint32_t len) const {
  if (remote_active()) {
    // Pull absent pages before trusting local bytes (no-op once resident).
    RETURN_IF_ERROR(remote_->EnsureResident(ino, offset, len));
  }
  ASSIGN_OR_RETURN(std::span<const uint8_t> file, LocalView(ino));
  if (offset >= file.size()) {
    return 0u;
  }
  uint32_t n = std::min<uint32_t>(len, static_cast<uint32_t>(file.size()) - offset);
  RelaxedCopyFrom(out, file.data() + offset, n);
  return n;
}

Result<std::span<const uint8_t>> SharedFs::View(uint32_t ino) const {
  if (remote_active()) {
    ASSIGN_OR_RETURN(SfsStat st, StatInode(ino));
    RETURN_IF_ERROR(remote_->EnsureResident(ino, 0, st.size));
  }
  return LocalView(ino);
}

Result<std::span<const uint8_t>> SharedFs::LocalView(uint32_t ino) const {
  ASSIGN_OR_RETURN(SfsStat st, StatInode(ino));
  if (st.type != SfsNodeType::kRegular) {
    return InvalidArgument("sfs: not a regular file: inode " + std::to_string(ino));
  }
  const Inode& node = inodes_[ino];
  // Defense in depth: fsck clamps a logical size past the physical extent
  // (kBadExtent), but a read must never trust size over the bytes actually there.
  size_t n = std::min<size_t>(node.size, node.data.size());
  return std::span<const uint8_t>(node.data.data(), n);
}

Status SharedFs::Truncate(uint32_t ino, uint32_t new_size) {
  if (remote_active()) {
    RETURN_IF_ERROR(remote_->OnTruncate(ino, new_size));
  }
  ASSIGN_OR_RETURN(SfsStat st, StatInode(ino));
  if (st.type != SfsNodeType::kRegular) {
    return InvalidArgument("sfs: not a regular file");
  }
  if (new_size > kSfsMaxFileBytes) {
    if (enospc_ != nullptr) {
      ++*enospc_;
    }
    return OutOfRange("sfs: beyond the 1 MB file limit");
  }
  ++clock_;
  Inode& node = inodes_[ino];
  Status fault = FaultRegistry::Global().Check("sfs.truncate");
  if (!fault.ok()) {
    if (IsCrash(fault)) {
      node.size = new_size;  // torn truncate: the size moved, the dropped tail did not get zeroed
    }
    return fault;
  }
  // Rare administrative path: quiesce guest cores for the whole mutation (the
  // zeroing races guest reads; a regrow can realloc).
  ShootdownGuard shootdown = BeginShootdown();
  if (new_size < node.data.size()) {
    // Zero the dropped range so a later regrow reads zeros (POSIX truncate), not the
    // previous occupant's bytes. The extent itself survives: mapped pages keep their
    // backing address.
    std::fill(node.data.begin() + new_size, node.data.end(), 0);
    NoteMutatedRange(ino, new_size, static_cast<uint32_t>(node.data.size()) - new_size);
  }
  node.size = new_size;
  if (node.data.size() < new_size) {
    node.data.resize(new_size, 0);
    ++data_epoch_;  // possible realloc: cached DataPtrs are stale
  }
  ++data_epoch_;  // logical size changed: extent-staleness checks must rerun
  return OkStatus();
}

Result<uint32_t> SharedFs::AddressOf(uint32_t ino) const {
  ASSIGN_OR_RETURN(SfsStat st, StatInode(ino));
  if (st.type != SfsNodeType::kRegular) {
    return InvalidArgument("sfs: directories have no address");
  }
  return SfsAddressForInode(ino);
}

Result<uint32_t> SharedFs::AddrToInode(uint32_t addr) const {
  if (!InSfsRegion(addr)) {
    return OutOfRange(StrFormat("sfs: address 0x%08x outside the shared region", addr));
  }
  if (addr_lookups_ != nullptr) {
    ++*addr_lookups_;
  }
  uint32_t found = 0;  // inodes are 1-based; 0 means no file at |addr|
  if (lookup_mode_ == AddrLookupMode::kLinear) {
    // The paper's linear table: scan front to back (ablation baseline).
    uint64_t probes = 0;
    for (const AddrEntry& e : addr_table_) {
      ++probes;
      if (addr >= e.base && addr < e.limit) {
        found = e.ino;
        break;
      }
    }
    if (addr_lookup_probes_ != nullptr) {
      *addr_lookup_probes_ += probes;
    }
  } else {
    // Ordered interval lookup (default): greatest base <= addr, one O(log n) probe.
    if (addr_lookup_probes_ != nullptr) {
      ++*addr_lookup_probes_;
    }
    auto it = addr_index_.upper_bound(addr);
    if (it != addr_index_.begin()) {
      --it;
      if (addr >= it->second.base && addr < it->second.limit) {
        found = it->second.ino;
      }
    }
  }
  if (found == 0 && addr_lookup_misses_ != nullptr) {
    ++*addr_lookup_misses_;
  }
  if (trace_ != nullptr && trace_->enabled()) {
    trace_->Emit(TraceKind::kAddrLookup, found != 0 ? inodes_[found].path : "", "", addr, found);
  }
  if (found == 0) {
    return NotFound(StrFormat("sfs: no file at address 0x%08x", addr));
  }
  return found;
}

Result<std::string> SharedFs::InodeToPath(uint32_t ino) const {
  ASSIGN_OR_RETURN(SfsStat st, StatInode(ino));
  (void)st;
  return inodes_[ino].path;
}

Result<std::string> SharedFs::AddrToPath(uint32_t addr) const {
  ASSIGN_OR_RETURN(uint32_t ino, AddrToInode(addr));
  return InodeToPath(ino);
}

void SharedFs::AddAddrEntry(uint32_t ino) {
  AddrEntry e;
  e.base = SfsAddressForInode(ino);
  e.limit = e.base + kSfsMaxFileBytes;
  e.ino = ino;
  addr_table_.push_back(e);
  addr_index_[e.base] = e;
}

void SharedFs::RemoveAddrEntry(uint32_t ino) {
  uint32_t base = SfsAddressForInode(ino);
  addr_table_.erase(std::remove_if(addr_table_.begin(), addr_table_.end(),
                                   [&](const AddrEntry& e) { return e.ino == ino; }),
                    addr_table_.end());
  addr_index_.erase(base);
}

void SharedFs::RebuildAddrTable() {
  addr_table_.clear();
  addr_index_.clear();
  for (uint32_t ino = 1; ino <= kSfsMaxInodes; ++ino) {
    if (inodes_[ino].type == SfsNodeType::kRegular) {
      AddAddrEntry(ino);
    }
  }
}

Status SharedFs::EnsureExtent(uint32_t ino, uint32_t bytes) {
  if (remote_active()) {
    // The attach path (and the SIGSEGV auto-attach fault path) lands here: any
    // page about to become mappable must hold the server's bytes first.
    RETURN_IF_ERROR(remote_->EnsureResident(ino, 0, bytes));
  }
  ASSIGN_OR_RETURN(SfsStat st, StatInode(ino));
  if (st.type != SfsNodeType::kRegular) {
    return InvalidArgument("sfs: not a regular file");
  }
  if (bytes > kSfsMaxFileBytes) {
    if (enospc_ != nullptr) {
      ++*enospc_;
    }
    return OutOfRange("sfs: extent beyond the 1 MB file limit");
  }
  Inode& node = inodes_[ino];
  uint32_t want = PageCeil(bytes);
  if (node.data.size() < want) {
    // Quiesce guest cores across the realloc (the classic SMP shootdown moment).
    ShootdownGuard shootdown = BeginShootdown();
    node.data.resize(want, 0);
    ++data_epoch_;  // the vector may have reallocated; cached DataPtrs are stale
  }
  return OkStatus();
}

// --- Fast-path invalidation epochs ---

namespace {
inline bool SfsPageBit(uint32_t addr, uint32_t* byte_idx, uint8_t* mask) {
  if (!InSfsRegion(addr)) {
    return false;
  }
  uint32_t page = (addr - kSfsBase) / kPageSize;
  *byte_idx = page / 8;
  *mask = static_cast<uint8_t>(1u << (page % 8));
  return true;
}
}  // namespace

void SharedFs::NoteCodePage(uint32_t addr) {
  uint32_t idx;
  uint8_t mask;
  if (!SfsPageBit(addr, &idx, &mask)) {
    return;
  }
  code_bits_armed_.store(true, std::memory_order_relaxed);
  code_page_bits_[idx].fetch_or(mask, std::memory_order_relaxed);
}

void SharedFs::NoteExecStore(uint32_t addr) {
  uint32_t idx;
  uint8_t mask;
  if (!code_bits_armed_.load(std::memory_order_relaxed) || !SfsPageBit(addr, &idx, &mask)) {
    return;
  }
  if (code_page_bits_[idx].load(std::memory_order_relaxed) & mask) {
    // Self-modifying (or self-overwriting) shared code: retire every decoded block
    // in every process. Rare and coarse by design — correctness over cleverness.
    code_page_bits_[idx].fetch_and(static_cast<uint8_t>(~mask), std::memory_order_relaxed);
    ++code_epoch_;
  }
}

void SharedFs::NoteMutatedRange(uint32_t ino, uint32_t offset, uint32_t len) {
  if (!code_bits_armed_.load(std::memory_order_relaxed) || len == 0) {
    return;
  }
  uint32_t base = SfsAddressForInode(ino);
  uint32_t first = PageFloor(base + offset);
  uint32_t last = PageFloor(base + offset + (len - 1));
  for (uint64_t page = first; page <= last; page += kPageSize) {
    NoteExecStore(static_cast<uint32_t>(page));
  }
}

uint8_t* SharedFs::DataPtr(uint32_t ino) {
  if (ino == 0 || ino > kSfsMaxInodes || inodes_[ino].type != SfsNodeType::kRegular) {
    return nullptr;
  }
  return inodes_[ino].data.data();
}

uint32_t SharedFs::ExtentBytes(uint32_t ino) const {
  if (ino == 0 || ino > kSfsMaxInodes || inodes_[ino].type != SfsNodeType::kRegular) {
    return 0;
  }
  return static_cast<uint32_t>(inodes_[ino].data.size());
}

Status SharedFs::LockInode(uint32_t ino, int pid) {
  if (remote_active()) {
    // The creation lock is a wire lease: the server grants or refuses
    // (kWouldBlock keeps ldl's existing retry/backoff loop working untouched),
    // and breaks leases of dead sessions like PR 2 breaks dead processes'.
    RETURN_IF_ERROR(remote_->OnLock(ino, pid));
  }
  ASSIGN_OR_RETURN(SfsStat st, StatInode(ino));
  (void)st;
  ++clock_;
  Inode& node = inodes_[ino];
  if (node.lock_owner != -1 && node.lock_owner != pid) {
    // A crashed creator must not wedge every later attacher: break the lock when
    // the holder is provably dead, or when its lease ran out on the op clock.
    bool holder_dead = pid_prober_ && !pid_prober_(node.lock_owner);
    bool lease_expired = clock_ >= node.lock_lease;
    if (!holder_dead && !lease_expired) {
      return WouldBlock(StrFormat("sfs: inode %u locked by pid %d", ino, node.lock_owner));
    }
    if (locks_broken_ != nullptr) {
      ++*locks_broken_;
    }
    if (trace_ != nullptr && trace_->enabled()) {
      trace_->Emit(TraceKind::kLockBroken, node.path, holder_dead ? "dead holder" : "lease expired",
                   0, static_cast<uint32_t>(node.lock_owner));
    }
    node.lock_owner = -1;
  }
  node.lock_owner = pid;
  node.lock_lease = clock_ + lock_lease_ops_;
  if (locks_taken_ != nullptr) {
    ++*locks_taken_;
  }
  if (trace_ != nullptr && trace_->enabled()) {
    trace_->Emit(TraceKind::kLockTaken, node.path, StrFormat("pid %d", pid), 0, ino);
  }
  return OkStatus();
}

Status SharedFs::UnlockInode(uint32_t ino, int pid) {
  if (remote_active()) {
    // Release point: the hook flushes this inode's dirty pages before the
    // server lets the lock go (lazy release consistency).
    RETURN_IF_ERROR(remote_->OnUnlock(ino, pid));
  }
  ASSIGN_OR_RETURN(SfsStat st, StatInode(ino));
  (void)st;
  Inode& node = inodes_[ino];
  if (node.lock_owner != pid) {
    return FailedPrecondition("sfs: unlock by non-owner");
  }
  node.lock_owner = -1;
  node.lock_lease = 0;
  if (unlock_hook_) {
    unlock_hook_(ino);
  }
  return OkStatus();
}

void SharedFs::ReleaseLocksOf(int pid) {
  if (remote_active()) {
    remote_->OnReleaseLocks(pid);
  }
  for (uint32_t ino = 0; ino < inodes_.size(); ++ino) {
    Inode& node = inodes_[ino];
    if (node.lock_owner == pid) {
      node.lock_owner = -1;
      node.lock_lease = 0;
      if (unlock_hook_) {
        unlock_hook_(ino);
      }
    }
  }
}

int SharedFs::LockOwner(uint32_t ino) const {
  if (ino == 0 || ino > kSfsMaxInodes || inodes_[ino].type == SfsNodeType::kFree) {
    return -1;
  }
  return inodes_[ino].lock_owner;
}

Status SharedFs::SetCreationPending(uint32_t ino, bool pending) {
  if (remote_active()) {
    RETURN_IF_ERROR(remote_->OnSetPending(ino, pending));
  }
  ASSIGN_OR_RETURN(SfsStat st, StatInode(ino));
  if (st.type != SfsNodeType::kRegular) {
    return InvalidArgument("sfs: only regular files carry creation markers");
  }
  inodes_[ino].creation_pending = pending;
  return OkStatus();
}

bool SharedFs::CreationPending(uint32_t ino) const {
  return ino >= 1 && ino <= kSfsMaxInodes && inodes_[ino].creation_pending;
}

Status SharedFs::InstallReplicaNode(uint32_t ino, SfsNodeType type, const std::string& path,
                                    uint32_t parent, uint32_t size, bool pending,
                                    const std::string& target) {
  if (ino < 2 || ino > kSfsMaxInodes || type == SfsNodeType::kFree) {
    return InvalidArgument(StrFormat("sfs: replica node inode %u out of range", ino));
  }
  if (inodes_[ino].type != SfsNodeType::kFree) {
    return AlreadyExists(StrFormat("sfs: replica node inode %u already in use", ino));
  }
  if (parent < 1 || parent > kSfsMaxInodes ||
      inodes_[parent].type != SfsNodeType::kDirectory) {
    return InvalidArgument(StrFormat("sfs: replica node %u has no directory parent %u", ino,
                                     parent));
  }
  ++clock_;
  ShootdownGuard shootdown = BeginShootdown();
  Inode& node = inodes_[ino];
  node.type = type;
  node.path = NormalizePath(path);
  node.size = type == SfsNodeType::kRegular ? size : 0;
  node.data.clear();  // bytes arrive page by page via ReplicaInstallPage
  node.parent = parent;
  node.symlink_target = target;
  node.lock_owner = -1;
  node.lock_lease = 0;
  node.creation_pending = pending;
  inodes_[parent].children.push_back(ino);
  if (type == SfsNodeType::kRegular) {
    AddAddrEntry(ino);
  }
  return OkStatus();
}

Status SharedFs::ReplicaInstallPage(uint32_t ino, uint32_t page_index, const uint8_t* data,
                                    uint32_t len) {
  if (page_index >= kSfsMaxFileBytes / kPageSize || len > kPageSize) {
    return InvalidArgument("sfs: replica page out of range");
  }
  ASSIGN_OR_RETURN(SfsStat st, StatInode(ino));
  if (st.type != SfsNodeType::kRegular) {
    return InvalidArgument("sfs: replica page into a non-file inode");
  }
  Inode& node = inodes_[ino];
  uint32_t off = page_index * kPageSize;
  uint32_t want = off + kPageSize;
  if (node.data.size() < want) {
    ShootdownGuard shootdown = BeginShootdown();
    node.data.resize(want, 0);
    ++data_epoch_;
  }
  // Remote bytes land like DMA into possibly-mapped memory: relaxed per-byte
  // stores (a guest core may read concurrently and observes them at its next
  // synchronization point), and decoded code over the page is retired.
  static const uint8_t kZeroPage[kPageSize] = {};
  if (len > 0) {
    RelaxedCopyTo(node.data.data() + off, data, len);
  }
  if (len < kPageSize) {
    RelaxedCopyTo(node.data.data() + off + len, kZeroPage, kPageSize - len);
  }
  NoteMutatedRange(ino, off, kPageSize);
  return OkStatus();
}

Status SharedFs::Serialize(ByteWriter* w) const {
  w->U32(kSfsMagic);
  w->U32(kSfsVersion2);
  uint32_t used = InodesInUse();
  w->U32(used);
  uint32_t written = 0;
  for (uint32_t ino = 1; ino <= kSfsMaxInodes; ++ino) {
    const Inode& node = inodes_[ino];
    if (node.type == SfsNodeType::kFree) {
      continue;
    }
    if (written == used / 2) {
      // Mid-stream crash window: the buffer so far is a truncated image, which is
      // what lands on "disk" when the machine dies while checkpointing.
      RETURN_IF_ERROR(FaultRegistry::Global().Check("sfs.serialize"));
    }
    w->U32(ino);
    w->U8(static_cast<uint8_t>(node.type));
    w->Str(node.path);
    w->U32(node.parent);
    w->I32(node.lock_owner);
    w->U8(node.creation_pending ? 1 : 0);
    if (node.type == SfsNodeType::kRegular) {
      w->U32(node.size);
      w->U32(static_cast<uint32_t>(node.data.size()));
      w->Raw(node.data.data(), node.data.size());
    } else if (node.type == SfsNodeType::kSymlink) {
      w->Str(node.symlink_target);
    } else {
      w->U32(static_cast<uint32_t>(node.children.size()));
      for (uint32_t child : node.children) {
        w->U32(child);
      }
    }
    ++written;
  }
  return OkStatus();
}

Result<std::unique_ptr<SharedFs>> SharedFs::Deserialize(ByteReader* r, SfsCheckReport* report) {
  ASSIGN_OR_RETURN(uint32_t magic, r->U32());
  if (magic != kSfsMagic) {
    return CorruptData("sfs: bad magic");
  }
  // v1 images wrote the inode-table size here; v2 writes a small version number.
  ASSIGN_OR_RETURN(uint32_t version, r->U32());
  auto fs = std::make_unique<SharedFs>();
  fs->inodes_[kRootIno] = Inode{};  // the image speaks for every inode, root included

  // Parses one v1 record in place (positional: the inode number is implicit).
  auto parse_v1_record = [&fs, r](uint32_t ino) -> Status {
    Inode& node = fs->inodes_[ino];
    ASSIGN_OR_RETURN(uint8_t type, r->U8());
    if (type > static_cast<uint8_t>(SfsNodeType::kSymlink)) {
      return CorruptData(StrFormat("sfs: inode %u: bad type byte %u", ino, type));
    }
    node.type = static_cast<SfsNodeType>(type);
    if (node.type == SfsNodeType::kFree) {
      return OkStatus();
    }
    ASSIGN_OR_RETURN(node.path, r->Str());
    ASSIGN_OR_RETURN(node.parent, r->U32());
    if (node.type == SfsNodeType::kRegular) {
      ASSIGN_OR_RETURN(node.size, r->U32());
      ASSIGN_OR_RETURN(uint32_t extent, r->U32());
      if (extent > kSfsMaxFileBytes) {
        return CorruptData(StrFormat("sfs: inode %u: extent %u beyond the 1 MB limit", ino, extent));
      }
      node.data.resize(extent);
      RETURN_IF_ERROR(r->ReadRaw(node.data.data(), extent));
    } else if (node.type == SfsNodeType::kSymlink) {
      ASSIGN_OR_RETURN(node.symlink_target, r->Str());
    } else {
      ASSIGN_OR_RETURN(uint32_t n, r->U32());
      if (n > kSfsMaxInodes) {
        return CorruptData(StrFormat("sfs: inode %u: %u directory entries", ino, n));
      }
      node.children.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        ASSIGN_OR_RETURN(node.children[i], r->U32());
      }
    }
    node.lock_owner = -1;  // v1 never persisted locks
    return OkStatus();
  };

  // Parses one v2 record into |*out| / |*out_ino| without touching the table.
  auto parse_v2_record = [r](Inode* out, uint32_t* out_ino) -> Status {
    ASSIGN_OR_RETURN(*out_ino, r->U32());
    ASSIGN_OR_RETURN(uint8_t type, r->U8());
    if (type == 0 || type > static_cast<uint8_t>(SfsNodeType::kSymlink)) {
      return CorruptData(StrFormat("sfs: record for inode %u: bad type byte %u", *out_ino, type));
    }
    out->type = static_cast<SfsNodeType>(type);
    ASSIGN_OR_RETURN(out->path, r->Str());
    ASSIGN_OR_RETURN(out->parent, r->U32());
    ASSIGN_OR_RETURN(out->lock_owner, r->I32());
    ASSIGN_OR_RETURN(uint8_t flags, r->U8());
    out->creation_pending = (flags & 1) != 0;
    if (out->type == SfsNodeType::kRegular) {
      ASSIGN_OR_RETURN(out->size, r->U32());
      ASSIGN_OR_RETURN(uint32_t extent, r->U32());
      if (extent > kSfsMaxFileBytes) {
        return CorruptData(
            StrFormat("sfs: record for inode %u: extent %u beyond the 1 MB limit", *out_ino, extent));
      }
      out->data.resize(extent);
      RETURN_IF_ERROR(r->ReadRaw(out->data.data(), extent));
    } else if (out->type == SfsNodeType::kSymlink) {
      ASSIGN_OR_RETURN(out->symlink_target, r->Str());
    } else {
      ASSIGN_OR_RETURN(uint32_t n, r->U32());
      if (n > kSfsMaxInodes) {
        return CorruptData(StrFormat("sfs: record for inode %u: %u directory entries", *out_ino, n));
      }
      out->children.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        ASSIGN_OR_RETURN(out->children[i], r->U32());
      }
    }
    if (*out_ino == 0 || *out_ino > kSfsMaxInodes) {
      return CorruptData(StrFormat("sfs: record claims inode %u, outside the table", *out_ino));
    }
    return OkStatus();
  };

  Status parse = OkStatus();
  if (version == kSfsMaxInodes) {
    // v1: one positional record per table slot.
    for (uint32_t ino = 1; ino <= kSfsMaxInodes; ++ino) {
      parse = parse_v1_record(ino);
      if (!parse.ok()) {
        fs->inodes_[ino] = Inode{};  // drop the half-read record
        break;
      }
    }
  } else if (version == kSfsVersion2) {
    ASSIGN_OR_RETURN(uint32_t used, r->U32());
    if (used > kSfsMaxInodes) {
      return CorruptData("sfs: used-inode count exceeds the table");
    }
    for (uint32_t i = 0; i < used; ++i) {
      Inode tmp;
      uint32_t ino = 0;
      parse = parse_v2_record(&tmp, &ino);
      if (!parse.ok()) {
        break;
      }
      if (fs->inodes_[ino].type != SfsNodeType::kFree) {
        // Two records claim one inode — i.e. one fixed address. First claim wins;
        // honoring the second would silently alias two files onto one segment.
        Status dup = CorruptData(
            StrFormat("sfs: duplicate claim on inode %u (address 0x%08x) by '%s'; '%s' keeps it",
                      ino, SfsAddressForInode(ino), tmp.path.c_str(), fs->inodes_[ino].path.c_str()));
        if (report == nullptr) {
          return dup;
        }
        report->Add(SfsIssueKind::kDuplicateInode, ino, dup.message(), true);
        continue;
      }
      fs->inodes_[ino] = std::move(tmp);
    }
  } else {
    return UnsupportedVersion(StrFormat("sfs: unknown image version %u", version));
  }

  if (!parse.ok()) {
    if (report == nullptr) {
      return parse;  // strict load: a torn stream is fatal
    }
    // Salvage load: keep the readable prefix and let fsck restore the invariants.
    report->Add(SfsIssueKind::kTruncatedImage, 0, parse.message(), true);
  }

  // Boot-time scan (paper §3): rebuild the address table from the on-disk state,
  // then fsck the result — a reboot is exactly when torn state surfaces.
  fs->RebuildAddrTable();
  SfsCheckReport local;
  SfsCheckReport* fsck_report = report != nullptr ? report : &local;
  SfsCheck(fs.get()).Run(/*at_boot=*/true, fsck_report);
  if (report == nullptr && !local.structurally_clean()) {
    return CorruptData("sfs: image failed the consistency check: " + local.ToString());
  }
  return fs;
}

void SharedFs::SetObservers(MetricsRegistry* metrics, TraceBuffer* trace) {
  metrics_ = metrics;
  trace_ = trace;
  if (metrics_ != nullptr) {
    addr_lookups_ = metrics_->Counter("sfs.addr_lookups");
    addr_lookup_probes_ = metrics_->Counter("sfs.addr_lookup_probes");
    addr_lookup_misses_ = metrics_->Counter("sfs.addr_lookup_misses");
    locks_taken_ = metrics_->Counter("sfs.locks_taken");
    locks_broken_ = metrics_->Counter("sfs.locks_broken");
    unlink_locked_refused_ = metrics_->Counter("sfs.unlink_locked_refused");
    enospc_ = metrics_->Counter("sfs.enospc");
    inode_exhausted_ = metrics_->Counter("sfs.inode_exhausted");
  } else {
    addr_lookups_ = addr_lookup_probes_ = addr_lookup_misses_ = nullptr;
    locks_taken_ = locks_broken_ = unlink_locked_refused_ = nullptr;
    enospc_ = inode_exhausted_ = nullptr;
  }
}

uint32_t SharedFs::InodesInUse() const {
  uint32_t n = 0;
  for (uint32_t ino = 1; ino <= kSfsMaxInodes; ++ino) {
    if (inodes_[ino].type != SfsNodeType::kFree) {
      ++n;
    }
  }
  return n;
}

}  // namespace hemlock
