// The Hemlock shared file system (paper §3, "Address Space and File System
// Organization").
//
// A dedicated partition whose files are the backing store for shared segments:
//   * exactly 1024 inodes; each file is capped at 1 MB;
//   * hard links (other than '.' and '..') are prohibited, so path <-> inode is 1:1;
//   * every regular file has a unique, globally agreed virtual address inside the 1 GB
//     region reserved between heap and stack:  addr(ino) = kSfsBase + (ino-1) * 1 MB;
//   * the kernel keeps an address -> file mapping in a *linear lookup table*, built by a
//     boot-time scan of the partition and updated as files are created and destroyed;
//   * new kernel calls translate inode -> path and open a file *by address*.
//
// All ordinary Unix file operations work here (read/write/stat/unlink/readdir); the only
// thing that sets the partition apart is the name <-> address association.
//
// Crash safety: mutating operations carry named fault points (FaultRegistry), the
// creation lock carries an operation-clock lease so a dead holder cannot wedge the
// partition, and Deserialize always runs the SfsCheck fsck pass so a torn image
// (crash mid-serialize, crash mid-create) comes back up consistent.
#ifndef SRC_SFS_SHARED_FS_H_
#define SRC_SFS_SHARED_FS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/layout.h"
#include "src/base/metrics.h"
#include "src/base/status.h"
#include "src/base/trace.h"

namespace hemlock {

struct SfsCheckReport;
class RemoteBacking;

// Hard links are prohibited (1:1 inode <-> path); *symbolic* links are ordinary
// inodes holding a target path and are what the paper's Presto recipe plants in
// per-job temp directories.
enum class SfsNodeType : uint8_t { kFree = 0, kRegular = 1, kDirectory = 2, kSymlink = 3 };

struct SfsStat {
  uint32_t ino = 0;
  SfsNodeType type = SfsNodeType::kFree;
  uint32_t size = 0;
  uint32_t addr = 0;  // 0 for directories
};

// Strategy for the kernel's address -> inode translation (DESIGN.md ablation F3):
// the paper uses a linear table "for the sake of simplicity" and plans a B-tree-backed
// index for the 64-bit version. We default to the ordered interval index (the paper's
// planned replacement); kLinear remains as the ablation baseline.
enum class AddrLookupMode { kLinear, kIndexed };

class SharedFs {
 public:
  SharedFs();

  SharedFs(const SharedFs&) = delete;
  SharedFs& operator=(const SharedFs&) = delete;

  // --- Path operations (traditional Unix interface) ---

  // Creates an empty regular file. Consumes an inode; fails with kResourceExhausted
  // when all 1024 are in use.
  Result<uint32_t> Create(const std::string& path);
  Result<uint32_t> Mkdir(const std::string& path);
  // Removes a file or empty directory; frees the inode and its address slot.
  // Refuses (kFailedPrecondition) while the inode's creation lock is held — destroying
  // a locked segment under its creator would orphan the lock and tear the creation
  // protocol. Pass force=true to override (fsck / administrative tools only).
  Status Unlink(const std::string& path) { return Unlink(path, /*force=*/false); }
  Status Unlink(const std::string& path, bool force);
  Result<uint32_t> Lookup(const std::string& path) const;
  Result<SfsStat> Stat(const std::string& path) const;
  // Entry names in a directory, sorted — the paper leans on this for manual garbage
  // collection ("the ability to peruse all of the segments in existence").
  Result<std::vector<std::string>> List(const std::string& path) const;
  bool Exists(const std::string& path) const { return Lookup(path).ok(); }

  // Hard links are prohibited (paper §3); this always fails and exists so callers can
  // verify the restriction.
  Status Link(const std::string& existing, const std::string& link);

  // Creates a symbolic link whose literal target is |target| (any VFS path).
  Result<uint32_t> Symlink(const std::string& path, const std::string& target);
  // Reads a symlink's target.
  Result<std::string> ReadLink(const std::string& path) const;

  // --- Inode-level I/O ---

  Status WriteAt(uint32_t ino, uint32_t offset, const uint8_t* data, uint32_t len);
  Result<uint32_t> ReadAt(uint32_t ino, uint32_t offset, uint8_t* out, uint32_t len) const;
  // A read-only view of a regular file's bytes, bounded by both its logical size
  // and its physical extent: what ReadAt(ino, 0, ..., size) would copy, without
  // the copy. On a replica it first makes the whole file resident, exactly as
  // that ReadAt would. The view is valid until the next mutation of this
  // partition. Bytes under a guest mapping may change under it (another core's
  // stores); a reader that can race those reads them with relaxed loads
  // (src/base/atomic_mem.h).
  Result<std::span<const uint8_t>> View(uint32_t ino) const;
  // Shrinking zeroes the dropped tail so a later regrow reads zeros (POSIX truncate
  // semantics), not another segment's stale bytes. The physical extent is kept, so
  // DataPtr stays stable for mapped pages.
  Status Truncate(uint32_t ino, uint32_t new_size);
  Result<SfsStat> StatInode(uint32_t ino) const;
  // Whether |ino| names a file, directory or symlink: StatInode's success,
  // without building the NotFound a free inode gets.
  bool InodeInUse(uint32_t ino) const {
    return ino != 0 && ino <= kSfsMaxInodes && inodes_[ino].type != SfsNodeType::kFree;
  }

  // --- The address mapping (the paper's kernel extensions) ---

  // The file's fixed virtual address; valid for regular files.
  Result<uint32_t> AddressOf(uint32_t ino) const;
  // addr -> inode via the lookup table. |addr| may point anywhere inside the file's
  // 1 MB slot. kNotFound if no file owns that address.
  Result<uint32_t> AddrToInode(uint32_t addr) const;
  // New kernel call (paper §3): inode -> path.
  Result<std::string> InodeToPath(uint32_t ino) const;
  // New kernel call: addr -> path (stat already gave path -> addr via the inode number).
  Result<std::string> AddrToPath(uint32_t addr) const;

  // Rebuilds the lookup table by scanning every inode — run at boot (paper: "we
  // initialize the table at boot time by scanning the entire shared file system").
  void RebuildAddrTable();

  void set_lookup_mode(AddrLookupMode mode) { lookup_mode_ = mode; }
  AddrLookupMode lookup_mode() const { return lookup_mode_; }

  // Observability taps (owned by the Machine; may be null — e.g. a standalone
  // SharedFs in a unit test records nothing).
  void SetObservers(MetricsRegistry* metrics, TraceBuffer* trace);

  // --- Segment backing (used by the VM's mapper) ---

  // Guarantees the physical buffer covers [0, bytes) so pages can be mapped; the
  // logical size is not changed (like touching pages past EOF under mmap).
  Status EnsureExtent(uint32_t ino, uint32_t bytes);
  // Direct access to the shared backing bytes. The pointer is stable until the next
  // EnsureExtent/Truncate on the same inode.
  uint8_t* DataPtr(uint32_t ino);
  uint32_t ExtentBytes(uint32_t ino) const;

  // --- Fast-path invalidation epochs (see docs/PERFORMANCE.md) ---
  //
  // Every AddressSpace software-TLB entry and every decoded basic block is tagged
  // with an epoch at fill time and revalidated against the current epoch on use, so
  // invalidation is a counter bump here, never a walk of per-process caches.

  // Bumped whenever a DataPtr may dangle or stop covering a mapped page: extent
  // growth (vector realloc), truncate, unlink. TLB entries caching host pointers
  // into this partition die on the next access. Atomic because SMP guest cores
  // revalidate their TLBs against it without holding the kernel lock.
  uint64_t data_epoch() const { return data_epoch_.load(std::memory_order_relaxed); }
  // Bumped whenever bytes in a page that holds *decoded basic blocks* change —
  // stores through exec-mapped pages (self-modifying code) and kernel-side file
  // writes under a mapped module (ldl's segment rebuild). Tracked per page via a
  // bitmap so ordinary data stores into rw+exec segments never flush anyone.
  uint64_t code_epoch() const { return code_epoch_.load(std::memory_order_relaxed); }
  // An ExecCache decoded a block from |addr|'s page: start watching it for writes.
  void NoteCodePage(uint32_t addr);
  // A store retired in an exec-mapped shared page (any process' AddressSpace).
  void NoteExecStore(uint32_t addr);

  // --- Advisory locking (ldl's segment-creation lock, paper §4 fn. 3) ---

  // Takes the creation lock. A held lock is *broken* (cleared, counted in
  // sfs.locks_broken, traced as lock_broken) when its holder is provably dead (the
  // pid prober says so) or its lease has expired on the operation clock — a crashed
  // creator must not wedge every later attacher. Otherwise contention is kWouldBlock.
  Status LockInode(uint32_t ino, int pid);
  Status UnlockInode(uint32_t ino, int pid);
  // Releases every lock held by |pid| (process exit).
  void ReleaseLocksOf(int pid);
  // -1 when unlocked or |ino| invalid.
  int LockOwner(uint32_t ino) const;

  // Liveness oracle for lock holders (the Machine wires its process table in). Null
  // means "unknown": only lease expiry can break a lock.
  void SetPidProber(std::function<bool(int pid)> prober) { pid_prober_ = std::move(prober); }

  // Called after every successful lock release (explicit unlock or exit-time sweep)
  // with the inode freed. The Machine wires this to its scheduler so processes
  // blocked waiting for a creation lock wake up instead of polling.
  void SetUnlockHook(std::function<void(uint32_t ino)> hook) { unlock_hook_ = std::move(hook); }

  // --- Cross-core shootdown (the SMP machine's stop-the-world hook) ---
  //
  // An opaque token the hook returns; the mutation holds it for its whole danger
  // window. The SMP Machine returns a unique lock on its world lock here, which
  // drains every core out of guest execution before the bytes move — no core can
  // be dereferencing a cached DataPtr while the extent reallocates. Null (the
  // default, and always in single-core runs) means no quiescing is needed.
  using ShootdownGuard = std::shared_ptr<void>;
  void SetShootdownHook(std::function<ShootdownGuard()> hook) {
    shootdown_hook_ = std::move(hook);
  }

  // Every lease lasts this many operations on the partition (default 4096). Tests
  // shrink it to exercise expiry without thousands of ops.
  void set_lock_lease_ops(uint64_t ops) { lock_lease_ops_ = ops; }
  uint64_t lock_lease_ops() const { return lock_lease_ops_; }
  // Manually advances the operation clock (ldl's lock-retry backoff; the fault
  // registry's delay hook).
  void AdvanceClock(uint64_t ticks) { clock_ += ticks; }
  uint64_t clock() const { return clock_; }

  // --- Distributed shared segments (the hemnet replica seam; docs/DISTRIBUTED.md) ---

  // Installing a RemoteBacking turns this SharedFs into a *replica* of a
  // segment-coherence server's partition: every metadata mutation forwards to
  // the server before it lands locally (the hook also applies the server's
  // queued invalidations, preserving its serialization order), and reads pull
  // absent pages over the wire before local bytes are trusted.
  void SetRemoteBacking(RemoteBacking* remote) { remote_ = remote; }
  bool remote_attached() const { return remote_ != nullptr; }

  // Suspends forwarding while the network client applies remote state locally
  // (mount snapshots, invalidations) — those are the server's own mutations
  // coming back, not new ones to forward.
  class ScopedRemoteBypass {
   public:
    explicit ScopedRemoteBypass(SharedFs* fs) : fs_(fs) { ++fs_->remote_suspend_; }
    ~ScopedRemoteBypass() { --fs_->remote_suspend_; }
    ScopedRemoteBypass(const ScopedRemoteBypass&) = delete;
    ScopedRemoteBypass& operator=(const ScopedRemoteBypass&) = delete;

   private:
    SharedFs* fs_;
  };

  // Installs a node at an *explicit* inode number (mount snapshots: the
  // server's table can have holes from unlinks that a fresh replica could not
  // reproduce through Create). The node's logical size is set without
  // materializing any bytes — pages arrive later via ReplicaInstallPage.
  Status InstallReplicaNode(uint32_t ino, SfsNodeType type, const std::string& path,
                            uint32_t parent, uint32_t size, bool pending,
                            const std::string& target);
  // Lands one fetched page in the extent (grown as needed). |len| may be short
  // of a full page — the tail is zeroed; len == 0 zeroes the whole page. Bytes
  // land like DMA into possibly-mapped memory: relaxed stores, decoded code
  // over the page retired.
  Status ReplicaInstallPage(uint32_t ino, uint32_t page_index, const uint8_t* data,
                            uint32_t len);

  // --- Creation-complete marker (crash-safe public-module creation) ---

  // While set, the segment's contents are not trustworthy: the creator died (or is
  // still working) between Create and the final write. ldl sets it before writing a
  // public module and clears it after; an attacher seeing it rebuilds from template.
  Status SetCreationPending(uint32_t ino, bool pending);
  bool CreationPending(uint32_t ino) const;

  // --- Persistence across "reboots" ---

  // Writes the v2 image (explicit inode numbers, lock owners, creation markers).
  // Fails only when a fault is injected mid-stream — the buffer then holds a
  // deliberately truncated image for crash-recovery tests.
  Status Serialize(ByteWriter* w) const;
  // Reads a v1 or v2 image. With |report| == nullptr the load is strict: any
  // corruption (torn stream, duplicate inode claims, structural damage found by
  // fsck) fails with kCorruptData. With a report, the load *salvages*: the readable
  // prefix is kept, every issue is recorded, SfsCheck repairs the rest. Either way
  // the fsck pass runs with at_boot=true, so persisted locks never survive a reboot.
  static Result<std::unique_ptr<SharedFs>> Deserialize(ByteReader* r,
                                                       SfsCheckReport* report = nullptr);

  // Counts for introspection.
  uint32_t InodesInUse() const;
  uint32_t FreeInodes() const { return kSfsMaxInodes - InodesInUse(); }

 private:
  friend class SfsCheck;

  struct Inode {
    SfsNodeType type = SfsNodeType::kFree;
    std::string path;                 // canonical absolute path within the partition
    uint32_t size = 0;                // logical file size
    std::vector<uint8_t> data;        // physical extent (page-rounded when mapped)
    std::vector<uint32_t> children;   // directory entries
    std::string symlink_target;       // kSymlink
    uint32_t parent = 0;
    int lock_owner = -1;
    uint64_t lock_lease = 0;          // clock_ value at which the lock becomes breakable
    bool creation_pending = false;    // set between Create and the completing write
  };

  struct AddrEntry {
    uint32_t base = 0;
    uint32_t limit = 0;
    uint32_t ino = 0;
  };

  Result<uint32_t> AllocInode();
  // View without the replica's residency pull (ReadAt runs its own, ranged).
  Result<std::span<const uint8_t>> LocalView(uint32_t ino) const;
  Result<uint32_t> WalkDir(const std::string& dir_path) const;
  // The child of directory |dir| named |name|, 0 if none.
  uint32_t FindChild(uint32_t dir, std::string_view name) const;
  Status ValidatePathForCreate(const std::string& path, uint32_t* parent_ino) const;
  void AddAddrEntry(uint32_t ino);
  void RemoveAddrEntry(uint32_t ino);
  // Kernel-side mutation of a file's bytes (WriteAt/Truncate/Unlink): if any touched
  // page holds decoded code, retire those blocks the same way a VM store would.
  void NoteMutatedRange(uint32_t ino, uint32_t offset, uint32_t len);
  // Taken before any mutation that can invalidate a host pointer another core may
  // hold (extent realloc, truncate, unlink, inode recycling).
  ShootdownGuard BeginShootdown() const {
    return shootdown_hook_ ? shootdown_hook_() : nullptr;
  }

  // Inode 0 unused; inode 1 is the partition root directory.
  std::vector<Inode> inodes_;
  AddrLookupMode lookup_mode_ = AddrLookupMode::kIndexed;
  // Linear table (paper baseline) — scanned front to back.
  std::vector<AddrEntry> addr_table_;
  // Ordered interval index (default): base -> entry, probed with upper_bound.
  std::map<uint32_t, AddrEntry> addr_index_;

  // Lock leases: a logical clock ticked by every mutating operation. Simulated time,
  // so lease expiry is deterministic in tests.
  uint64_t clock_ = 0;
  uint64_t lock_lease_ops_ = 4096;
  std::function<bool(int)> pid_prober_;
  std::function<void(uint32_t)> unlock_hook_;
  std::function<ShootdownGuard()> shootdown_hook_;

  // Fast-path epochs (see accessors above). The code-page bitmap covers the whole
  // 1 GB SFS region at page granularity (32 KB) — a bit is set once an ExecCache
  // decodes from that page and cleared when the page mutates (epoch bump). Both
  // the epochs and the bitmap are touched from guest execution on any core, so
  // they are relaxed atomics; |code_bits_armed_| keeps the common no-shared-code
  // case a single load.
  std::atomic<uint64_t> data_epoch_{0};
  std::atomic<uint64_t> code_epoch_{0};
  std::unique_ptr<std::atomic<uint8_t>[]> code_page_bits_;
  std::atomic<bool> code_bits_armed_{false};

  // Distributed replica seam (null on an authoritative partition). The suspend
  // counter is only ever toggled with the kernel lock held, like every other
  // metadata mutation, so a plain int suffices.
  bool remote_active() const { return remote_ != nullptr && remote_suspend_ == 0; }
  RemoteBacking* remote_ = nullptr;
  int remote_suspend_ = 0;

  // Observability (null until the owning Machine wires itself in).
  MetricsRegistry* metrics_ = nullptr;
  TraceBuffer* trace_ = nullptr;
  uint64_t* addr_lookups_ = nullptr;
  uint64_t* addr_lookup_probes_ = nullptr;
  uint64_t* addr_lookup_misses_ = nullptr;
  uint64_t* locks_taken_ = nullptr;
  uint64_t* locks_broken_ = nullptr;
  uint64_t* unlink_locked_refused_ = nullptr;
  // Paper-limit exhaustion (ISSUE 5): every refusal is counted, never fatal.
  uint64_t* enospc_ = nullptr;           // writes/extents refused by the 1 MB file cap
  uint64_t* inode_exhausted_ = nullptr;  // creates refused with all 1024 inodes in use
};

// The fixed address of a regular file's segment, derived from its inode number.
inline constexpr uint32_t SfsAddressForInode(uint32_t ino) {
  return kSfsBase + (ino - 1) * kSfsMaxFileBytes;
}

}  // namespace hemlock

#endif  // SRC_SFS_SHARED_FS_H_
