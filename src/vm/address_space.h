// A simulated 32-bit address space with page-grained mappings and protections.
//
// Two kinds of backing exist, mirroring the paper's private/public split (§5):
//   * private pages reference a per-process buffer (copied on fork), or are
//     demand-zero: they get their own zeroed page when first touched;
//   * public pages reference a shared-file-system inode at a file offset, so every
//     process mapping the same SFS file sees the same bytes — and stores write through
//     to the file.
//
// Mapping a range with Prot::kNone is how ldl arranges for the first touch of a
// partially linked module to fault (paper §2: "maps the module without access
// permissions, so that the first reference will cause a segmentation fault").
//
// Hot accesses go through a small direct-mapped software TLB in front of pages_:
// a hit turns a map lookup + extent check into an epoch compare and a pointer add.
// Entries are validated against TranslationEpoch(), which folds in every event
// that can move or revoke a host pointer (this space's map/unmap/protect
// generation plus the SFS data epoch), so invalidation is a counter bump —
// docs/PERFORMANCE.md has the full rules.
#ifndef SRC_VM_ADDRESS_SPACE_H_
#define SRC_VM_ADDRESS_SPACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/base/layout.h"
#include "src/base/status.h"
#include "src/sfs/shared_fs.h"

namespace hemlock {

enum class Prot : uint8_t {
  kNone = 0,
  kRead = 1,
  kWrite = 2,
  kExec = 4,
  kReadWrite = 3,
  kReadExec = 5,
  kAll = 7,
};

inline Prot operator|(Prot a, Prot b) {
  return static_cast<Prot>(static_cast<uint8_t>(a) | static_cast<uint8_t>(b));
}
inline bool HasProt(Prot prot, Prot want) {
  return (static_cast<uint8_t>(prot) & static_cast<uint8_t>(want)) ==
         static_cast<uint8_t>(want);
}

enum class AccessKind : uint8_t { kRead, kWrite, kExec };

// Why a memory access trapped.
enum class FaultKind : uint8_t { kUnmapped, kProtection };

struct Fault {
  uint32_t addr = 0;
  AccessKind access = AccessKind::kRead;
  FaultKind kind = FaultKind::kUnmapped;
};

// Backing store for private pages. Fork deep-copies these (classic pre-COW Unix
// semantics; bench_paper's BM_Fork* rows, from bench/bench_fork.cpp, measure the
// copy cost).
//
// A null backing maps the range demand-zero: no memory until a page is first
// touched. The first access that resolves such a page, from any path (the CPU's
// load, store or fetch, or the kernel's ReadBytes/WriteBytes), gives it a zeroed
// page of its own, on the TLB-miss path, so every vm.tlb.* count is the same as
// for an eagerly zeroed page. Fork copies only the materialized pages; untouched
// ones stay demand-zero in the parent and the child alike. Materializing changes
// the page map, so like a TLB fill it happens only on the process's own core in
// guest code, or on the kernel path while the process is stopped
// (docs/CONCURRENCY.md).
using PrivateBacking = std::shared_ptr<std::vector<uint8_t>>;

class AddressSpace {
 public:
  // |sfs| supplies the bytes behind public mappings; it must outlive the space.
  explicit AddressSpace(SharedFs* sfs) : sfs_(sfs) {}

  // Maps [vaddr, vaddr+len) to |backing| starting at |backing_off|. All page-aligned.
  // A null |backing| maps the range demand-zero (PrivateBacking above).
  Status MapPrivate(uint32_t vaddr, uint32_t len, Prot prot, PrivateBacking backing,
                    uint32_t backing_off);
  // Maps [vaddr, vaddr+len) to SFS file |ino| at |file_off|. The file's physical
  // extent must already cover the range (SharedFs::EnsureExtent).
  Status MapPublic(uint32_t vaddr, uint32_t len, Prot prot, uint32_t ino, uint32_t file_off);
  Status Unmap(uint32_t vaddr, uint32_t len);
  Status Protect(uint32_t vaddr, uint32_t len, Prot prot);

  bool IsMapped(uint32_t vaddr) const;
  // Protection of the page containing |vaddr| (kNone when unmapped).
  Prot ProtectionAt(uint32_t vaddr) const;
  // If the page is a public mapping, returns its inode; 0 otherwise.
  uint32_t PublicInodeAt(uint32_t vaddr) const;

  // --- CPU access paths: false => |fault| describes the trap ---
  bool Load32(uint32_t addr, uint32_t* out, Fault* fault) const;
  bool Load8(uint32_t addr, uint8_t* out, Fault* fault) const;
  bool Store32(uint32_t addr, uint32_t value, Fault* fault);
  bool Store8(uint32_t addr, uint8_t value, Fault* fault);
  bool Fetch(uint32_t addr, uint32_t* out, Fault* fault) const;

  // --- Kernel access paths (ignore protections; fail only on unmapped) ---
  Status ReadBytes(uint32_t addr, uint8_t* out, uint32_t len) const;
  Status WriteBytes(uint32_t addr, const uint8_t* data, uint32_t len);
  // Reads a NUL-terminated string (bounded at |max_len|).
  Result<std::string> ReadCString(uint32_t addr, uint32_t max_len = 4096) const;

  // Deep-copies the space for fork: private backings duplicated, public entries
  // shared. Returns the child space.
  std::unique_ptr<AddressSpace> Fork() const;

  // Total mapped pages (for diagnostics/benches).
  uint32_t MappedPages() const { return static_cast<uint32_t>(pages_.size()); }

  // --- Fast-path support (software TLB + code-page tracking) ---

  // Epoch a TLB entry (or any cached host pointer) must match to stay valid.
  uint64_t TranslationEpoch() const { return map_gen_ + sfs_->data_epoch(); }
  // Epoch a decoded basic block must match to stay valid: mapping changes plus
  // stores into pages known to hold decoded code (private or shared).
  uint64_t CodeEpoch() const { return map_gen_ + priv_code_epoch_ + sfs_->code_epoch(); }
  // The ExecCache decoded a block from |pc|'s page: watch that page for stores.
  void NoteCodePage(uint32_t pc);
  // Stops watching private pages for stores: the caller dropped every block it
  // decoded from them (a process's exit).
  void ReleaseCodePages();
  // Wires the vm.tlb.* counters and vm.pages.zero_filled (Machine owns the
  // registry; tests may skip this, or pass no |zero_filled| cell).
  void WireVmCounters(uint64_t* hits, uint64_t* misses, uint64_t* flushes,
                      uint64_t* zero_filled = nullptr);

  // --- The JIT TLB-probe contract ---
  //
  // The template JIT (src/vm/jit.cc) inlines a one-compare TLB probe into
  // generated host code. Each entry carries two access tags next to the page:
  //   * rtag is the page when an inline read may hit (the page is readable);
  //   * wtag is the page when an inline write may hit (writable and NOT
  //     executable — every store into an exec page must take the slow helper,
  //     since that is where NoteExecStore, the self-modifying-code epoch bump,
  //     lives).
  // Otherwise a tag holds kTlbNoTag. The probe indexes tlb_ with
  // (addr >> 7) & 0x1FE0 (page bits times the 32-byte entry), compares the tag
  // against addr & 0xFFFFF003 for a word (so a misaligned address misses too)
  // or addr & 0xFFFFF000 for a byte, and on a match accesses [bias + addr]. One
  // compare thus covers page match, permission and alignment; whatever it
  // rejects runs the full Resolve through Load32/Store32, so faults and
  // counters are those of the interpreter.
  //
  // The probe does not compare epochs. Instead the JIT calls SyncTlbTags before
  // every native run, which drops the tags of entries filled under an older
  // TranslationEpoch. That is sound because the epoch cannot move while native
  // code runs: map_gen_ moves only in this process's own syscalls and faults,
  // which exit native code first, and every SharedFs data-epoch bump happens
  // under a shootdown, which drains all cores out of guest code. Only tags are
  // dropped — page and epoch stay, so Resolve (and with it vm.tlb.misses) sees
  // exactly the entries it would have seen without the sync.
  //
  // The entry layout, the line count and the index function are part of this
  // contract: jit.cc static_asserts every offset the probe reads, so a layout
  // change fails the build instead of silently desynchronizing the two probes.
  static constexpr uint32_t kTlbEntries = 256;  // direct-mapped, 1-page lines
  // Never equals a masked guest address: those have bits 2..11 clear.
  static constexpr uint32_t kTlbNoTag = 4;
  struct TlbEntry {
    uint32_t page = kTlbNoTag;
    uint32_t rtag = kTlbNoTag;
    uint32_t wtag = kTlbNoTag;
    Prot prot = Prot::kNone;
    uint64_t epoch = 0;
    uintptr_t bias = 0;  // host address of the page's first byte, minus page
  };
  // Drops the tags of entries whose epoch is not TranslationEpoch(); returns at
  // once when the epoch has not moved since the last call.
  void SyncTlbTags() const;
  // True when a Load32 and a kernel write of the word at |addr| would both
  // succeed without a fault: aligned, and mapped readable and writable over
  // bytes that are present or demand-zero. Asks the TLB, then the page map, and
  // bumps no counter, fills no line and materializes no page, so a caller that
  // falls back leaves the access to be counted once, by the path that makes it.
  bool WordResolves(uint32_t addr) const;
  // The TLB array for the JIT's inlined probe (mutable cache, hence const).
  TlbEntry* tlb_for_jit() const { return tlb_; }

 private:
  struct PageEntry {
    Prot prot = Prot::kNone;
    bool is_public = false;
    // Private backing; null while a demand-zero page is untouched. The first
    // resolve fills it in, hence mutable (like the TLB, it changes under const
    // access paths).
    mutable PrivateBacking backing;
    uint32_t backing_off = 0;  // offset of this page within the backing
    // Public backing.
    uint32_t ino = 0;
    uint32_t file_off = 0;  // offset of this page within the file
  };

  // Resolves the host byte behind |addr| for an access of |len| bytes that must not
  // cross a page boundary. Returns nullptr and fills |fault| on failure.
  uint8_t* Resolve(uint32_t addr, uint32_t len, AccessKind access, bool check_prot,
                   Fault* fault) const;
  // Map walk behind the TLB (the original Resolve body); fills the TLB on success.
  uint8_t* ResolveSlow(uint32_t addr, uint32_t page, AccessKind access, bool check_prot,
                       Fault* fault) const;
  // The host address of |e|'s first byte; null when a public page's file no
  // longer covers it. Materializes an untouched demand-zero page.
  uint8_t* HostPage(const PageEntry& e) const;
  // A write retired in an exec-protected page: retire decoded blocks over it.
  void NoteExecStore(uint32_t addr) const;
  void BumpMapGen();

  SharedFs* sfs_;
  std::map<uint32_t, PageEntry> pages_;  // keyed by page-aligned vaddr

  // TLB state is logically cache, so const access paths may fill it.
  mutable TlbEntry tlb_[kTlbEntries];
  // TranslationEpoch() at the last SyncTlbTags.
  mutable uint64_t tags_epoch_ = 0;

  // Bumped by MapPrivate/MapPublic/Unmap/Protect; feeds both epochs above.
  uint64_t map_gen_ = 0;
  // Bumped by stores into private text pages holding decoded blocks.
  mutable uint64_t priv_code_epoch_ = 0;
  // One bit per private text page set by NoteCodePage, sized to the highest
  // page decoded from (text sits at the bottom of the region, so a few bytes).
  mutable std::vector<uint8_t> text_code_bits_;

  // vm.tlb.* and vm.pages.zero_filled counters — scratch-backed until the
  // Machine wires real handles in, so the hot path is an unconditional pointer
  // bump.
  mutable uint64_t tlb_scratch_ = 0;
  mutable uint64_t* tlb_hits_ = &tlb_scratch_;
  mutable uint64_t* tlb_misses_ = &tlb_scratch_;
  mutable uint64_t* tlb_flushes_ = &tlb_scratch_;
  mutable uint64_t* zero_filled_ = &tlb_scratch_;
};

}  // namespace hemlock

#endif  // SRC_VM_ADDRESS_SPACE_H_
