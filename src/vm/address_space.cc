#include "src/vm/address_space.h"

#include <cstring>

#include "src/base/atomic_mem.h"
#include "src/base/strings.h"

namespace hemlock {

Status AddressSpace::MapPrivate(uint32_t vaddr, uint32_t len, Prot prot, PrivateBacking backing,
                                uint32_t backing_off) {
  if ((vaddr & kPageMask) != 0 || len == 0) {
    return InvalidArgument("map: unaligned address or empty range");
  }
  uint32_t pages = PageCeil(len) / kPageSize;
  if (backing != nullptr && backing->size() < backing_off + pages * kPageSize) {
    return InvalidArgument("map: private backing too small");
  }
  for (uint32_t i = 0; i < pages; ++i) {
    PageEntry& e = pages_[vaddr + i * kPageSize];
    e.prot = prot;
    e.is_public = false;
    e.backing = backing;
    e.backing_off = backing == nullptr ? 0 : backing_off + i * kPageSize;
    e.ino = 0;
  }
  BumpMapGen();
  return OkStatus();
}

Status AddressSpace::MapPublic(uint32_t vaddr, uint32_t len, Prot prot, uint32_t ino,
                               uint32_t file_off) {
  if ((vaddr & kPageMask) != 0 || (file_off & kPageMask) != 0 || len == 0) {
    return InvalidArgument("map: unaligned address or offset");
  }
  uint32_t pages = PageCeil(len) / kPageSize;
  if (sfs_->ExtentBytes(ino) < file_off + pages * kPageSize) {
    return InvalidArgument(StrFormat("map: inode %u extent too small for %u pages", ino, pages));
  }
  for (uint32_t i = 0; i < pages; ++i) {
    PageEntry& e = pages_[vaddr + i * kPageSize];
    e.prot = prot;
    e.is_public = true;
    e.backing = nullptr;
    e.ino = ino;
    e.file_off = file_off + i * kPageSize;
  }
  BumpMapGen();
  return OkStatus();
}

Status AddressSpace::Unmap(uint32_t vaddr, uint32_t len) {
  if ((vaddr & kPageMask) != 0 || len == 0) {
    return InvalidArgument("unmap: unaligned address or empty range");
  }
  uint32_t pages = PageCeil(len) / kPageSize;
  for (uint32_t i = 0; i < pages; ++i) {
    pages_.erase(vaddr + i * kPageSize);
  }
  BumpMapGen();
  return OkStatus();
}

Status AddressSpace::Protect(uint32_t vaddr, uint32_t len, Prot prot) {
  if ((vaddr & kPageMask) != 0 || len == 0) {
    return InvalidArgument("protect: unaligned address or empty range");
  }
  uint32_t pages = PageCeil(len) / kPageSize;
  for (uint32_t i = 0; i < pages; ++i) {
    auto it = pages_.find(vaddr + i * kPageSize);
    if (it == pages_.end()) {
      return NotFound(StrFormat("protect: page 0x%08x not mapped", vaddr + i * kPageSize));
    }
    it->second.prot = prot;
  }
  BumpMapGen();
  return OkStatus();
}

bool AddressSpace::IsMapped(uint32_t vaddr) const {
  return pages_.count(PageFloor(vaddr)) != 0;
}

Prot AddressSpace::ProtectionAt(uint32_t vaddr) const {
  auto it = pages_.find(PageFloor(vaddr));
  return it == pages_.end() ? Prot::kNone : it->second.prot;
}

uint32_t AddressSpace::PublicInodeAt(uint32_t vaddr) const {
  auto it = pages_.find(PageFloor(vaddr));
  if (it == pages_.end() || !it->second.is_public) {
    return 0;
  }
  return it->second.ino;
}

uint8_t* AddressSpace::Resolve(uint32_t addr, uint32_t len, AccessKind access, bool check_prot,
                               Fault* fault) const {
  uint32_t page = PageFloor(addr);
  if (PageFloor(addr + len - 1) != page) {
    // Accesses are at most 4 bytes and 4-byte aligned in the CPU, so a straddle can
    // only come from kernel paths, which split at page boundaries before calling.
    fault->addr = addr;
    fault->access = access;
    fault->kind = FaultKind::kUnmapped;
    return nullptr;
  }
  TlbEntry& t = tlb_[(page >> kPageBits) & (kTlbEntries - 1)];
  if (t.page == page && t.epoch == TranslationEpoch()) {
    ++*tlb_hits_;
    if (check_prot) {
      Prot want = access == AccessKind::kRead    ? Prot::kRead
                  : access == AccessKind::kWrite ? Prot::kWrite
                                                 : Prot::kExec;
      if (!HasProt(t.prot, want)) {
        fault->addr = addr;
        fault->access = access;
        fault->kind = FaultKind::kProtection;
        return nullptr;
      }
    }
    if (access == AccessKind::kWrite && HasProt(t.prot, Prot::kExec)) {
      NoteExecStore(addr);
    }
    return reinterpret_cast<uint8_t*>(t.bias + addr);
  }
  ++*tlb_misses_;
  return ResolveSlow(addr, page, access, check_prot, fault);
}

uint8_t* AddressSpace::ResolveSlow(uint32_t addr, uint32_t page, AccessKind access,
                                   bool check_prot, Fault* fault) const {
  auto it = pages_.find(page);
  if (it == pages_.end()) {
    fault->addr = addr;
    fault->access = access;
    fault->kind = FaultKind::kUnmapped;
    return nullptr;
  }
  const PageEntry& e = it->second;
  if (check_prot) {
    Prot want = access == AccessKind::kRead    ? Prot::kRead
                : access == AccessKind::kWrite ? Prot::kWrite
                                               : Prot::kExec;
    if (!HasProt(e.prot, want)) {
      fault->addr = addr;
      fault->access = access;
      fault->kind = FaultKind::kProtection;
      return nullptr;
    }
  }
  uint32_t in_page = addr - page;
  uint8_t* host_page = HostPage(e);
  if (host_page == nullptr) {
    fault->addr = addr;
    fault->access = access;
    fault->kind = FaultKind::kUnmapped;
    return nullptr;
  }
  // Fill the TLB line. The prot is cached too: a later access that hits but lacks
  // permission still faults (the hit-path check above), so Protect + epoch bump is
  // only needed to *grant* new rights, which BumpMapGen already handles.
  TlbEntry& t = tlb_[(page >> kPageBits) & (kTlbEntries - 1)];
  t.page = page;
  t.rtag = HasProt(e.prot, Prot::kRead) ? page : kTlbNoTag;
  t.wtag = HasProt(e.prot, Prot::kWrite) && !HasProt(e.prot, Prot::kExec) ? page : kTlbNoTag;
  t.prot = e.prot;
  t.epoch = TranslationEpoch();
  t.bias = reinterpret_cast<uintptr_t>(host_page) - page;
  if (access == AccessKind::kWrite && HasProt(e.prot, Prot::kExec)) {
    NoteExecStore(addr);
  }
  return host_page + in_page;
}

void AddressSpace::SyncTlbTags() const {
  uint64_t epoch = TranslationEpoch();
  if (epoch == tags_epoch_) {
    return;
  }
  tags_epoch_ = epoch;
  for (TlbEntry& t : tlb_) {
    if (t.epoch != epoch) {
      t.rtag = kTlbNoTag;
      t.wtag = kTlbNoTag;
    }
  }
}

uint8_t* AddressSpace::HostPage(const PageEntry& e) const {
  if (!e.is_public) {
    if (e.backing == nullptr) {  // a demand-zero page's first touch
      e.backing = std::make_shared<std::vector<uint8_t>>(kPageSize, 0);
      ++*zero_filled_;
    }
    return e.backing->data() + e.backing_off;
  }
  uint8_t* base = sfs_->DataPtr(e.ino);
  if (base == nullptr || sfs_->ExtentBytes(e.ino) < e.file_off + kPageSize) {
    return nullptr;  // the file was truncated or unlinked behind the mapping
  }
  return base + e.file_off;
}

bool AddressSpace::WordResolves(uint32_t addr) const {
  if ((addr & 3) != 0) {
    return false;
  }
  uint32_t page = PageFloor(addr);
  const TlbEntry& t = tlb_[(page >> kPageBits) & (kTlbEntries - 1)];
  if (t.page == page && t.epoch == TranslationEpoch()) {
    return HasProt(t.prot, Prot::kReadWrite);
  }
  // A private page always resolves (an untouched one is materialized by the
  // access itself); only a public page can have lost its bytes.
  auto it = pages_.find(page);
  return it != pages_.end() && HasProt(it->second.prot, Prot::kReadWrite) &&
         (!it->second.is_public || HostPage(it->second) != nullptr);
}

void AddressSpace::BumpMapGen() {
  ++map_gen_;  // every live TLB entry's epoch is now stale
  ++*tlb_flushes_;
}

void AddressSpace::NoteExecStore(uint32_t addr) const {
  if (InSfsRegion(addr)) {
    sfs_->NoteExecStore(addr);
    return;
  }
  uint32_t page = addr >> kPageBits;
  if (!InTextRegion(addr) || page / 8 >= text_code_bits_.size()) {
    return;
  }
  uint8_t mask = static_cast<uint8_t>(1u << (page % 8));
  if (text_code_bits_[page / 8] & mask) {
    // Self-modifying private code: retire this process' decoded blocks.
    text_code_bits_[page / 8] &= static_cast<uint8_t>(~mask);
    ++priv_code_epoch_;
  }
}

void AddressSpace::NoteCodePage(uint32_t pc) {
  if (InSfsRegion(pc)) {
    sfs_->NoteCodePage(pc);
    return;
  }
  if (!InTextRegion(pc)) {
    return;
  }
  uint32_t page = pc >> kPageBits;
  if (page / 8 >= text_code_bits_.size()) {
    text_code_bits_.resize(page / 8 + 1, 0);
  }
  text_code_bits_[page / 8] |= static_cast<uint8_t>(1u << (page % 8));
}

void AddressSpace::ReleaseCodePages() { text_code_bits_ = std::vector<uint8_t>(); }

void AddressSpace::WireVmCounters(uint64_t* hits, uint64_t* misses, uint64_t* flushes,
                                  uint64_t* zero_filled) {
  tlb_hits_ = hits;
  tlb_misses_ = misses;
  tlb_flushes_ = flushes;
  zero_filled_ = zero_filled != nullptr ? zero_filled : &tlb_scratch_;
}

bool AddressSpace::Load32(uint32_t addr, uint32_t* out, Fault* fault) const {
  if ((addr & 3) != 0) {
    fault->addr = addr;
    fault->access = AccessKind::kRead;
    fault->kind = FaultKind::kUnmapped;
    return false;
  }
  uint8_t* p = Resolve(addr, 4, AccessKind::kRead, /*check_prot=*/true, fault);
  if (p == nullptr) {
    return false;
  }
  // Relaxed atomics unconditionally: shared-region bytes are reachable from every
  // core (SMP), and on x86 the relaxed access is the same mov as the plain one —
  // cheaper than branching on InSfsRegion here.
  *out = RelaxedLoad32(p);
  return true;
}

bool AddressSpace::Load8(uint32_t addr, uint8_t* out, Fault* fault) const {
  uint8_t* p = Resolve(addr, 1, AccessKind::kRead, /*check_prot=*/true, fault);
  if (p == nullptr) {
    return false;
  }
  *out = RelaxedLoad8(p);
  return true;
}

bool AddressSpace::Store32(uint32_t addr, uint32_t value, Fault* fault) {
  if ((addr & 3) != 0) {
    fault->addr = addr;
    fault->access = AccessKind::kWrite;
    fault->kind = FaultKind::kUnmapped;
    return false;
  }
  uint8_t* p = Resolve(addr, 4, AccessKind::kWrite, /*check_prot=*/true, fault);
  if (p == nullptr) {
    return false;
  }
  RelaxedStore32(p, value);
  return true;
}

bool AddressSpace::Store8(uint32_t addr, uint8_t value, Fault* fault) {
  uint8_t* p = Resolve(addr, 1, AccessKind::kWrite, /*check_prot=*/true, fault);
  if (p == nullptr) {
    return false;
  }
  RelaxedStore8(p, value);
  return true;
}

bool AddressSpace::Fetch(uint32_t addr, uint32_t* out, Fault* fault) const {
  if ((addr & 3) != 0) {
    fault->addr = addr;
    fault->access = AccessKind::kExec;
    fault->kind = FaultKind::kUnmapped;
    return false;
  }
  uint8_t* p = Resolve(addr, 4, AccessKind::kExec, /*check_prot=*/true, fault);
  if (p == nullptr) {
    return false;
  }
  *out = RelaxedLoad32(p);
  return true;
}

Status AddressSpace::ReadBytes(uint32_t addr, uint8_t* out, uint32_t len) const {
  Fault fault;
  uint32_t done = 0;
  while (done < len) {
    uint32_t cur = addr + done;
    uint32_t chunk = std::min(len - done, kPageSize - (cur & kPageMask));
    uint8_t* p = Resolve(cur, chunk, AccessKind::kRead, /*check_prot=*/false, &fault);
    if (p == nullptr) {
      return FaultError(StrFormat("kernel read fault at 0x%08x", cur));
    }
    // Shared-region pages may be written by guest code on other cores; copy with
    // relaxed atomics so a guest-level race stays a guest-level race.
    if (InSfsRegion(cur)) {
      RelaxedCopyFrom(out + done, p, chunk);
    } else {
      std::memcpy(out + done, p, chunk);
    }
    done += chunk;
  }
  return OkStatus();
}

Status AddressSpace::WriteBytes(uint32_t addr, const uint8_t* data, uint32_t len) {
  Fault fault;
  uint32_t done = 0;
  while (done < len) {
    uint32_t cur = addr + done;
    uint32_t chunk = std::min(len - done, kPageSize - (cur & kPageMask));
    uint8_t* p = Resolve(cur, chunk, AccessKind::kWrite, /*check_prot=*/false, &fault);
    if (p == nullptr) {
      return FaultError(StrFormat("kernel write fault at 0x%08x", cur));
    }
    if (InSfsRegion(cur)) {
      RelaxedCopyTo(p, data + done, chunk);
    } else {
      std::memcpy(p, data + done, chunk);
    }
    done += chunk;
  }
  return OkStatus();
}

Result<std::string> AddressSpace::ReadCString(uint32_t addr, uint32_t max_len) const {
  // Translate once per page, not once per byte: resolve the page, then memchr for
  // the terminator within the in-page chunk.
  std::string out;
  Fault fault;
  uint32_t done = 0;
  while (done < max_len) {
    uint32_t cur = addr + done;
    uint32_t chunk = std::min(max_len - done, kPageSize - (cur & kPageMask));
    uint8_t* p = Resolve(cur, chunk, AccessKind::kRead, /*check_prot=*/false, &fault);
    if (p == nullptr) {
      return FaultError(StrFormat("kernel string read fault at 0x%08x", cur));
    }
    uint8_t stable[kPageSize];
    if (InSfsRegion(cur)) {
      // Snapshot the chunk with relaxed atomics first; memchr over bytes another
      // core is storing to would be a host-level race.
      RelaxedCopyFrom(stable, p, chunk);
      p = stable;
    }
    const uint8_t* nul = static_cast<const uint8_t*>(std::memchr(p, 0, chunk));
    if (nul != nullptr) {
      out.append(reinterpret_cast<const char*>(p), nul - p);
      return out;
    }
    out.append(reinterpret_cast<const char*>(p), chunk);
    done += chunk;
  }
  return InvalidArgument("unterminated string");
}

std::unique_ptr<AddressSpace> AddressSpace::Fork() const {
  auto child = std::make_unique<AddressSpace>(sfs_);
  // The child shares the machine-wide vm.tlb.* counters but starts with a cold TLB
  // and no watched private code pages (its decoded-block cache starts empty too).
  if (tlb_hits_ != &tlb_scratch_) {
    child->WireVmCounters(tlb_hits_, tlb_misses_, tlb_flushes_,
                          zero_filled_ == &tlb_scratch_ ? nullptr : zero_filled_);
  }
  // Private backings may be shared by many pages; copy each distinct buffer once.
  // An untouched demand-zero page has none and stays demand-zero in the child.
  std::map<const std::vector<uint8_t>*, PrivateBacking> copied;
  for (const auto& [vaddr, entry] : pages_) {
    PageEntry ce = entry;
    if (!entry.is_public && entry.backing != nullptr) {
      auto it = copied.find(entry.backing.get());
      if (it == copied.end()) {
        auto dup = std::make_shared<std::vector<uint8_t>>(*entry.backing);
        it = copied.emplace(entry.backing.get(), std::move(dup)).first;
      }
      ce.backing = it->second;
    }
    child->pages_[vaddr] = std::move(ce);
  }
  return child;
}

}  // namespace hemlock
