// Decoded basic-block cache: the front half of the fast-path execution engine.
//
// The reference interpreter re-decodes every instruction word on every step. The
// ExecCache predecodes straight-line runs into Instr arrays once, keyed by their
// start pc, and hands the Cpu whole blocks to retire. Blocks never cross a page
// boundary and end at the first control-transfer instruction (or just before an
// undecodable/unfetchable word), so a block is valid exactly as long as its page's
// bytes and mapping are: each lookup revalidates against AddressSpace::CodeEpoch(),
// which folds in map changes, stores into watched code pages (self-modifying code),
// and kernel-side writes under mapped modules (ldl's segment rebuild). A stale
// epoch drops the whole cache — invalidation is a counter compare, never a walk.
//
// One ExecCache lives per Process (the Cpu itself is reconstructed every quantum).
// See docs/PERFORMANCE.md for the design and the invalidation rules.
#ifndef SRC_VM_EXEC_CACHE_H_
#define SRC_VM_EXEC_CACHE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/isa/isa.h"
#include "src/vm/address_space.h"

namespace hemlock {

struct DecodedBlock {
  uint32_t start = 0;          // vaddr of the first instruction
  std::vector<Instr> code;     // at least one instruction
  bool ends_in_cti = false;    // last Instr transfers control (incl. syscall/break)
  // Dispatch count since the block was (re)decoded; the JIT tier promotes the
  // block to host code when this crosses its threshold. Mutable because hotness
  // is bookkeeping on a cache entry handed out const.
  mutable uint32_t hot = 0;
};

class ExecCache {
 public:
  // Wires the vm.icache.* counters (scratch-backed until then, like the TLB's).
  void WireCounters(uint64_t* hits, uint64_t* misses, uint64_t* invalidations);

  // Returns the block starting at |pc|, decoding it on demand. nullptr when |pc|
  // is not cacheable (unfetchable, illegal first word, or outside the text/SFS
  // regions) — the caller then retires one instruction via the reference path.
  const DecodedBlock* Lookup(uint32_t pc, AddressSpace* space);

  uint64_t blocks() const { return blocks_.size(); }

  // Frees every decoded block, and the map's buckets with them, without counting
  // an invalidation. The counter wiring stays, so the cache remains usable; the
  // next Lookup starts cold. For a process that will not run again.
  void Release();

 private:
  // Blow the cache when the map grows absurd (runaway jump targets); keeps worst-
  // case memory bounded without an eviction policy on the hot path.
  static constexpr size_t kMaxBlocks = 1u << 16;

  std::unordered_map<uint32_t, DecodedBlock> blocks_;
  uint64_t epoch_ = ~0ull;  // never matches a real CodeEpoch, so first use flushes

  uint64_t scratch_ = 0;
  uint64_t* hits_ = &scratch_;
  uint64_t* misses_ = &scratch_;
  uint64_t* invalidations_ = &scratch_;
};

}  // namespace hemlock

#endif  // SRC_VM_EXEC_CACHE_H_
