#include "src/vm/exec_cache.h"

#include "src/base/layout.h"

namespace hemlock {

namespace {
bool IsCti(const Instr& in) {
  switch (in.op) {
    case Op::kJ:
    case Op::kJal:
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlez:
    case Op::kBgtz:
      return true;
    case Op::kRType:
      return in.funct == Funct::kJr || in.funct == Funct::kJalr ||
             in.funct == Funct::kSyscall || in.funct == Funct::kBreak;
    default:
      return false;
  }
}
}  // namespace

void ExecCache::WireCounters(uint64_t* hits, uint64_t* misses, uint64_t* invalidations) {
  hits_ = hits;
  misses_ = misses;
  invalidations_ = invalidations;
}

void ExecCache::Release() {
  std::unordered_map<uint32_t, DecodedBlock>().swap(blocks_);
  epoch_ = ~0ull;
}

const DecodedBlock* ExecCache::Lookup(uint32_t pc, AddressSpace* space) {
  uint64_t epoch = space->CodeEpoch();
  if (epoch != epoch_) {
    if (!blocks_.empty()) {
      ++*invalidations_;
      blocks_.clear();
    }
    epoch_ = epoch;
  }
  auto it = blocks_.find(pc);
  if (it != blocks_.end()) {
    ++*hits_;
    return &it->second;
  }
  // Only text and SFS pages hold code we are willing to watch for writes; a pc
  // anywhere else (stack tricks, kSigReturnAddr) single-steps on the slow path.
  if ((pc & 3) != 0 || (!InTextRegion(pc) && !InSfsRegion(pc))) {
    return nullptr;
  }
  uint32_t page = PageFloor(pc);
  DecodedBlock block;
  block.start = pc;
  Fault fault;
  for (uint32_t cur = pc; PageFloor(cur) == page; cur += kInstrBytes) {
    uint32_t word = 0;
    if (!space->Fetch(cur, &word, &fault)) {
      break;  // the fault (if ever reached) is re-raised by the slow step
    }
    std::optional<Instr> in = Decode(word);
    if (!in.has_value()) {
      break;  // likewise for the illegal-instruction trap
    }
    block.code.push_back(*in);
    if (IsCti(*in)) {
      block.ends_in_cti = true;
      break;
    }
  }
  if (block.code.empty()) {
    return nullptr;  // first word unfetchable or illegal: slow path raises the trap
  }
  ++*misses_;
  if (blocks_.size() >= kMaxBlocks) {
    blocks_.clear();
    ++*invalidations_;
  }
  // From now on stores into this page must retire the block.
  space->NoteCodePage(pc);
  auto [ins, inserted] = blocks_.emplace(pc, std::move(block));
  (void)inserted;
  return &ins->second;
}

}  // namespace hemlock
