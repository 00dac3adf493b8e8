// Baseline template JIT: the third execution tier, above the basic-block cache.
//
// When a decoded block's dispatch count crosses a threshold, the block is
// compiled — straight-line template expansion, one x86-64 sequence per Instr —
// into a per-process executable code arena. Loads and stores inline the software
// TLB's hit path (the probe contract in address_space.h); any miss, misalignment,
// or write into an exec-protected page calls back into the C++ AddressSpace
// helpers, so faults and self-modifying-code bookkeeping stay byte-identical to
// the interpreter tiers. Block-ending jumps are emitted as patchable jmp slots
// and direct-linked to already-compiled successors, so hot loops run entirely in
// host code; syscall/break/fault exits go through out-of-line stubs that record
// the architectural pc and hand control back to the C++ kernel paths. A syscall
// first offers itself to the machine's in-place hook (sys_cas, waiter-free
// sys_futex_wake) and only exits when the hook declines.
//
// Correctness leans on the same two invariants the block cache already proved:
//   * CodeEpoch(): any event that can change decoded code (map changes, stores
//     into watched code pages, kernel-side segment rebuilds) bumps it. The JIT
//     snapshots the epoch at every dispatch; a mismatch retires the whole arena
//     (chained blocks unlink by construction — their code is gone) before any
//     stale translation could run. Store helpers re-check the epoch after every
//     store, so even same-block self-modifying code deopts exactly where the
//     interpreter would re-decode.
//   * TranslationEpoch(): generated code never embeds a host data pointer; guest
//     memory is only reached through TLB entries whose access tags were synced
//     against the epoch at chunk entry (AddressSpace::SyncTlbTags). A cross-core
//     shootdown (which moves host pointers) can only happen while no guest chunk
//     runs, so the synced tags stay valid for the lifetime of one native call.
//
// Fuel lives in a pinned register; every block entry checks and charges its full
// length up front, and every early exit refunds the unretired tail, so step
// counts — and therefore preemption points and schedules — are identical to both
// interpreter tiers. The dispatcher declines to enter a block longer than the
// remaining budget, letting the interpreter cut it at the budget edge.
//
// The tier disables itself when an observer needs per-access callbacks (the race
// detector) and on non-x86-64 hosts; see Machine::DriveProcessLoop for
// the gating and docs/PERFORMANCE.md for the design.
#ifndef SRC_VM_JIT_H_
#define SRC_VM_JIT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>

#include "src/vm/address_space.h"
#include "src/vm/exec_cache.h"

namespace hemlock {

struct CpuState;

// Serves the SYSCALL just retired without leaving native code — true when it
// did (its $v0/$v1 are written), false to take the kJitExitSyscall exit. Must
// not change any state when it declines.
using JitSyscallHook = bool (*)(void* arg);

// The register/exit context shared between the dispatcher and generated code.
// Field offsets are hard-coded in the emitter (static_asserted in jit.cc).
struct JitContext {
  uint32_t* regs = nullptr;       // 0:  &CpuState::regs[0]
  uint8_t* tlb = nullptr;         // 8:  AddressSpace::tlb_for_jit()
  uint64_t fuel = 0;              // 16: steps remaining (in), steps unretired (out)
  uint64_t code_epoch = 0;        // 24: CodeEpoch snapshot (store helpers compare)
  uint64_t tlb_hits = 0;          // 32: inline-probe hits, folded after the call
  AddressSpace* space = nullptr;  // 40: helper target
  uint32_t exit_pc = 0;           // 48: architectural pc at exit
  uint32_t exit_reason = 0;       // 52: JitExit
  uint32_t mem_value = 0;         // 56: load-helper result
  uint32_t pad_ = 0;              // 60
  Fault fault = {};               // 64: filled by helpers on a guest fault
  JitSyscallHook syscall_hook = nullptr;  // serves a SYSCALL in place (HemjitSyscall)
  void* syscall_arg = nullptr;            // its argument
};

// Why generated code handed control back (JitContext::exit_reason).
enum JitExit : uint32_t {
  kJitExitFuel = 0,     // block entry found fuel < block length (chained entry)
  kJitExitEnd = 1,      // block retired; exit_pc is the next pc (no compiled successor)
  kJitExitSyscall = 2,  // SYSCALL retired, not served in place; exit_pc is past it
  kJitExitBreak = 3,    // BREAK retired; likewise
  kJitExitFault = 4,    // memory fault; exit_pc at the faulting instruction
  kJitExitDivZero = 5,  // division by zero; exit_pc at the trapping instruction
  kJitExitSmc = 6,      // a retired store bumped CodeEpoch; exit_pc past the store
};

// What one dispatch attempt did (the Cpu's fast loop switches on this).
enum class JitRun : uint8_t {
  kNotRun,    // no native code ran — interpret this block
  kContinue,  // native code retired >= 1 step; st->pc updated, keep looping
  kSyscall,   // map 1:1 onto StopReason; pc/steps already settled like ExecOne's
  kBreak,
  kFault,
  kDivZero,
};

class Jit {
 public:
  static constexpr uint32_t kDefaultThreshold = 16;
  static constexpr size_t kDefaultArenaBytes = 1u << 20;

  // True when this build can emit and run host code (x86-64 only). A Jit on an
  // unsupported host constructs fine but never compiles (every TryRun bails).
  static bool HostSupported();

  explicit Jit(size_t arena_bytes = kDefaultArenaBytes);
  ~Jit();
  Jit(const Jit&) = delete;
  Jit& operator=(const Jit&) = delete;

  // Promotion threshold: a block compiles on its |threshold|-th dispatch.
  void set_threshold(uint32_t threshold) { threshold_ = threshold == 0 ? 1 : threshold; }

  // The hook every compiled SYSCALL offers itself to before exiting. A served
  // call costs one step of fuel on top of the instruction's (the budget step a
  // kernel-path syscall costs in the dispatch loop) and chains to pc+4. It is
  // only offered while at least two steps of fuel remain, so the quantum never
  // ends inside a served call.
  void set_syscall_hook(JitSyscallHook hook, void* arg) {
    syscall_hook_ = hook;
    syscall_arg_ = arg;
  }

  // Wires the vm.jit.* counters plus the shared vm.tlb.hits cell (the inline
  // probe's hits are folded into the same row the interpreter's probe bumps).
  void WireCounters(uint64_t* compiled, uint64_t* chained, uint64_t* deopts,
                    uint64_t* bailouts, uint64_t* arena_bytes, uint64_t* tlb_hits);

  // One dispatch attempt at |block| (the caller's ExecCache already validated it
  // against the current CodeEpoch). Runs native code when the block is compiled
  // and |fuel| covers it; otherwise bumps hotness, possibly compiles for next
  // time, and returns kNotRun. On a run, |*steps_out| is the number of retired
  // instructions, st->pc the architectural pc, and |fault_out| filled for kFault.
  JitRun TryRun(const DecodedBlock& block, AddressSpace* space, CpuState* st,
                uint64_t fuel, uint64_t* steps_out, Fault* fault_out);

  uint64_t compiled_blocks() const { return code_map_.size(); }
  bool arena_full() const { return arena_full_; }

 private:
  // Compiles |block| into the arena; returns the entry offset or 0 on failure
  // (arena exhausted — compilation stops until the next retirement).
  size_t Compile(const DecodedBlock& block);
  // Drops every translation and resets the bump pointer (code-epoch mismatch).
  void RetireAll();
  // Points |site| (a 5-byte jmp rel32 in the arena) at arena offset |target|.
  void PatchJmp(size_t site, size_t target);

  void (*entry_thunk_)(JitContext*, const void*) = nullptr;

  uint8_t* arena_ = nullptr;
  size_t arena_size_ = 0;
  size_t arena_used_ = 0;    // bump pointer; prologue thunks live below code_base_
  size_t code_base_ = 0;     // first byte after the entry thunk
  bool arena_full_ = false;

  uint32_t threshold_ = kDefaultThreshold;
  JitSyscallHook syscall_hook_ = nullptr;
  void* syscall_arg_ = nullptr;
  uint64_t epoch_ = ~0ull;  // CodeEpoch the translations are valid for

  std::unordered_map<uint32_t, size_t> code_map_;     // guest pc -> entry offset
  std::multimap<uint32_t, size_t> pending_links_;     // guest pc -> waiting jmp site

  uint64_t scratch_ = 0;
  uint64_t* compiled_ = &scratch_;
  uint64_t* chained_ = &scratch_;
  uint64_t* deopts_ = &scratch_;
  uint64_t* bailouts_ = &scratch_;
  uint64_t* arena_bytes_ = &scratch_;
  uint64_t* tlb_hits_ = &scratch_;
};

}  // namespace hemlock

#endif  // SRC_VM_JIT_H_
