#include "src/vm/jit.h"

#include <sys/mman.h>

#include <cstddef>
#include <cstring>
#include <vector>

#include "src/base/layout.h"
#include "src/vm/cpu.h"

namespace hemlock {

// The emitter hard-codes the JitContext and TlbEntry layouts; a drifting field
// breaks the build here, not at runtime.
static_assert(offsetof(JitContext, regs) == 0);
static_assert(offsetof(JitContext, tlb) == 8);
static_assert(offsetof(JitContext, fuel) == 16);
static_assert(offsetof(JitContext, code_epoch) == 24);
static_assert(offsetof(JitContext, tlb_hits) == 32);
static_assert(offsetof(JitContext, space) == 40);
static_assert(offsetof(JitContext, exit_pc) == 48);
static_assert(offsetof(JitContext, exit_reason) == 52);
static_assert(offsetof(JitContext, mem_value) == 56);
static_assert(offsetof(JitContext, fault) == 64);
static_assert(sizeof(AddressSpace::TlbEntry) == 32);
static_assert(offsetof(AddressSpace::TlbEntry, rtag) == 4);
static_assert(offsetof(AddressSpace::TlbEntry, wtag) == 8);
static_assert(offsetof(AddressSpace::TlbEntry, bias) == 24);
static_assert((AddressSpace::kTlbNoTag & 0xFFC) != 0);
static_assert(AddressSpace::kTlbEntries == 256);
static_assert(kPageBits == 12);

// --- Out-of-line trampolines into the C++ memory paths -----------------------
//
// Generated code reaches these by absolute address (movabs + call), the same
// shape as the hel syscall stubs: marshal into fixed registers, transfer, decode
// a small result code. They run with the pinned registers live (all callee-
// saved), so the C++ side needs no special ABI. Return: 0 ok, 1 fault (recorded
// in ctx->fault), 2 the store bumped CodeEpoch (self-modifying code — the caller
// must stop running translated code for this epoch).

extern "C" uint32_t HemjitLoad32(JitContext* ctx, uint32_t addr) {
  uint32_t value = 0;
  Fault f;
  if (!ctx->space->Load32(addr, &value, &f)) {
    ctx->fault = f;
    return 1;
  }
  ctx->mem_value = value;
  return 0;
}

extern "C" uint32_t HemjitLoad8(JitContext* ctx, uint32_t addr) {
  uint8_t value = 0;
  Fault f;
  if (!ctx->space->Load8(addr, &value, &f)) {
    ctx->fault = f;
    return 1;
  }
  ctx->mem_value = value;
  return 0;
}

extern "C" uint32_t HemjitStore32(JitContext* ctx, uint32_t addr, uint32_t value) {
  Fault f;
  if (!ctx->space->Store32(addr, value, &f)) {
    ctx->fault = f;
    return 1;
  }
  // Same check the interpreter's block loop makes after every store: if the
  // store hit a page holding decoded code, the remainder of this very block may
  // be stale — deopt at the next instruction boundary.
  return ctx->space->CodeEpoch() != ctx->code_epoch ? 2 : 0;
}

extern "C" uint32_t HemjitStore8(JitContext* ctx, uint32_t addr, uint32_t value) {
  Fault f;
  if (!ctx->space->Store8(addr, static_cast<uint8_t>(value), &f)) {
    ctx->fault = f;
    return 1;
  }
  return ctx->space->CodeEpoch() != ctx->code_epoch ? 2 : 0;
}

// The SYSCALL template's call-out: 1 to take the syscall exit, else the hook
// served the call in place — 0, or 2 when its write (a sys_cas into a code
// page) bumped CodeEpoch, so the successor must be looked up afresh.
extern "C" uint32_t HemjitSyscall(JitContext* ctx) {
  if (ctx->syscall_hook == nullptr || !ctx->syscall_hook(ctx->syscall_arg)) {
    return 1;
  }
  return ctx->space->CodeEpoch() != ctx->code_epoch ? 2 : 0;
}

namespace {

// Pinned registers (all callee-saved, so helper calls preserve them):
//   rbx = &regs[0]   r12 = JitContext*   r13 = fuel
//   r14 = TLB base   rbp = inline-probe hits (stored to the context on exit)
// Scratch: eax/ecx/edx/esi/edi — esi doubles as the address argument to the
// memory helpers, edx as the store-value argument.

// A tiny one-pass assembler over a byte buffer with local labels. rel32 sites
// referencing a label are backpatched in Finish().
struct Asm {
  std::vector<uint8_t> buf;
  struct Fix {
    size_t at;  // offset of the rel32 field
    int label;
  };
  std::vector<Fix> fixes;
  std::vector<ptrdiff_t> labels;

  int NewLabel() {
    labels.push_back(-1);
    return static_cast<int>(labels.size()) - 1;
  }
  void Bind(int label) { labels[label] = static_cast<ptrdiff_t>(buf.size()); }
  void U8(uint8_t b) { buf.push_back(b); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void Bytes(std::initializer_list<uint8_t> bs) {
    for (uint8_t b : bs) buf.push_back(b);
  }
  void Rel32(int label) {
    fixes.push_back({buf.size(), label});
    U32(0);
  }
  // jcc rel32: 0F 8x. cc is the second opcode byte (0x84 je, 0x85 jne, ...).
  void Jcc(uint8_t cc, int label) {
    U8(0x0F);
    U8(cc);
    Rel32(label);
  }
  void Jmp(int label) {
    U8(0xE9);
    Rel32(label);
  }
  void Finish() {
    for (const Fix& f : fixes) {
      int32_t rel = static_cast<int32_t>(labels[f.label] - static_cast<ptrdiff_t>(f.at + 4));
      std::memcpy(buf.data() + f.at, &rel, 4);
    }
  }
};

// Condition-code bytes for Jcc.
constexpr uint8_t kCcB = 0x82;   // unsigned <
constexpr uint8_t kCcE = 0x84;   // ==
constexpr uint8_t kCcNe = 0x85;  // !=
constexpr uint8_t kCcBe = 0x86;  // unsigned <=
constexpr uint8_t kCcLe = 0x8E;  // signed <=
constexpr uint8_t kCcG = 0x8F;   // signed >

// mov r32, dword [rbx + 4*guest] — guest regs are dword slots off rbx.
void LoadGuest(Asm& a, uint8_t x86, uint8_t guest) {
  a.U8(0x8B);
  a.U8(static_cast<uint8_t>(0x43 | (x86 << 3)));
  a.U8(static_cast<uint8_t>(4 * guest));
}

// mov dword [rbx + 4*guest], r32 — writes to $zero are dropped at compile time.
void StoreGuest(Asm& a, uint8_t x86, uint8_t guest) {
  if (guest == kRegZero) return;
  a.U8(0x89);
  a.U8(static_cast<uint8_t>(0x43 | (x86 << 3)));
  a.U8(static_cast<uint8_t>(4 * guest));
}

// mov dword [rbx + 4*guest], imm32
void StoreGuestImm(Asm& a, uint8_t guest, uint32_t imm) {
  if (guest == kRegZero) return;
  a.Bytes({0xC7, 0x43, static_cast<uint8_t>(4 * guest)});
  a.U32(imm);
}

// mov [r12+16], r13; mov [r12+32], rbp; restore callee-saved; ret — the shared
// exit sequence, inlined into every stub (19 bytes beats a cross-block fixup
// scheme).
void Epilogue(Asm& a) {
  a.Bytes({0x4D, 0x89, 0x6C, 0x24, 0x10});                          // fuel out
  a.Bytes({0x49, 0x89, 0x6C, 0x24, 0x20});                          // hits out
  a.Bytes({0x41, 0x5E, 0x41, 0x5D, 0x41, 0x5C, 0x5B, 0x5D, 0xC3});
}

// An exit stub: refund unretired fuel, record the architectural pc and reason,
// return to the dispatcher. pc/refund are compile-time constants per exit site.
struct StubReq {
  int label;
  uint32_t reason;
  uint32_t pc;
  uint32_t refund;
};

// A chain site: a patchable 5-byte `jmp rel32` that initially targets a
// kJitExitEnd stub for |target_pc| and is later redirected to the compiled
// successor's entry (which re-checks fuel).
struct ChainReq {
  size_t site;  // buffer offset of the E9 opcode
  uint32_t target;
};

struct BlockAsm {
  Asm a;
  std::vector<StubReq> stubs;
  std::vector<ChainReq> chains;
  uint32_t start = 0;
  uint32_t len = 0;

  int Stub(uint32_t reason, uint32_t pc, uint32_t refund) {
    int label = a.NewLabel();
    stubs.push_back({label, reason, pc, refund});
    return label;
  }
  void ChainSlot(uint32_t target_pc) {
    chains.push_back({a.buf.size(), target_pc});
    a.Jmp(Stub(kJitExitEnd, target_pc, 0));
  }
};

// The tag compare both probes open with. ecx = the address masked to its page
// (plus, for a word, its alignment bits, so a misaligned word never matches);
// |idx| = the entry's byte offset (addr >> 7) & 0x1FE0; then
// cmp [r14+idx+tag], ecx; jne slow. esi keeps the full address for the helper.
void EmitTagCompare(Asm& a, int slow, bool word, uint8_t idx, uint8_t tag) {
  a.Bytes({0x89, 0xF1});                                    // mov ecx, esi
  a.Bytes({0x81, 0xE1});                                    // and ecx, mask
  a.U32(word ? 0xFFFFF003 : 0xFFFFF000);
  a.Bytes({0x89, static_cast<uint8_t>(0xF0 | idx)});        // mov idx, esi
  a.Bytes({0xC1, static_cast<uint8_t>(0xE8 | idx), 0x07});  // shr idx, 7
  a.Bytes({0x81, static_cast<uint8_t>(0xE0 | idx)});        // and idx, 0x1FE0
  a.U32(0x1FE0);
  a.Bytes({0x41, 0x39, 0x4C, static_cast<uint8_t>(0x06 | (idx << 3)), tag});
  a.Jcc(kCcNe, slow);
}

// The inlined TLB probe for a load. Address in esi; value lands in eax. Jumps
// to |slow| on a tag miss.
void EmitLoadProbe(Asm& a, int slow, bool word) {
  EmitTagCompare(a, slow, word, /*idx=edx*/ 2, offsetof(AddressSpace::TlbEntry, rtag));
  a.Bytes({0x49, 0x8B, 0x44, 0x16, 0x18});                // mov rax, [r14+rdx+24] (bias)
  if (word) {
    a.Bytes({0x8B, 0x04, 0x30});                          // mov eax, [rax+rsi]
  } else {
    a.Bytes({0x0F, 0xB6, 0x04, 0x30});                    // movzx eax, byte [rax+rsi]
  }
  a.Bytes({0x48, 0xFF, 0xC5});                            // inc rbp (tlb hit)
}

// The inlined TLB probe for a store. Address in esi, value in edx. wtag is
// only set on writable, non-exec pages, so every write into an executable
// page takes the helper and NoteExecStore sees it (the SMC contract).
void EmitStoreProbe(Asm& a, int slow, bool word) {
  EmitTagCompare(a, slow, word, /*idx=eax*/ 0, offsetof(AddressSpace::TlbEntry, wtag));
  a.Bytes({0x49, 0x8B, 0x44, 0x06, 0x18});                // mov rax, [r14+rax+24] (bias)
  if (word) {
    a.Bytes({0x89, 0x14, 0x30});                          // mov [rax+rsi], edx
  } else {
    a.Bytes({0x88, 0x14, 0x30});                          // mov [rax+rsi], dl
  }
  a.Bytes({0x48, 0xFF, 0xC5});                            // inc rbp
}

// mov rdi, r12; movabs rax, helper; call rax
void EmitHelperCall(Asm& a, const void* helper) {
  a.Bytes({0x4C, 0x89, 0xE7});
  a.Bytes({0x48, 0xB8});
  a.U64(reinterpret_cast<uint64_t>(helper));
  a.Bytes({0xFF, 0xD0});
}

// Terminal exit through ctx with a *runtime* pc already in eax (jr/jalr).
void EmitDynamicExit(Asm& a) {
  a.Bytes({0x41, 0x89, 0x44, 0x24, 0x30});            // mov [r12+48], eax
  a.Bytes({0x41, 0xC7, 0x44, 0x24, 0x34});            // mov dword [r12+52],
  a.U32(kJitExitEnd);                                 //   kJitExitEnd
  Epilogue(a);
}

// One instruction's template. |i| is its index in the block; |pc| its vaddr.
// Returns true when the instruction terminated the block (emitted its own exit
// or chain slots).
bool EmitInstr(BlockAsm& b, const Instr& in, uint32_t i, uint32_t pc,
               struct SlowPathReqs* slow_reqs);

// Deferred out-of-line slow paths (one per memory instruction), emitted after
// the block body so the hot path stays straight-line.
struct SlowPathReqs {
  struct Req {
    int slow;        // label to bind at the slow-path entry
    int resume;      // label inside the hot path to return to
    const void* helper;
    bool is_store;
    uint32_t i;      // instruction index (for refunds)
    uint32_t pc;
  };
  std::vector<Req> reqs;
};

void EmitMemSlowPaths(BlockAsm& b, const SlowPathReqs& slow_reqs) {
  Asm& a = b.a;
  for (const SlowPathReqs::Req& r : slow_reqs.reqs) {
    a.Bind(r.slow);
    EmitHelperCall(a, r.helper);
    int fault = b.Stub(kJitExitFault, r.pc, b.len - r.i);
    if (r.is_store) {
      a.Bytes({0x85, 0xC0});                      // test eax, eax
      a.Jcc(kCcE, r.resume);                      // 0: retired, continue
      a.Bytes({0x83, 0xF8, 0x01});                // cmp eax, 1
      a.Jcc(kCcE, fault);                         // 1: guest fault
      a.Jmp(b.Stub(kJitExitSmc, r.pc + 4, b.len - r.i - 1));  // 2: code changed
    } else {
      a.Bytes({0x85, 0xC0});                      // test eax, eax
      a.Jcc(kCcNe, fault);
      a.Bytes({0x41, 0x8B, 0x44, 0x24, 0x38});    // mov eax, [r12+56] (mem_value)
      a.Jmp(r.resume);
    }
  }
}

bool EmitInstr(BlockAsm& b, const Instr& in, uint32_t i, uint32_t pc,
               SlowPathReqs* slow_reqs) {
  Asm& a = b.a;
  uint32_t simm = static_cast<uint32_t>(static_cast<int32_t>(in.imm));
  uint32_t zimm = static_cast<uint16_t>(in.imm);
  switch (in.op) {
    case Op::kRType:
      switch (in.funct) {
        case Funct::kSll:
        case Funct::kSrl:
        case Funct::kSra: {
          LoadGuest(a, 0, in.rt);  // eax
          uint8_t op = in.funct == Funct::kSll ? 0xE0 : in.funct == Funct::kSrl ? 0xE8 : 0xF8;
          if (in.shamt != 0) a.Bytes({0xC1, op, in.shamt});
          StoreGuest(a, 0, in.rd);
          return false;
        }
        case Funct::kSllv:
        case Funct::kSrlv:
        case Funct::kSrav: {
          LoadGuest(a, 1, in.rs);  // ecx — x86 masks cl & 31, matching rs & 31
          LoadGuest(a, 0, in.rt);
          uint8_t op = in.funct == Funct::kSllv ? 0xE0 : in.funct == Funct::kSrlv ? 0xE8 : 0xF8;
          a.Bytes({0xD3, op});
          StoreGuest(a, 0, in.rd);
          return false;
        }
        case Funct::kAdd:
        case Funct::kSub:
        case Funct::kAnd:
        case Funct::kOr:
        case Funct::kXor:
        case Funct::kNor:
        case Funct::kMul: {
          LoadGuest(a, 0, in.rs);
          LoadGuest(a, 1, in.rt);
          switch (in.funct) {
            case Funct::kAdd: a.Bytes({0x01, 0xC8}); break;
            case Funct::kSub: a.Bytes({0x29, 0xC8}); break;
            case Funct::kAnd: a.Bytes({0x21, 0xC8}); break;
            case Funct::kOr:  a.Bytes({0x09, 0xC8}); break;
            case Funct::kXor: a.Bytes({0x31, 0xC8}); break;
            case Funct::kNor: a.Bytes({0x09, 0xC8, 0xF7, 0xD0}); break;  // or; not
            case Funct::kMul: a.Bytes({0x0F, 0xAF, 0xC1}); break;        // imul
            default: break;
          }
          StoreGuest(a, 0, in.rd);
          return false;
        }
        case Funct::kSlt:
        case Funct::kSltu: {
          LoadGuest(a, 0, in.rs);
          LoadGuest(a, 1, in.rt);
          a.Bytes({0x39, 0xC8});  // cmp eax, ecx
          a.Bytes({0x0F, in.funct == Funct::kSlt ? uint8_t{0x9C} : uint8_t{0x92}, 0xC0});
          a.Bytes({0x0F, 0xB6, 0xC0});  // movzx eax, al
          StoreGuest(a, 0, in.rd);
          return false;
        }
        case Funct::kDiv:
        case Funct::kMod: {
          LoadGuest(a, 1, in.rt);        // ecx
          a.Bytes({0x85, 0xC9});         // test ecx, ecx
          a.Jcc(kCcE, b.Stub(kJitExitDivZero, pc, b.len - i));
          LoadGuest(a, 0, in.rs);        // eax
          a.Bytes({0x99, 0xF7, 0xF9});   // cdq; idiv ecx
          StoreGuest(a, in.funct == Funct::kDiv ? 0 : 2, in.rd);  // eax / edx
          return false;
        }
        case Funct::kJr: {
          LoadGuest(a, 0, in.rs);
          EmitDynamicExit(a);
          return true;
        }
        case Funct::kJalr: {
          LoadGuest(a, 0, in.rs);        // read rs before rd (they may alias)
          StoreGuestImm(a, in.rd, pc + 4);
          EmitDynamicExit(a);
          return true;
        }
        case Funct::kSyscall: {
          // Offer the call to the in-place hook while the fuel can pay its
          // budget step and still leave one; a served call chains on.
          int exit = b.Stub(kJitExitSyscall, pc + 4, 0);
          a.Bytes({0x49, 0x83, 0xFD, 0x01});     // cmp r13, 1
          a.Jcc(kCcBe, exit);
          EmitHelperCall(a, reinterpret_cast<const void*>(&HemjitSyscall));
          a.Bytes({0x83, 0xF8, 0x01});           // cmp eax, 1
          a.Jcc(kCcE, exit);                     // 1: declined
          a.Bytes({0x49, 0xFF, 0xCD});           // dec r13 (the syscall's budget step)
          a.Bytes({0x85, 0xC0});                 // test eax, eax
          a.Jcc(kCcNe, b.Stub(kJitExitEnd, pc + 4, 0));  // 2: code changed, re-dispatch
          b.ChainSlot(pc + 4);
          return true;
        }
        case Funct::kBreak: {
          a.Jmp(b.Stub(kJitExitBreak, pc + 4, 0));
          return true;
        }
      }
      return false;
    case Op::kJ: {
      b.ChainSlot(JumpTarget(pc, in.target));
      return true;
    }
    case Op::kJal: {
      StoreGuestImm(a, kRegRa, pc + 4);
      b.ChainSlot(JumpTarget(pc, in.target));
      return true;
    }
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlez:
    case Op::kBgtz: {
      uint32_t taken_pc = pc + 4 + (static_cast<uint32_t>(static_cast<int32_t>(in.imm)) << 2);
      LoadGuest(a, 0, in.rs);
      uint8_t cc;
      if (in.op == Op::kBeq || in.op == Op::kBne) {
        a.Bytes({0x3B, static_cast<uint8_t>(0x43), static_cast<uint8_t>(4 * in.rt)});
        cc = in.op == Op::kBeq ? kCcE : kCcNe;
      } else {
        a.Bytes({0x85, 0xC0});  // test eax, eax
        cc = in.op == Op::kBlez ? kCcLe : kCcG;
      }
      int taken = a.NewLabel();
      a.Jcc(cc, taken);
      b.ChainSlot(pc + 4);
      a.Bind(taken);
      b.ChainSlot(taken_pc);
      return true;
    }
    case Op::kAddi:
    case Op::kSlti:
    case Op::kSltiu:
    case Op::kAndi:
    case Op::kOri:
    case Op::kXori: {
      LoadGuest(a, 0, in.rs);
      switch (in.op) {
        case Op::kAddi: a.U8(0x05); a.U32(simm); break;
        case Op::kSlti:
          a.U8(0x3D); a.U32(simm);
          a.Bytes({0x0F, 0x9C, 0xC0, 0x0F, 0xB6, 0xC0});  // setl al; movzx
          break;
        case Op::kSltiu:
          a.U8(0x3D); a.U32(simm);
          a.Bytes({0x0F, 0x92, 0xC0, 0x0F, 0xB6, 0xC0});  // setb al; movzx
          break;
        case Op::kAndi: a.U8(0x25); a.U32(zimm); break;
        case Op::kOri:  a.U8(0x0D); a.U32(zimm); break;
        case Op::kXori: a.U8(0x35); a.U32(zimm); break;
        default: break;
      }
      StoreGuest(a, 0, in.rt);
      return false;
    }
    case Op::kLui: {
      StoreGuestImm(a, in.rt, static_cast<uint32_t>(zimm) << 16);
      return false;
    }
    case Op::kLw:
    case Op::kLb:
    case Op::kLbu: {
      bool word = in.op == Op::kLw;
      LoadGuest(a, 6, in.rs);                     // esi = rs
      a.Bytes({0x81, 0xC6}); a.U32(simm);         // add esi, imm
      int slow = a.NewLabel();
      int resume = a.NewLabel();
      EmitLoadProbe(a, slow, word);
      a.Bind(resume);
      if (in.op == Op::kLb) {
        a.Bytes({0x0F, 0xBE, 0xC0});              // movsx eax, al
      }
      StoreGuest(a, 0, in.rt);
      slow_reqs->reqs.push_back({slow, resume,
                                 word ? reinterpret_cast<const void*>(&HemjitLoad32)
                                      : reinterpret_cast<const void*>(&HemjitLoad8),
                                 /*is_store=*/false, i, pc});
      return false;
    }
    case Op::kSw:
    case Op::kSb: {
      bool word = in.op == Op::kSw;
      LoadGuest(a, 6, in.rs);                     // esi = rs
      a.Bytes({0x81, 0xC6}); a.U32(simm);         // add esi, imm
      LoadGuest(a, 2, in.rt);                     // edx = value
      int slow = a.NewLabel();
      int resume = a.NewLabel();
      EmitStoreProbe(a, slow, word);
      a.Bind(resume);
      slow_reqs->reqs.push_back({slow, resume,
                                 word ? reinterpret_cast<const void*>(&HemjitStore32)
                                      : reinterpret_cast<const void*>(&HemjitStore8),
                                 /*is_store=*/true, i, pc});
      return false;
    }
  }
  return false;
}

}  // namespace

bool Jit::HostSupported() {
#if defined(__x86_64__) || defined(_M_X64)
  return true;
#else
  return false;
#endif
}

Jit::Jit(size_t arena_bytes) {
  if (!HostSupported()) {
    return;
  }
  if (arena_bytes < kPageSize) {
    arena_bytes = kPageSize;
  }
  // One RWX mapping per process-jit. W^X-hardened hosts that refuse it simply
  // leave the tier disabled — TryRun bails forever, the block cache carries on.
  void* mem = ::mmap(nullptr, arena_bytes, PROT_READ | PROT_WRITE | PROT_EXEC,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    return;
  }
  arena_ = static_cast<uint8_t*>(mem);
  arena_size_ = arena_bytes;

  // The entry thunk: save callee-saved state (five pushes leave the stack
  // 16-byte aligned), load the pinned registers from the context, zero the hit
  // count, and tail-jump into the block (rsi).
  Asm a;
  a.Bytes({0x55, 0x53, 0x41, 0x54, 0x41, 0x55, 0x41, 0x56});  // pushes
  a.Bytes({0x49, 0x89, 0xFC});                    // mov r12, rdi
  a.Bytes({0x49, 0x8B, 0x5C, 0x24, 0x00});        // mov rbx, [r12+0]  regs
  a.Bytes({0x4D, 0x8B, 0x74, 0x24, 0x08});        // mov r14, [r12+8]  tlb
  a.Bytes({0x4D, 0x8B, 0x6C, 0x24, 0x10});        // mov r13, [r12+16] fuel
  a.Bytes({0x31, 0xED});                          // xor ebp, ebp      hits
  a.Bytes({0xFF, 0xE6});                          // jmp rsi
  std::memcpy(arena_, a.buf.data(), a.buf.size());
  code_base_ = arena_used_ = (a.buf.size() + 15) & ~size_t{15};
  entry_thunk_ = reinterpret_cast<void (*)(JitContext*, const void*)>(
      reinterpret_cast<void*>(arena_));
}

Jit::~Jit() {
  if (arena_ != nullptr) {
    ::munmap(arena_, arena_size_);
  }
}

void Jit::WireCounters(uint64_t* compiled, uint64_t* chained, uint64_t* deopts,
                       uint64_t* bailouts, uint64_t* arena_bytes, uint64_t* tlb_hits) {
  compiled_ = compiled;
  chained_ = chained;
  deopts_ = deopts;
  bailouts_ = bailouts;
  arena_bytes_ = arena_bytes;
  tlb_hits_ = tlb_hits;
}

void Jit::RetireAll() {
  if (!code_map_.empty()) {
    // Every chained block unlinks here by construction: the arena below the
    // bump pointer is dead, and nothing outside it holds a code pointer.
    ++*deopts_;
  }
  code_map_.clear();
  pending_links_.clear();
  arena_used_ = code_base_;
  arena_full_ = false;
}

void Jit::PatchJmp(size_t site, size_t target) {
  int32_t rel = static_cast<int32_t>(static_cast<ptrdiff_t>(target) -
                                     static_cast<ptrdiff_t>(site + 5));
  std::memcpy(arena_ + site + 1, &rel, 4);
}

size_t Jit::Compile(const DecodedBlock& block) {
  BlockAsm b;
  b.start = block.start;
  b.len = static_cast<uint32_t>(block.code.size());
  Asm& a = b.a;

  // Fuel gate: charge the whole block up front; early exits refund the tail.
  a.Bytes({0x49, 0x81, 0xFD});                     // cmp r13, len
  a.U32(b.len);
  a.Jcc(kCcB, b.Stub(kJitExitFuel, b.start, 0));
  a.Bytes({0x49, 0x81, 0xED});                     // sub r13, len
  a.U32(b.len);

  SlowPathReqs slow_reqs;
  bool terminated = false;
  for (uint32_t i = 0; i < b.len; ++i) {
    terminated = EmitInstr(b, block.code[i], i, block.start + 4 * i, &slow_reqs);
  }
  if (!terminated) {
    b.ChainSlot(block.start + 4 * b.len);          // fall through (page edge)
  }
  EmitMemSlowPaths(b, slow_reqs);
  for (const StubReq& s : b.stubs) {
    a.Bind(s.label);
    if (s.refund != 0) {
      a.Bytes({0x49, 0x81, 0xC5});                 // add r13, refund
      a.U32(s.refund);
    }
    a.Bytes({0x41, 0xC7, 0x44, 0x24, 0x30});       // mov dword [r12+48], pc
    a.U32(s.pc);
    a.Bytes({0x41, 0xC7, 0x44, 0x24, 0x34});       // mov dword [r12+52], reason
    a.U32(s.reason);
    Epilogue(a);
  }
  a.Finish();

  size_t need = (a.buf.size() + 15) & ~size_t{15};
  if (arena_used_ + need > arena_size_) {
    arena_full_ = true;  // stop compiling; existing translations keep running
    return 0;
  }
  size_t entry = arena_used_;
  std::memcpy(arena_ + entry, a.buf.data(), a.buf.size());
  arena_used_ += need;
  *arena_bytes_ += a.buf.size();
  ++*compiled_;
  code_map_[block.start] = entry;

  // Direct-link: our own slots to already-compiled successors (including this
  // block itself — the tight-loop case), then any earlier blocks waiting on us.
  for (const ChainReq& c : b.chains) {
    auto it = code_map_.find(c.target);
    if (it != code_map_.end()) {
      PatchJmp(entry + c.site, it->second);
      ++*chained_;
    } else {
      pending_links_.emplace(c.target, entry + c.site);
    }
  }
  auto range = pending_links_.equal_range(block.start);
  for (auto it = range.first; it != range.second; ++it) {
    PatchJmp(it->second, entry);
    ++*chained_;
  }
  pending_links_.erase(range.first, range.second);
  return entry;
}

JitRun Jit::TryRun(const DecodedBlock& block, AddressSpace* space, CpuState* st,
                   uint64_t fuel, uint64_t* steps_out, Fault* fault_out) {
  *steps_out = 0;
  if (arena_ == nullptr) {
    return JitRun::kNotRun;
  }
  uint64_t epoch = space->CodeEpoch();
  if (epoch != epoch_) {
    RetireAll();
    epoch_ = epoch;
  }
  auto it = code_map_.find(block.start);
  if (it == code_map_.end()) {
    if (arena_full_ || ++block.hot < threshold_) {
      ++*bailouts_;
      return JitRun::kNotRun;
    }
    if (Compile(block) == 0) {
      ++*bailouts_;
      return JitRun::kNotRun;
    }
    it = code_map_.find(block.start);
  }
  if (fuel < block.code.size()) {
    // Let the interpreter cut the block at the budget edge — preemption points
    // must not depend on the tier.
    ++*bailouts_;
    return JitRun::kNotRun;
  }

  // The probe trusts tags instead of comparing epochs; the translation epoch
  // cannot move until native code exits (the contract in address_space.h).
  space->SyncTlbTags();
  JitContext ctx;
  ctx.regs = st->regs.data();
  ctx.tlb = reinterpret_cast<uint8_t*>(space->tlb_for_jit());
  ctx.fuel = fuel;
  ctx.code_epoch = epoch;
  ctx.space = space;
  ctx.syscall_hook = syscall_hook_;
  ctx.syscall_arg = syscall_arg_;
  entry_thunk_(&ctx, arena_ + it->second);
  *steps_out = fuel - ctx.fuel;
  *tlb_hits_ += ctx.tlb_hits;
  st->pc = ctx.exit_pc;
  switch (ctx.exit_reason) {
    case kJitExitFuel:
    case kJitExitEnd:
      return JitRun::kContinue;
    case kJitExitSmc:
      ++*deopts_;  // re-dispatch re-checks the epoch and retires the arena
      return JitRun::kContinue;
    case kJitExitSyscall:
      return JitRun::kSyscall;
    case kJitExitBreak:
      return JitRun::kBreak;
    case kJitExitFault:
      ++*deopts_;
      *fault_out = ctx.fault;
      return JitRun::kFault;
    case kJitExitDivZero:
      ++*deopts_;
      return JitRun::kDivZero;
    default:
      return JitRun::kContinue;
  }
}

}  // namespace hemlock
