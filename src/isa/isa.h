// HRISC: the simulated 32-bit ISA executed by the Hemlock machine.
//
// HRISC deliberately mirrors the MIPS R3000 properties the paper works around:
//   * J/JAL carry a 26-bit word target, giving a 28-bit (256 MB) reach within the
//     current region — jumps from private text (region 0x0) into public modules
//     (0x30000000+) cannot be encoded and require linker trampolines (paper §3).
//   * 32-bit addresses are materialized with a LUI/ORI pair, relocated via HI16/LO16.
//   * r28 is the "global pointer"; Hemlock compiles with gp-relative addressing
//     disabled (24-bit gp offsets are incompatible with a sparse address space), so
//     HRISC code never uses r28.
//
// Instructions are fixed 32-bit little-endian words, 4-byte aligned.
#ifndef SRC_ISA_ISA_H_
#define SRC_ISA_ISA_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>

namespace hemlock {

inline constexpr uint32_t kInstrBytes = 4;

// Register conventions (MIPS o32 flavored).
enum Reg : uint8_t {
  kRegZero = 0,  // hardwired zero
  kRegAt = 1,    // assembler/trampoline scratch
  kRegV0 = 2,    // return value / syscall number
  kRegV1 = 3,    // second return / syscall error
  kRegA0 = 4,
  kRegA1 = 5,
  kRegA2 = 6,
  kRegA3 = 7,
  kRegT0 = 8,
  kRegT1 = 9,
  kRegT2 = 10,
  kRegT3 = 11,
  kRegT4 = 12,
  kRegT5 = 13,
  kRegT6 = 14,
  kRegT7 = 15,
  kRegS0 = 16,
  kRegS1 = 17,
  kRegS2 = 18,
  kRegS3 = 19,
  kRegS4 = 20,
  kRegS5 = 21,
  kRegS6 = 22,
  kRegS7 = 23,
  kRegT8 = 24,
  kRegT9 = 25,
  kRegK0 = 26,  // reserved for the (simulated) kernel
  kRegK1 = 27,
  kRegGp = 28,  // never used: gp-relative addressing disabled (paper §3)
  kRegSp = 29,
  kRegFp = 30,
  kRegRa = 31,
  kNumRegs = 32,
};

// Primary opcodes (top 6 bits).
enum class Op : uint8_t {
  kRType = 0x00,
  kJ = 0x02,
  kJal = 0x03,
  kBeq = 0x04,
  kBne = 0x05,
  kBlez = 0x06,
  kBgtz = 0x07,
  kAddi = 0x08,
  kSlti = 0x0A,
  kSltiu = 0x0B,
  kAndi = 0x0C,
  kOri = 0x0D,
  kXori = 0x0E,
  kLui = 0x0F,
  kLb = 0x20,
  kLw = 0x23,
  kLbu = 0x24,
  kSb = 0x28,
  kSw = 0x2B,
};

// R-type function codes (low 6 bits when op == kRType).
enum class Funct : uint8_t {
  kSll = 0x00,
  kSrl = 0x02,
  kSra = 0x03,
  kSllv = 0x04,
  kSrlv = 0x06,
  kSrav = 0x07,
  kJr = 0x08,
  kJalr = 0x09,
  kSyscall = 0x0C,
  kBreak = 0x0D,
  kMul = 0x18,  // rd = rs * rt (single-word result; simplification of MULT/MFLO)
  kDiv = 0x1A,  // rd = rs / rt (traps on divide-by-zero)
  kMod = 0x1B,  // rd = rs % rt
  kAdd = 0x20,
  kSub = 0x22,
  kAnd = 0x24,
  kOr = 0x25,
  kXor = 0x26,
  kNor = 0x27,
  kSlt = 0x2A,
  kSltu = 0x2B,
};

// The syscall table: every call the simulated kernel serves, listed once as
// X(Name, number, HemC intrinsic, args, sync). The guest puts the number in $v0 and
// the args in $a0..$a2; the result comes back in $v0 with an ErrorCode in $v1
// (0 = OK; an unknown number gets -1 and kUnimplemented). Codegen compiles a call
// to the intrinsic into a SYSCALL; Machine expands the rows into its handler table
// (src/vm/machine.cc), so a row without a kernel handler does not compile. |sync|
// marks the calls whose $a0 must be an aligned shared-region word, checked once
// before any handler runs. AddrToPath and OpenByAddr are the paper's new calls
// (§2); Cas is the kernel's compare-and-swap, since HRISC has no atomics (like
// Linux's kuser cmpxchg helper on ARMv5); Signal is the paper's wrapped signal().
#define HEMLOCK_SYSCALLS(X)                                                              \
  X(Exit, 1, "sys_exit", 1, false)         /* status */                                  \
  X(Write, 2, "sys_write", 3, false)       /* fd, buf, len -> bytes written */           \
  X(Read, 3, "sys_read", 3, false)         /* fd, buf, len -> bytes read */              \
  X(Open, 4, "sys_open", 2, false)         /* path, flags -> fd */                       \
  X(Close, 5, "sys_close", 1, false)       /* fd */                                      \
  X(Fork, 6, "sys_fork", 0, false)         /* -> child pid (0 in the child) */           \
  X(WaitPid, 7, "sys_waitpid", 1, false)   /* pid -> exit status */                      \
  X(GetPid, 8, "sys_getpid", 0, false)     /* -> pid */                                  \
  X(Sbrk, 9, "sys_sbrk", 1, false)         /* delta -> old break */                      \
  X(Unlink, 10, "sys_unlink", 1, false)    /* path */                                    \
  X(Stat, 11, "sys_stat", 2, false)        /* path, out {inode, size, addr} */           \
  X(AddrToPath, 12, "sys_addr_to_path", 3, false) /* addr, buf, len -> path length */    \
  X(OpenByAddr, 13, "sys_open_by_addr", 2, false) /* addr, flags -> fd */                \
  X(Yield, 14, "sys_yield", 0, false)                                                    \
  X(Time, 15, "sys_time", 0, false)        /* -> simulated tick count */                 \
  X(LockFile, 16, "sys_lockf", 2, false)   /* fd, 1 lock / 0 unlock (paper §4) */        \
  X(Signal, 17, "sys_signal", 1, false)    /* handler (0 = reset) -> previous one */     \
  X(FutexWait, 18, "sys_futex_wait", 2, true) /* addr, expected: block while equal */    \
  X(FutexWake, 19, "sys_futex_wake", 2, true) /* addr, max -> number woken */            \
  X(Cas, 20, "sys_cas", 3, true)           /* addr, expected, desired -> old value */    \
  X(Spawn, 21, "sys_spawn", 1, false)      /* image path -> child pid (rwho launcher) */ \
  X(SetPrio, 22, "sys_setprio", 1, false)  /* priority (higher runs first under rr) */

enum class Sys : uint32_t {
#define HEMLOCK_SYS_ENUMERATOR(name, number, intrinsic, nargs, sync) k##name = number,
  HEMLOCK_SYSCALLS(HEMLOCK_SYS_ENUMERATOR)
#undef HEMLOCK_SYS_ENUMERATOR
};

// The rows as data, for the code generator.
struct SyscallInfo {
  Sys number;
  const char* intrinsic;  // the HemC name that compiles to this call
  int nargs;              // in $a0..$a2
};

inline constexpr SyscallInfo kSyscalls[] = {
#define HEMLOCK_SYS_INFO(name, number, intrinsic, nargs, sync) {Sys::k##name, intrinsic, nargs},
  HEMLOCK_SYSCALLS(HEMLOCK_SYS_INFO)
#undef HEMLOCK_SYS_INFO
};

// One past the largest syscall number: the length of a table indexed by number.
inline constexpr uint32_t kSysLimit = [] {
  uint32_t limit = 0;
  for (const SyscallInfo& sys : kSyscalls) {
    limit = std::max(limit, static_cast<uint32_t>(sys.number) + 1);
  }
  return limit;
}();

// Returning from a simulated SIGSEGV handler: the handler's return jumps here, a
// reserved unmapped address the kernel recognizes, restoring the interrupted context
// and retrying the faulting instruction.
inline constexpr uint32_t kSigReturnAddr = 0x7FFF0000;

// A decoded instruction.
struct Instr {
  Op op = Op::kRType;
  Funct funct = Funct::kSll;
  uint8_t rs = 0;
  uint8_t rt = 0;
  uint8_t rd = 0;
  uint8_t shamt = 0;
  int16_t imm = 0;       // sign-carrying I-type immediate
  uint32_t target = 0;   // 26-bit J-type word target
};

// --- Encoding helpers (used by the code generator and the linker's trampolines) ---

uint32_t EncodeR(Funct funct, uint8_t rd, uint8_t rs, uint8_t rt, uint8_t shamt = 0);
uint32_t EncodeI(Op op, uint8_t rt, uint8_t rs, uint16_t imm);
uint32_t EncodeJ(Op op, uint32_t target_word26);

// Convenience encoders.
uint32_t EncodeNop();
uint32_t EncodeLui(uint8_t rt, uint16_t imm);
uint32_t EncodeOri(uint8_t rt, uint8_t rs, uint16_t imm);
uint32_t EncodeJr(uint8_t rs);
uint32_t EncodeJalr(uint8_t rd, uint8_t rs);
uint32_t EncodeSyscall();
uint32_t EncodeBreak();

// Decodes a raw word. Returns std::nullopt for an illegal encoding.
std::optional<Instr> Decode(uint32_t word);

// True when a J/JAL at |pc| can reach |target|: both must lie in the same
// 256 MB region (bits 31..28 of pc+4 and target equal) — the paper's 28-bit limit.
bool JumpInRange(uint32_t pc, uint32_t target);

// Computes the absolute jump target for a J/JAL at |pc| with 26-bit field |t26|.
uint32_t JumpTarget(uint32_t pc, uint32_t t26);

// Register name for disassembly ("$sp", "$t0", ...).
const char* RegName(uint8_t reg);

// One-line disassembly of |word| as if located at |pc|.
std::string Disassemble(uint32_t word, uint32_t pc);

}  // namespace hemlock

#endif  // SRC_ISA_ISA_H_
