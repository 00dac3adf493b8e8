// The simulated kernel: process table, scheduler, syscalls, and fault delivery.
//
// This is where the paper's "modifications to the IRIX kernel" live:
//   * the shared file system and its address <-> file lookup table (via Vfs/SharedFs);
//   * new system calls translating addresses to path names and opening files by
//     address (Sys::kAddrToPath, Sys::kOpenByAddr);
//   * fork that copies private segments and shares public ones;
//   * delivery of segmentation faults to user-level handlers. Handlers here are
//     *native hooks* registered per process — they play the role of the user-level
//     SIGSEGV handler library of the paper (the Hemlock runtime installs its handler
//     first; a program-provided handler can be chained behind it, reproducing the
//     paper's wrapped signal() semantics).
#ifndef SRC_VM_MACHINE_H_
#define SRC_VM_MACHINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/base/metrics.h"
#include "src/base/trace.h"
#include "src/kernel/race.h"
#include "src/kernel/scheduler.h"
#include "src/sfs/vfs.h"
#include "src/vm/cpu.h"
#include "src/vm/jit.h"

namespace hemlock {

// Simulated open() flags (subset of POSIX).
inline constexpr uint32_t kOpenRead = 0x0;
inline constexpr uint32_t kOpenWrite = 0x1;
inline constexpr uint32_t kOpenReadWrite = 0x2;
inline constexpr uint32_t kOpenCreate = 0x40;
inline constexpr uint32_t kOpenTrunc = 0x200;

struct FileDesc {
  enum class Kind : uint8_t { kClosed, kStdio, kSfs, kMem };
  Kind kind = Kind::kClosed;
  uint32_t ino = 0;        // kSfs
  std::string path;        // kMem
  std::vector<uint8_t> buf;  // kMem: cached contents, flushed on close
  bool dirty = false;
  uint32_t offset = 0;
  uint32_t flags = 0;
};

enum class ProcState : uint8_t { kRunnable, kWaiting, kZombie };

// What a kWaiting process is waiting *for* — determines how its wake-up behaves:
//   kChild: waitpid; the wake only requeues it, reaping happens when it next runs.
//   kFutex: sys_futex_wait; the wake fills $v0/$v1 (the syscall's return).
//   kAddr:  a kernel-side wait on a shared address (ldl blocked on another process's
//           creation lock); the wake must NOT touch registers — the pc still points
//           at the faulting instruction, which simply retries.
enum class WaitKind : uint8_t { kNone, kChild, kFutex, kAddr };

class Machine;
class Process;

// A native fault handler: returns true when it resolved the fault (the instruction is
// retried), false to pass the fault down the chain.
using FaultHandler = std::function<bool(Machine&, Process&, const Fault&)>;

class Process {
 public:
  Process(int pid, int parent, SharedFs* sfs);

  int pid() const { return pid_; }
  int parent() const { return parent_; }
  AddressSpace& space() { return *space_; }
  CpuState& cpu() { return cpu_; }
  const CpuState& cpu() const { return cpu_; }

  ProcState state() const { return state_; }
  int exit_status() const { return exit_status_; }
  uint64_t steps() const { return steps_; }
  uint64_t fault_count() const { return fault_count_; }
  uint64_t resolved_fault_count() const { return resolved_fault_count_; }

  // Captured writes to fd 1/2 (the simulated terminal).
  const std::string& stdout_text() const { return stdout_text_; }
  void clear_stdout() { stdout_text_.clear(); }

  std::map<std::string, std::string>& env() { return env_; }
  const std::map<std::string, std::string>& env() const { return env_; }
  std::string GetEnv(const std::string& key) const;

  const std::string& cwd() const { return cwd_; }
  void set_cwd(std::string cwd) { cwd_ = std::move(cwd); }

  // Heap break (set up by the loader, grown by sbrk).
  uint32_t brk() const { return brk_; }
  void set_brk(uint32_t brk) { brk_ = brk; }

  // Installs a fault handler at the *front* of the chain. The Hemlock runtime
  // installs its handler; a test/program handler installed later runs first only if
  // push_front is chosen — the paper's semantics are: Hemlock's handler runs first,
  // program handlers run when it cannot resolve. So runtime uses PushFaultHandler
  // (front) and programs use ChainFaultHandler (back).
  void PushFaultHandler(FaultHandler handler);
  void ChainFaultHandler(FaultHandler handler);

  // Simulated-program SIGSEGV handler (installed via Sys::kSignal): runs after every
  // native handler declined, as a function call with the fault address in $a0; its
  // return (through kSigReturnAddr) restores the context and retries the instruction.
  uint32_t user_segv_handler() const { return user_segv_handler_; }
  bool in_user_handler() const { return in_user_handler_; }

  // Scheduling priority (sys_setprio); higher runs first under round-robin.
  int priority() const { return priority_; }
  WaitKind wait_kind() const { return wait_kind_; }
  uint32_t wait_addr() const { return wait_addr_; }

  // The process's decoded-block cache. It lives here (not in the Cpu) because the
  // Cpu is reconstructed every quantum while decoded blocks stay hot across them.
  ExecCache& exec_cache() { return exec_cache_; }
  // The process's JIT tier (null when disabled or unsupported on this host).
  Jit* jit() { return jit_.get(); }

 private:
  friend class Machine;

  int pid_;
  int parent_;
  std::unique_ptr<AddressSpace> space_;
  CpuState cpu_;
  ProcState state_ = ProcState::kRunnable;
  WaitKind wait_kind_ = WaitKind::kNone;
  int wait_target_ = -1;
  uint32_t wait_addr_ = 0;
  int priority_ = 0;
  bool yielded_ = false;  // sys_yield ends the quantum under a scheduled run
  int exit_status_ = 0;
  uint32_t brk_ = 0;
  std::vector<FileDesc> fds_;
  std::string stdout_text_;
  std::map<std::string, std::string> env_;
  std::string cwd_ = "/home/user";
  std::vector<FaultHandler> fault_handlers_;
  uint32_t user_segv_handler_ = 0;
  bool in_user_handler_ = false;
  CpuState saved_context_;  // context interrupted by the user handler
  uint64_t steps_ = 0;
  uint64_t fault_count_ = 0;
  uint64_t resolved_fault_count_ = 0;
  uint64_t syscall_count_ = 0;
  // Ticks charged during the current DriveProcess dispatch (steps + syscall and
  // fault costs); the scheduler loops read it after each quantum.
  uint64_t charged_ = 0;
  // Private cells behind this process's vm.tlb.* / vm.icache.* / vm.jit.*
  // counters. The TLB, block cache, and JIT bump these from the guest loop —
  // outside the kernel lock under SMP — so they cannot share the machine-wide
  // registry cells; each quantum's totals are folded into the registry at
  // dispatch end (FlushVmCounters).
  uint64_t vm_cells_[11] = {};
  ExecCache exec_cache_;
  // The process's code arena + translations (per-process, like the block cache);
  // null when the tier is disabled or the host cannot run generated code.
  std::unique_ptr<Jit> jit_;
};

// Status of driving a process or a scheduled run. (Previously named after the run
// itself, which collided in spirit with HemlockWorld::RunProgram's RunOutcome
// result struct; CHANGES.md has the migration note.)
enum class SchedStatus : uint8_t {
  kExited,     // process reached exit (or was killed); see exit_status()
  kBlocked,    // waiting (waitpid / futex / lock) — run something else
  kOutOfGas,   // step budget exhausted while still runnable
  kDeadlock,   // RunScheduled: ready queue empty, live waiters remain — nothing
               // can ever wake them (distinct from budget exhaustion)
};

class Machine {
 public:
  Machine();
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  Vfs& vfs() { return *vfs_; }
  SharedFs& sfs() { return vfs_->sfs(); }

  // Machine-wide observability: kernel-side counters ("vm.*", "sfs.*") and the
  // structured event ring. Per-process linker counters live in each Ldl's own
  // registry; RunOutcome merges the two.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  TraceBuffer& trace() { return trace_; }
  const TraceBuffer& trace() const { return trace_; }

  // Replaces the shared partition (simulated reboot from "disk") and re-wires its
  // observability taps. Prefer this over Vfs::ReplaceSfs, which leaves the new
  // partition unobserved.
  void ReplaceSfs(std::unique_ptr<SharedFs> sfs);

  // Blocking network wait (the distributed attach path, src/net): releases the
  // calling core's held kernel lock for the lifetime of the returned guard so a
  // remote page fetch stalls only the faulting core, never the whole machine;
  // the lock is re-acquired when the guard dies. Null — and a no-op — when the
  // calling thread is not driving a process (tools and tests calling the net
  // layer directly).
  std::shared_ptr<void> EnterNetWait();

  // Creates an empty process (no mappings, pc = 0). Loaders (src/link) populate it.
  Process& CreateProcess();
  Process* FindProcess(int pid);

  // Drives one process until it exits, blocks, or exhausts |max_steps|, under the
  // kernel lock like any core. Syscalls and faults are handled internally.
  SchedStatus RunProcess(int pid, uint64_t max_steps = kDefaultBudget);

  // The unified Run API: dispatches ready processes a quantum at a time under
  // |params|' policy until every process has exited (kExited), nothing can ever
  // run again (kDeadlock), or the tick budget runs out (kOutOfGas). Waiting
  // processes are never polled — they rejoin the ready queue when their wake event
  // fires (child exit, futex wake, creation-lock release).
  //
  // Each of params.num_cores cores drives its own run queue (work-stealing when
  // dry): core 0 on the calling thread, every further core on a host thread of
  // its own. Guest code runs outside the kernel lock; with more than one core,
  // host-pointer-invalidating SFS mutations quiesce every core first (the
  // shootdown protocol — docs/CONCURRENCY.md). Returns kExited when the budget
  // ran out but no live process remains (so "did everything finish" is a single
  // == kExited check at any core count).
  SchedStatus RunScheduled(const SchedParams& params, uint64_t max_total_steps = kDefaultBudget);

  Scheduler& scheduler() { return scheduler_; }

  // Turns on the happens-before race detector for the shared region. Enable before
  // creating processes so every lifetime edge is seen. Null when disabled.
  void EnableRaceDetector(RaceOptions options = {});
  RaceDetector* race() { return race_.get(); }

  // Registered by the loader layer: executes the image at |path| in a fresh process
  // and returns its pid (sys_spawn's backend; breaks the vm -> link layering cycle).
  using SpawnHandler = std::function<Result<int>(Machine&, const std::string& path)>;
  void SetSpawnHandler(SpawnHandler handler) { spawn_handler_ = std::move(handler); }

  // Parks the *currently running* process on a kernel-side wait for |addr| (ldl
  // blocking on another process's creation lock). The faulting instruction retries
  // when the matching unlock wakes it.
  void BlockProcessOnAddr(Process& proc, uint32_t addr);

  // Wakes up to |max| processes parked on |addr|, filling futex-wait returns.
  uint32_t WakeWaiters(uint32_t addr, uint32_t max);

  // Kills a process (fault delivered and unresolved, or external request).
  void KillProcess(int pid, int status, const std::string& reason);

  // Simulated wall clock: total instructions retired machine-wide.
  uint64_t ticks() const { return ticks_; }
  // Total faults delivered / resolved machine-wide (bench counters).
  uint64_t total_faults() const { return total_faults_; }
  uint64_t total_syscalls() const { return total_syscalls_; }

  // Selects the reference decode-every-step interpreter instead of the fast block
  // engine (hemrun --slow-interp; env HEMLOCK_SLOW_INTERP=1). Semantics are
  // identical by contract — the differential CI job diffs the two modes.
  void set_slow_interp(bool slow) { slow_interp_ = slow; }
  bool slow_interp() const { return slow_interp_; }

  // The JIT tier above the block cache (hemrun --jit/--no-jit; env HEMLOCK_JIT=0
  // disables). On by default; takes effect for processes created afterwards. The
  // tier self-disables per quantum when the race detector or tracing is on, and
  // per process when the host cannot run generated code — semantics are identical
  // by contract either way (the three-engine differential CI job enforces it).
  void set_jit_enabled(bool enabled) { jit_enabled_ = enabled; }
  bool jit_enabled() const { return jit_enabled_; }
  // Block-dispatch count at which a block is compiled (hemrun --jit-threshold).
  void set_jit_threshold(uint32_t threshold) { jit_threshold_ = threshold; }

  // Per-syscall simulated cost in ticks, charged on top of the instruction count —
  // keeps simulated comparisons honest about kernel-crossing overhead (used by the
  // rwho and IPC benches). Default 200 ticks per syscall, 2000 per fault delivery.
  void set_syscall_cost(uint64_t cost) { syscall_cost_ = cost; }
  void set_fault_cost(uint64_t cost) { fault_cost_ = cost; }
  uint64_t syscall_cost() const { return syscall_cost_; }
  uint64_t fault_cost() const { return fault_cost_; }

  // Registered by the runtime; called when a process exits (lock cleanup etc.).
  void AddExitHook(std::function<void(Process&)> hook) { exit_hooks_.push_back(std::move(hook)); }

  // Number of live (non-zombie, non-reaped) processes.
  int LiveProcessCount() const;

 private:
  static constexpr uint64_t kDefaultBudget = 200'000'000;

  // Points the (possibly just-replaced) partition's observability and liveness
  // hooks back at this machine.
  void WireSfs();

  // One dispatch of |proc| for up to |max_steps|. |lk| is the caller's held
  // kernel lock, which DriveProcess releases only around the guest cpu.Run
  // chunks — syscalls, faults, and every scheduler transition happen with the
  // lock held. The lock is held continuously from the end of a guest chunk
  // through the next loop-top state check, so a process this core parked cannot
  // be re-dispatched elsewhere until this call returns.
  SchedStatus DriveProcess(Process& proc, uint64_t max_steps,
                           std::unique_lock<std::mutex>& lk);
  SchedStatus DriveProcessLoop(Process& proc, uint64_t max_steps,
                               std::unique_lock<std::mutex>& lk);
  // One core's dispatch loop: picks from |core|'s queue until stop, budget, or
  // deadlock.
  void CoreLoop(int core);
  // The SFS's shootdown hook: drains every guest core (unique world lock) before a
  // host-pointer-invalidating mutation proceeds. Null guard outside runs of more
  // than one core.
  SharedFs::ShootdownGuard BeginShootdown();
  // Advances the simulated clock and bills the current dispatch.
  void ChargeTicks(Process& proc, uint64_t n);
  // Folds |proc|'s private vm.tlb.*/vm.icache.*/vm.jit.* cells into the registry.
  void FlushVmCounters(Process& proc);
  // Aims |proc|'s TLB/block-cache/JIT counter taps at its private cells and
  // builds its JIT when the tier is on (CreateProcess and fork share this).
  void WireProcessVm(Process& proc);
  // Logs + traces a deadlock (ready queues empty, live waiters remain).
  SchedStatus ReportDeadlock();

  void DoSyscall(Process& proc);
  // Returns true if the fault was resolved and the instruction should retry.
  bool DeliverFault(Process& proc, const Fault& fault);
  void ExitProcess(Process& proc, int status);
  void FlushFd(Process& proc, FileDesc& fd);
  // Reaps a zombie |child| of |proc| (fills $v0/$v1, erases the process).
  void ReapChild(Process& proc, int child_pid);
  // Loads the shared word at |addr| for a sync syscall, running native fault
  // handlers on a miss (the kernel's copy_from_user moment). Returns 0 on success,
  // -1 on error; 1 when the fault handler *blocked* the process — the pc has been
  // rewound so the whole syscall re-executes after the wake.
  int LoadSyncWord(Process& proc, uint32_t addr, uint32_t* value);

  // Syscall helpers.
  uint32_t SysOpen(Process& proc, const std::string& path, uint32_t flags, uint32_t* err);
  uint32_t SysOpenByAddr(Process& proc, uint32_t addr, uint32_t flags, uint32_t* err);

  std::unique_ptr<Vfs> vfs_;
  MetricsRegistry metrics_;
  TraceBuffer trace_;
  // Hot-path counter handles, resolved once in the constructor.
  uint64_t* m_faults_delivered_ = nullptr;
  uint64_t* m_faults_resolved_ = nullptr;
  uint64_t* m_faults_fatal_ = nullptr;
  uint64_t* m_syscalls_ = nullptr;
  // Fast-path counters, shared by every process's TLB and block cache.
  uint64_t* m_tlb_hits_ = nullptr;
  uint64_t* m_tlb_misses_ = nullptr;
  uint64_t* m_tlb_flushes_ = nullptr;
  uint64_t* m_icache_hits_ = nullptr;
  uint64_t* m_icache_misses_ = nullptr;
  uint64_t* m_icache_invalidations_ = nullptr;
  uint64_t* m_jit_compiled_ = nullptr;
  uint64_t* m_jit_chained_ = nullptr;
  uint64_t* m_jit_deopts_ = nullptr;
  uint64_t* m_jit_bailouts_ = nullptr;
  uint64_t* m_jit_arena_bytes_ = nullptr;
  uint64_t* m_shootdowns_ = nullptr;
  std::map<int, std::unique_ptr<Process>> procs_;
  int next_pid_ = 1;
  uint64_t ticks_ = 0;
  uint64_t total_faults_ = 0;
  uint64_t total_syscalls_ = 0;
  uint64_t syscall_cost_ = 200;
  uint64_t fault_cost_ = 2000;
  std::vector<std::function<void(Process&)>> exit_hooks_;
  Scheduler scheduler_{&metrics_};
  std::unique_ptr<RaceDetector> race_;
  SpawnHandler spawn_handler_;
  bool scheduled_run_ = false;  // inside RunScheduled: sys_yield ends the quantum
  size_t race_reports_traced_ = 0;  // reports already copied into the trace ring
  bool slow_interp_ = false;    // reference interpreter only (differential runs)
  bool jit_enabled_ = true;     // the template-JIT tier (per-process arenas)
  uint32_t jit_threshold_ = Jit::kDefaultThreshold;
  bool trace_on_ = false;       // trace_.enabled(), cached once per quantum

  // --- Scheduled-run state (docs/CONCURRENCY.md) ---
  //
  // Two locks, strict order kernel_mu_ -> world_mu_(unique):
  //   * kernel_mu_ — the big kernel lock. A core holds it at all times except
  //     while its guest runs; every kernel structure above (procs_, ticks_,
  //     scheduler_, SFS metadata, trace) is protected by it during a run.
  //   * world_mu_ — held *shared* by each core while its guest runs. Taking it
  //     unique is the shootdown: it drains every core out of guest code before a
  //     host pointer those cores may cache (SFS extents, TLB targets) is moved.
  //     A core never takes kernel_mu_ while holding world_mu_ shared, so the
  //     shootdown (kernel lock held, world unique wanted) cannot deadlock.
  std::mutex kernel_mu_;
  std::shared_mutex world_mu_;
  std::condition_variable smp_cv_;     // "the ready queues gained work" / "stop"
  std::atomic<bool> smp_active_{false};  // >1 core running; read by BeginShootdown
  bool smp_stop_ = false;
  int smp_running_cores_ = 0;          // cores currently inside DriveProcess
  uint64_t smp_spent_ = 0;
  uint64_t smp_budget_ = 0;
  uint64_t smp_quantum_ = 4096;
  SchedStatus smp_result_ = SchedStatus::kOutOfGas;
};

}  // namespace hemlock

#endif  // SRC_VM_MACHINE_H_
