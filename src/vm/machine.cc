#include "src/vm/machine.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "src/base/faults.h"
#include "src/base/layout.h"
#include "src/base/logging.h"
#include "src/base/strings.h"

namespace hemlock {
namespace {

// Feeds the race detector every load/store a process retires in the shared region.
// Stack-allocated per RunProcess call; the Cpu pays one null check when disabled.
class RaceObserver : public CpuObserver {
 public:
  RaceObserver(RaceDetector* race, int pid) : race_(race), pid_(pid) {}
  void OnLoad(uint32_t addr, uint32_t len, uint32_t pc) override {
    if (InSfsRegion(addr)) race_->OnAccess(pid_, addr, len, /*is_write=*/false, pc);
  }
  void OnStore(uint32_t addr, uint32_t len, uint32_t pc) override {
    if (InSfsRegion(addr)) race_->OnAccess(pid_, addr, len, /*is_write=*/true, pc);
  }

 private:
  RaceDetector* race_;
  int pid_;
};

// A sync syscall's word: aligned and inside the shared region.
bool IsSyncWord(uint32_t addr) { return InSfsRegion(addr) && (addr & 3u) == 0; }

std::atomic<uint64_t> next_machine_serial{1};

}  // namespace

const Machine::SysResult Machine::kKeepRegs{0, 0, /*keep_regs=*/true};

struct Machine::SysEntry {
  SysResult (Machine::*kernel)(Process&, uint32_t, uint32_t, uint32_t);
  // Null: the call always takes the kernel path.
  std::optional<uint32_t> (Machine::*in_place)(Process&, uint32_t, uint32_t, uint32_t);
  bool sync_word;  // $a0 must be a sync word
};

Process::Process(int pid, int parent, SharedFs* sfs)
    : pid_(pid), parent_(parent), space_(std::make_unique<AddressSpace>(sfs)) {
  fds_.resize(3);
  fds_[0].kind = FileDesc::Kind::kStdio;
  fds_[1].kind = FileDesc::Kind::kStdio;
  fds_[2].kind = FileDesc::Kind::kStdio;
}

std::string Process::GetEnv(const std::string& key) const {
  auto it = env_.find(key);
  return it == env_.end() ? std::string() : it->second;
}

void Process::PushFaultHandler(FaultHandler handler) {
  fault_handlers_.insert(fault_handlers_.begin(), std::move(handler));
}

void Process::ChainFaultHandler(FaultHandler handler) {
  fault_handlers_.push_back(std::move(handler));
}

Machine::Machine()
    : serial_(next_machine_serial.fetch_add(1, std::memory_order_relaxed)),
      vfs_(std::make_unique<Vfs>()) {
  m_faults_delivered_ = metrics_.Counter("vm.faults_delivered");
  m_faults_resolved_ = metrics_.Counter("vm.faults_resolved");
  m_faults_fatal_ = metrics_.Counter("vm.faults_fatal");
  m_syscalls_ = metrics_.Counter("vm.syscalls");
  m_syscalls_in_place_ = metrics_.Counter("vm.syscalls.in_place");
  m_tlb_hits_ = metrics_.Counter("vm.tlb.hits");
  m_tlb_misses_ = metrics_.Counter("vm.tlb.misses");
  m_tlb_flushes_ = metrics_.Counter("vm.tlb.flushes");
  m_icache_hits_ = metrics_.Counter("vm.icache.hits");
  m_icache_misses_ = metrics_.Counter("vm.icache.misses");
  m_icache_invalidations_ = metrics_.Counter("vm.icache.invalidations");
  m_jit_compiled_ = metrics_.Counter("vm.jit.compiled_blocks");
  m_jit_chained_ = metrics_.Counter("vm.jit.chained");
  m_jit_deopts_ = metrics_.Counter("vm.jit.deopts");
  m_jit_bailouts_ = metrics_.Counter("vm.jit.bailouts");
  m_jit_arena_bytes_ = metrics_.Counter("vm.jit.arena_bytes");
  m_shootdowns_ = metrics_.Counter("vm.sched.shootdowns");
  m_zero_filled_ = metrics_.Counter("vm.pages.zero_filled");
  // Escape hatches for the differential CI job: run existing test binaries against
  // the reference interpreter (or with the JIT tier off) without recompiling them.
  const char* slow_env = std::getenv("HEMLOCK_SLOW_INTERP");
  slow_interp_ = slow_env != nullptr && slow_env[0] != '\0' && slow_env[0] != '0';
  const char* jit_env = std::getenv("HEMLOCK_JIT");
  if (jit_env != nullptr && (jit_env[0] == '\0' || jit_env[0] == '0')) {
    jit_enabled_ = false;
  }
  WireSfs();
  // The newest machine claims the process-global fault registry's observability:
  // injected faults show up in this machine's metrics, and delay faults advance
  // this machine's partition clock (driving lock-lease expiry).
  FaultRegistry::Global().SetMetrics(&metrics_);
  FaultRegistry::Global().SetDelayHook([this](uint64_t ticks) { sfs().AdvanceClock(ticks); });
}

Machine::~Machine() {
  // Only detach if the registry still points at *this* machine — a newer machine
  // may have claimed it since (latest wins; see the constructor).
  FaultRegistry::Global().DetachMetrics(&metrics_);
}

void Machine::WireSfs() {
  sfs().SetObservers(&metrics_, &trace_);
  // Liveness oracle for the creation lock: a holder is alive while its process
  // exists and has not turned zombie.
  sfs().SetPidProber([this](int pid) {
    Process* p = FindProcess(pid);
    return p != nullptr && p->state() != ProcState::kZombie;
  });
  // Releasing a creation lock wakes anyone parked on the segment's address (a
  // lazy-link fault taken while the creator was still writing the module).
  sfs().SetUnlockHook([this](uint32_t ino) {
    WakeWaiters(SfsAddressForInode(ino), /*max=*/static_cast<uint32_t>(-1));
  });
  // Host-pointer-invalidating SFS mutations (extent realloc, unlink, inode
  // recycle) quiesce every guest core first during an SMP run.
  sfs().SetShootdownHook([this] { return BeginShootdown(); });
}

SharedFs::ShootdownGuard Machine::BeginShootdown() {
  if (!smp_active_.load(std::memory_order_relaxed)) {
    return nullptr;  // single-core: nothing to drain
  }
  // The caller holds kernel_mu_ (all SFS mutations run in syscalls). Guest cores
  // hold world_mu_ shared only while running guest code and never block on the
  // kernel lock with it held, so this unique acquisition drains them and cannot
  // deadlock (lock order kernel_mu_ -> world_mu_).
  ++*m_shootdowns_;
  // A core switching at a quantum end keeps world_mu_ shared unless it sees us
  // waiting (the rwlock may favour readers).
  shootdowns_waiting_.fetch_add(1, std::memory_order_relaxed);
  auto* lock = new std::unique_lock<std::shared_mutex>(world_mu_);
  shootdowns_waiting_.fetch_sub(1, std::memory_order_relaxed);
  return SharedFs::ShootdownGuard(lock, [](void* p) {
    delete static_cast<std::unique_lock<std::shared_mutex>*>(p);
  });
}

void Machine::EnableRaceDetector(RaceOptions options) {
  race_ = std::make_unique<RaceDetector>(options);
  race_->SetMetrics(&metrics_);
  race_->SetAddrResolver([this](uint32_t addr) {
    Result<std::string> rel = sfs().AddrToPath(addr);
    return rel.ok() ? std::string(kSfsMount) + *rel : std::string("?");
  });
  for (auto& [pid, proc] : procs_) {
    if (proc->state_ != ProcState::kZombie) {
      race_->OnProcessStart(pid, /*parent=*/-1);
    }
  }
}

void Machine::ReplaceSfs(std::unique_ptr<SharedFs> sfs) {
  vfs_->ReplaceSfs(std::move(sfs));
  WireSfs();
}

void Machine::WireProcessVm(Process& proc) {
  // TLB, block-cache, and JIT counters go to the process's private cells (bumped
  // from the guest loop, outside the kernel lock under SMP); FlushVmCounters
  // folds them into the vm.* registry rows. Cells 11 and 12 are BillChunk's.
  proc.space_->WireVmCounters(&proc.vm_cells_[0], &proc.vm_cells_[1], &proc.vm_cells_[2],
                              &proc.vm_cells_[13]);
  proc.exec_cache_.WireCounters(&proc.vm_cells_[3], &proc.vm_cells_[4], &proc.vm_cells_[5]);
  proc.machine_ = this;
  if (jit_enabled_ && Jit::HostSupported()) {
    proc.jit_ = std::make_unique<Jit>();
    proc.jit_->set_threshold(jit_threshold_);
    proc.jit_->set_syscall_hook(&Machine::InPlaceHook, &proc);
    // The last tap is the shared vm.tlb.hits cell: the inline probe's hits land
    // in the same row the interpreter's probe bumps.
    proc.jit_->WireCounters(&proc.vm_cells_[6], &proc.vm_cells_[7], &proc.vm_cells_[8],
                            &proc.vm_cells_[9], &proc.vm_cells_[10], &proc.vm_cells_[0]);
  }
}

Process& Machine::CreateProcess() {
  int pid = next_pid_++;
  auto proc = std::make_unique<Process>(pid, /*parent=*/0, &sfs());
  WireProcessVm(*proc);
  Process& ref = *proc;
  procs_[pid] = std::move(proc);
  scheduler_.Admit(pid, &ref);
  if (race_) {
    race_->OnProcessStart(pid, /*parent=*/-1);
  }
  return ref;
}

Process* Machine::FindProcess(int pid) {
  auto it = procs_.find(pid);
  return it == procs_.end() ? nullptr : it->second.get();
}

int Machine::LiveProcessCount() const {
  int n = 0;
  for (const auto& [pid, proc] : procs_) {
    if (proc->state_ != ProcState::kZombie) {
      ++n;
    }
  }
  return n;
}

SchedStatus Machine::RunProcess(int pid, uint64_t max_steps) {
  Process* proc = FindProcess(pid);
  if (proc == nullptr || proc->state_ == ProcState::kZombie) {
    return SchedStatus::kExited;
  }
  std::unique_lock<std::mutex> lk(kernel_mu_);
  return DriveProcess(*proc, max_steps, lk);
}

void Machine::ChargeTicks(Process& proc, uint64_t n) {
  ticks_.fetch_add(n, std::memory_order_relaxed);
  proc.charged_ += n;
}

void Machine::BillChunk(Process& proc, uint64_t steps, uint64_t served) {
  proc.vm_cells_[11] += served;  // vm.syscalls
  proc.vm_cells_[12] += served;  // vm.syscalls.in_place
  proc.steps_ += steps - served;
  ChargeTicks(proc, steps - served + served * syscall_cost_);
}

void Machine::FlushVmCounters(Process& proc) {
  uint64_t* dst[14] = {m_tlb_hits_,     m_tlb_misses_,      m_tlb_flushes_,
                       m_icache_hits_,  m_icache_misses_,   m_icache_invalidations_,
                       m_jit_compiled_, m_jit_chained_,     m_jit_deopts_,
                       m_jit_bailouts_, m_jit_arena_bytes_, m_syscalls_,
                       m_syscalls_in_place_, m_zero_filled_};
  for (int i = 0; i < 14; ++i) {
    *dst[i] += std::exchange(proc.vm_cells_[i], 0);
  }
}

// The kernel lock the current host thread holds while driving a process, so a
// deep callee (the net client blocking on a remote fetch) can release it via
// EnterNetWait without threading the lock through every kernel layer.
thread_local std::unique_lock<std::mutex>* tl_active_kernel_lock = nullptr;

SchedStatus Machine::DriveProcess(Process& proc, uint64_t max_steps,
                                  std::unique_lock<std::mutex>& lk, bool on_core) {
  proc.charged_ = 0;
  std::unique_lock<std::mutex>* prev = tl_active_kernel_lock;
  tl_active_kernel_lock = &lk;
  SchedStatus result = DriveProcessLoop(proc, max_steps, lk, on_core);
  tl_active_kernel_lock = prev;
  if (lk.owns_lock()) {
    FlushVmCounters(proc);
  }
  return result;
}

std::shared_ptr<void> Machine::EnterNetWait() {
  std::unique_lock<std::mutex>* lk = tl_active_kernel_lock;
  if (lk == nullptr || !lk->owns_lock()) {
    return nullptr;
  }
  lk->unlock();
  return std::shared_ptr<void>(reinterpret_cast<void*>(1), [lk](void*) { lk->lock(); });
}

SchedStatus Machine::DriveProcessLoop(Process& proc, uint64_t max_steps,
                                      std::unique_lock<std::mutex>& lk, bool on_core) {
  int pid = proc.pid();
  Cpu cpu(&proc.space());
  RaceObserver observer(race_.get(), pid);
  // The race detector wants a callback per guest access, which template code
  // does not make, and sees sync calls only on the kernel path: with it on, the
  // JIT and in-place calls stand down (self-disable contract;
  // docs/PERFORMANCE.md). Tracing needs neither — every trace event comes from
  // the kernel path.
  const bool observed = race_ != nullptr;
  if (observed) {
    cpu.set_observer(&observer);
  }
  if (!slow_interp_) {
    cpu.set_exec_cache(&proc.exec_cache_);
    if (proc.jit_ != nullptr && !observed) {
      cpu.set_jit(proc.jit_.get());
    }
  }
  uint64_t budget = max_steps;
  while (budget > 0) {
    if (!lk.owns_lock() && proc.state_ != ProcState::kRunnable) {
      // A quantum-end switch handed over a parent whose waited-for child has
      // exited: the reap below needs the kernel lock.
      world_mu_.unlock_shared();
      lk.lock();
    }
    if (lk.owns_lock()) {
      if (proc.state_ == ProcState::kZombie) {
        return SchedStatus::kExited;
      }
      if (proc.state_ == ProcState::kWaiting) {
        if (proc.wait_kind_ == WaitKind::kChild) {
          // Try to reap the waited-for child.
          Process* child = FindProcess(proc.wait_target_);
          if (child != nullptr && child->state_ == ProcState::kZombie) {
            ReapChild(proc, proc.wait_target_);
          } else {
            return SchedStatus::kBlocked;
          }
        } else {
          // Futex/address waits clear on their wake event, never by polling.
          return SchedStatus::kBlocked;
        }
      }
      // Guest code runs outside the kernel lock, in parallel with the other
      // cores, under a shared hold of the world lock (a shootdown's unique
      // acquisition drains us out of here before host pointers move).
      lk.unlock();
      world_mu_.lock_shared();
    }
    uint64_t steps = 0;
    Fault fault;
    StopReason reason;
    // A syscall the interpreter tiers stop on is served right here when it can
    // be, like the JIT's in-place calls: while the budget can pay its step and
    // keep one.
    while (true) {
      uint64_t chunk = 0;
      reason = cpu.Run(&proc.cpu(), budget - steps, &chunk, &fault);
      steps += chunk;
      if (reason != StopReason::kSyscall || observed || budget - steps < 2 ||
          !SyscallInPlace(proc)) {
        break;
      }
      ++steps;  // the syscall's budget step
    }
    // Bill the calls served in place like kernel-path ones. Each put a budget
    // step into |steps| that is not an instruction.
    BillChunk(proc, steps, std::exchange(proc.in_place_syscalls_, 0));
    if (reason == StopReason::kSteps && on_core &&
        shootdowns_waiting_.load(std::memory_order_relaxed) == 0) {
      return SchedStatus::kOutOfGas;  // the quantum end: CoreLoop switches
    }
    world_mu_.unlock_shared();
    lk.lock();
    budget = budget > steps ? budget - steps : 0;
    switch (reason) {
      case StopReason::kSteps:
        return SchedStatus::kOutOfGas;
      case StopReason::kSyscall:
        DoSyscall(proc);
        if (budget > 0) {
          --budget;  // a syscall consumes at least a step of budget
        }
        if (scheduled_run_ && proc.yielded_) {
          // Under the scheduler a yield ends the quantum (the process re-queues
          // behind its peers). A direct RunProcess just continues.
          proc.yielded_ = false;
          return proc.state_ == ProcState::kZombie ? SchedStatus::kExited
                                                   : SchedStatus::kOutOfGas;
        }
        proc.yielded_ = false;
        break;
      case StopReason::kBreak:
        KillProcess(pid, 134, "break instruction");
        return SchedStatus::kExited;
      case StopReason::kFault: {
        if (DeliverFault(proc, fault)) {
          break;  // retry the instruction
        }
        KillProcess(pid, 139,
                    StrFormat("segmentation fault at 0x%08x (pc=0x%08x)", fault.addr,
                              proc.cpu().pc));
        return SchedStatus::kExited;
      }
      case StopReason::kIllegal:
        KillProcess(pid, 132, StrFormat("illegal instruction at pc=0x%08x", proc.cpu().pc));
        return SchedStatus::kExited;
      case StopReason::kDivZero:
        KillProcess(pid, 136, StrFormat("division by zero at pc=0x%08x", proc.cpu().pc));
        return SchedStatus::kExited;
    }
  }
  // The budget ended on the step of a syscall that blocked. With no budget the
  // process did not run: a woken waiter handed over then stays queued.
  if (proc.state_ == ProcState::kWaiting && max_steps > 0) {
    return SchedStatus::kBlocked;
  }
  return proc.state_ == ProcState::kZombie ? SchedStatus::kExited : SchedStatus::kOutOfGas;
}

SchedStatus Machine::ReportDeadlock() {
  scheduler_.CountDeadlock();
  std::vector<std::string> waiters = scheduler_.DescribeWaiters();
  HLOG(Warning) << "machine: deadlock — " << waiters.size()
                << " process(es) blocked with empty ready queue";
  for (const std::string& line : waiters) {
    HLOG(Warning) << "  " << line;
  }
  if (trace_.enabled()) {
    trace_.Emit(TraceKind::kDeadlock, StrFormat("%zu blocked", waiters.size()), "",
                0, static_cast<uint32_t>(waiters.size()));
  }
  return SchedStatus::kDeadlock;
}

SchedStatus Machine::RunScheduled(const SchedParams& params, uint64_t max_total_steps) {
  scheduler_.Configure(params.policy, params.seed);
  scheduler_.ConfigureCores(params.num_cores);
  // Catch up on processes created (or woken) outside a scheduled run; the
  // Enqueue also lets a core switch to a newly created one.
  for (const auto& [pid, proc] : procs_) {
    if (proc->state_ == ProcState::kRunnable) {
      scheduler_.Enqueue(pid, proc->priority_);
    }
  }
  const int num_cores = std::max(1, params.num_cores);  // as ConfigureCores clamps
  bool was_scheduled = scheduled_run_;
  scheduled_run_ = true;
  smp_stop_ = false;
  smp_running_cores_ = 0;
  smp_idle_cores_ = 0;
  smp_start_ticks_ = ticks();
  smp_budget_ = max_total_steps;
  smp_quantum_ = params.quantum == 0 ? 4096 : params.quantum;
  smp_result_ = SchedStatus::kOutOfGas;
  // A lone core never runs guest code while the kernel mutates, so it needs no
  // shootdowns.
  smp_active_.store(num_cores > 1, std::memory_order_relaxed);
  {
    // Core 0 runs on the calling thread; each further core gets a host thread.
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(num_cores - 1));
    for (int c = 1; c < num_cores; ++c) {
      workers.emplace_back([this, c] { CoreLoop(c); });
    }
    CoreLoop(0);
    for (std::thread& t : workers) {
      t.join();
    }
  }
  smp_active_.store(false, std::memory_order_relaxed);
  scheduled_run_ = was_scheduled;
  // Quantum-end switches leave the counter cells of the processes they switch
  // away from unfolded.
  for (auto& [pid, proc] : procs_) {
    FlushVmCounters(*proc);
  }
  SchedStatus result = smp_result_;
  // Budget gone but nothing left alive: that is a completed run, not an
  // out-of-gas one — callers test "== kExited" at any core count.
  if (result == SchedStatus::kOutOfGas && LiveProcessCount() == 0) {
    result = SchedStatus::kExited;
  }
  if (race_ != nullptr && trace_.enabled()) {
    const auto& reports = race_->reports();
    for (; race_reports_traced_ < reports.size(); ++race_reports_traced_) {
      const RaceReport& r = reports[race_reports_traced_];
      trace_.Emit(TraceKind::kRaceReport, r.ToString(), r.path, r.addr);
    }
  }
  return result;
}

void Machine::CoreLoop(int core) {
  std::unique_lock<std::mutex> lk(kernel_mu_);
  // Set when a quantum-end switch handed this core its next process: the core
  // then holds world_mu_ shared instead of the kernel lock.
  Process* proc = nullptr;
  while (true) {
    if (proc == nullptr) {
      scheduler_.FoldCoreCounters(core);
      if (smp_stop_) {
        return;
      }
      if (SmpSpent() >= smp_budget_) {
        smp_stop_ = true;  // smp_result_ stays kOutOfGas
        smp_cv_.notify_all();
        return;
      }
      int pid = scheduler_.PickNext(core);
      if (pid < 0) {
        if (smp_running_cores_ == 0) {
          // No queue has work and no core is running that could produce a
          // wake: the run is over (all exited) or wedged (live waiters remain).
          smp_result_ = LiveProcessCount() == 0 ? SchedStatus::kExited : ReportDeadlock();
          smp_stop_ = true;
          smp_cv_.notify_all();
          return;
        }
        // A sibling is still running and may enqueue work (futex wake, fork).
        // The timeout is a backstop against a missed notify, not the wake
        // mechanism.
        ++smp_idle_cores_;
        smp_cv_.wait_for(lk, std::chrono::milliseconds(1));
        --smp_idle_cores_;
        continue;
      }
      proc = FindProcess(pid);
      if (proc == nullptr || proc->state_ == ProcState::kZombie) {
        proc = nullptr;
        continue;  // exited while queued
      }
      ++smp_running_cores_;
    }
    uint64_t spent = SmpSpent();
    SchedStatus st = DriveProcess(
        *proc, spent < smp_budget_ ? std::min(smp_quantum_, smp_budget_ - spent) : 0, lk,
        /*on_core=*/true);
    scheduler_.CountCoreTicks(core, proc->charged_);
    if (!lk.owns_lock()) {
      // The quantum ran out in guest code. Switch on this core's own queue,
      // still under world_mu_ — unless the budget is gone or a parked core
      // could take work, which the kernel path below hands out.
      if (SmpSpent() < smp_budget_ && smp_idle_cores_.load(std::memory_order_relaxed) == 0) {
        Process* next = nullptr;
        scheduler_.SwitchOnCore(core, proc->pid(), proc->priority_, &next);
        proc = next;
        continue;
      }
      world_mu_.unlock_shared();
      lk.lock();
      FlushVmCounters(*proc);
    }
    --smp_running_cores_;
    if (st == SchedStatus::kOutOfGas) {
      scheduler_.Preempt(proc->pid(), proc->priority_);
    }
    if (smp_idle_cores_ > 0 && scheduler_.ReadyCount() > 0) {
      smp_cv_.notify_all();  // this dispatch may have made work for a parked core
    }
    proc = nullptr;
  }
}

void Machine::KillProcess(int pid, int status, const std::string& reason) {
  Process* proc = FindProcess(pid);
  if (proc == nullptr || proc->state_ == ProcState::kZombie) {
    return;
  }
  HLOG(Info) << "pid " << pid << " killed: " << reason;
  proc->stdout_text_ += "[killed: " + reason + "]\n";
  ExitProcess(*proc, status);
}

void Machine::ExitProcess(Process& proc, int status) {
  for (FileDesc& fd : proc.fds_) {
    FlushFd(proc, fd);
  }
  proc.exit_status_ = status;
  proc.state_ = ProcState::kZombie;
  // Flush now, not just at dispatch end: a process killed from outside any run
  // would otherwise take its counter cells to the grave at reap time.
  FlushVmCounters(proc);
  // A zombie never runs again, so what only a running process uses goes now
  // rather than at reap: its decoded blocks and the pages they watch, its JIT,
  // and its fault handlers (with them the loader's reference to its Ldl). Exit
  // runs on the process's own core after it left guest code, or outside a run,
  // so no Cpu is using any of them; a handler that is running the exit is kept
  // alive by RunFaultHandlers. The page map and private pages stay: a zombie's
  // memory can still be read until it is reaped.
  proc.exec_cache_.Release();
  proc.space_->ReleaseCodePages();
  proc.jit_.reset();
  proc.fault_handlers_ = std::vector<FaultHandler>();
  {
    std::lock_guard<std::mutex> sync(sync_mu_);  // may leave a futex queue
    scheduler_.Remove(proc.pid());
  }
  // Lock release runs after the state flip so the unlock hook's wake-ups see a
  // dead holder; each released creation lock wakes its blocked attachers.
  sfs().ReleaseLocksOf(proc.pid());
  if (race_) {
    race_->OnProcessExit(proc.pid());
  }
  // Wake a parent blocked in waitpid on us; it reaps when next dispatched.
  Process* parent = FindProcess(proc.parent_);
  if (parent != nullptr && parent->state_ == ProcState::kWaiting &&
      parent->wait_kind_ == WaitKind::kChild && parent->wait_target_ == proc.pid()) {
    scheduler_.NoteWoken(parent->pid());
    scheduler_.Enqueue(parent->pid(), parent->priority_);
  }
  for (auto& hook : exit_hooks_) {
    hook(proc);
  }
}

void Machine::ReapChild(Process& proc, int child_pid) {
  Process* child = FindProcess(child_pid);
  proc.cpu_.regs[kRegV0] = static_cast<uint32_t>(child->exit_status_);
  proc.cpu_.regs[kRegV1] = 0;
  if (race_) {
    race_->OnReap(proc.pid(), child_pid);
  }
  procs_.erase(child_pid);
  proc.wait_target_ = -1;
  proc.wait_kind_ = WaitKind::kNone;
  proc.state_ = ProcState::kRunnable;
}

void Machine::BlockProcessOnAddr(Process& proc, uint32_t addr) {
  proc.state_ = ProcState::kWaiting;
  proc.wait_kind_ = WaitKind::kAddr;
  proc.wait_addr_ = addr;
  std::lock_guard<std::mutex> sync(sync_mu_);
  scheduler_.BlockOnFutex(proc.pid(), addr);
}

uint32_t Machine::WakeWaiters(uint32_t addr, uint32_t max) {
  std::vector<int> pids;
  {
    std::lock_guard<std::mutex> sync(sync_mu_);
    pids = scheduler_.TakeFutexWaiters(addr, max);
  }
  uint32_t woken = 0;
  for (int pid : pids) {
    Process* p = FindProcess(pid);
    if (p == nullptr || p->state_ != ProcState::kWaiting) {
      continue;
    }
    if (p->wait_kind_ == WaitKind::kFutex) {
      // The wake is the futex_wait syscall's successful return.
      p->cpu_.regs[kRegV0] = 0;
      p->cpu_.regs[kRegV1] = 0;
      if (race_) {
        race_->OnAcquire(pid, addr);
      }
    }
    // kAddr waiters get no register fix-up: their pc is still at the faulting
    // instruction, which re-executes against the now-unlocked segment.
    p->state_ = ProcState::kRunnable;
    p->wait_kind_ = WaitKind::kNone;
    p->wait_addr_ = 0;
    scheduler_.Enqueue(pid, p->priority_);
    ++woken;
  }
  return woken;
}

bool Machine::SyncCas(Process& proc, uint32_t addr, uint32_t expect, uint32_t desired,
                      uint32_t* old, Fault* fault) {
  std::lock_guard<std::mutex> sync(sync_mu_);
  if (!proc.space().Load32(addr, old, fault)) {
    return false;
  }
  if (*old == expect) {
    // Cannot fail: the load just resolved the page, and a kernel write skips
    // the protection check.
    proc.space().WriteBytes(addr, reinterpret_cast<const uint8_t*>(&desired), 4);
  }
  return true;
}

bool Machine::SyncFutexPark(Process& proc, uint32_t addr, uint32_t expect, bool* parked,
                            Fault* fault) {
  std::lock_guard<std::mutex> sync(sync_mu_);
  uint32_t current = 0;
  if (!proc.space().Load32(addr, &current, fault)) {
    return false;
  }
  *parked = current == expect;
  if (*parked) {
    proc.state_ = ProcState::kWaiting;
    proc.wait_kind_ = WaitKind::kFutex;
    proc.wait_addr_ = addr;
    scheduler_.BlockOnFutex(proc.pid(), addr);
  }
  return true;
}

template <typename Op>
std::optional<Machine::SysResult> Machine::KernelSyncOp(Process& proc, Op op) {
  Fault fault;
  if (op(&fault)) {
    return std::nullopt;
  }
  // Run the native handler chain only (the lazy linker). The simulated-program
  // SIGSEGV handler is never entered from inside a syscall.
  if (!RunFaultHandlers(proc, fault)) {
    return Fail(ErrorCode::kFault);
  }
  if (proc.state_ == ProcState::kZombie) {
    return kKeepRegs;  // a handler ended the process: nothing returns to it
  }
  if (proc.state_ == ProcState::kWaiting) {
    // The handler parked us on another process's creation lock. Rewind the pc
    // onto the SYSCALL instruction so the whole call re-executes on wake.
    proc.cpu_.pc -= kInstrBytes;
    return kKeepRegs;
  }
  if (op(&fault)) {
    return std::nullopt;
  }
  return Fail(ErrorCode::kFault);
}

bool Machine::SyscallInPlace(Process& proc) {
  auto& regs = proc.cpu_.regs;
  ErrorCode err = ErrorCode::kOk;
  const SysEntry* sys = LookupSyscall(regs[kRegV0], regs[kRegA0], &err);
  if (sys == nullptr || sys->in_place == nullptr) {
    return false;
  }
  std::optional<uint32_t> ret =
      (this->*sys->in_place)(proc, regs[kRegA0], regs[kRegA1], regs[kRegA2]);
  if (!ret) {
    return false;
  }
  regs[kRegV0] = *ret;
  regs[kRegV1] = 0;
  ++proc.in_place_syscalls_;
  return true;
}

bool Machine::InPlaceHook(void* arg) {
  Process* proc = static_cast<Process*>(arg);
  return proc->machine_->SyscallInPlace(*proc);
}

bool Machine::DeliverFault(Process& proc, const Fault& fault) {
  ++*m_faults_delivered_;
  ChargeTicks(proc, fault_cost_);

  // A fault at the sigreturn sentinel is the user handler coming back: restore the
  // interrupted context and retry the original instruction.
  if (proc.in_user_handler_ && fault.addr == kSigReturnAddr) {
    proc.cpu_ = proc.saved_context_;
    proc.in_user_handler_ = false;
    ++*m_faults_resolved_;
    if (trace_.enabled()) trace_.Emit(TraceKind::kFaultHandled, "sigreturn", "", fault.addr);
    return true;
  }

  if (RunFaultHandlers(proc, fault)) {
    ++*m_faults_resolved_;
    return true;
  }

  // Every native handler declined: deliver to the simulated program's own handler
  // (the paper's wrapped signal() semantics). A fault *inside* the handler is fatal.
  if (proc.user_segv_handler_ != 0 && !proc.in_user_handler_) {
    // Run the handler on a red zone below the interrupted stack, with the fault
    // address as its (stack-passed) argument and $ra aimed at the sigreturn sentinel.
    uint32_t sp = ((proc.cpu_.regs[kRegSp] - 256) & ~7u) - 4;
    uint8_t arg[4];
    std::memcpy(arg, &fault.addr, 4);
    if (!proc.space().WriteBytes(sp, arg, 4).ok()) {
      ++*m_faults_fatal_;
      return false;  // no usable stack: fatal
    }
    proc.saved_context_ = proc.cpu_;
    proc.in_user_handler_ = true;
    auto& regs = proc.cpu_.regs;
    regs[kRegA0] = fault.addr;  // register convention too, for hand-written code
    regs[kRegRa] = kSigReturnAddr;
    regs[kRegSp] = sp;
    proc.cpu_.pc = proc.user_segv_handler_;
    ++*m_faults_resolved_;
    if (trace_.enabled()) trace_.Emit(TraceKind::kFaultHandled, "user", "", fault.addr);
    return true;
  }
  ++*m_faults_fatal_;
  if (trace_.enabled()) trace_.Emit(TraceKind::kFaultHandled, "fatal", "", fault.addr);
  return false;
}

bool Machine::RunFaultHandlers(Process& proc, const Fault& fault) {
  // A handler may end its own process, and the exit drops the chain: each
  // handler runs from a copy, so the one running outlives the drop, and the
  // walk re-reads the chain's size after every call.
  for (size_t i = 0; i < proc.fault_handlers_.size(); ++i) {
    FaultHandler handler = proc.fault_handlers_[i];
    if (handler(*this, proc, fault) || proc.state_ == ProcState::kZombie) {
      return true;
    }
  }
  return false;
}

void Machine::FlushFd(Process& proc, FileDesc& fd) {
  if (fd.kind == FileDesc::Kind::kMem && fd.dirty) {
    Status st = vfs_->WriteFile(fd.path, fd.buf);
    if (!st.ok()) {
      HLOG(Warning) << "flush of " << fd.path << " failed: " << st.ToString();
    }
    fd.dirty = false;
  }
}

Machine::SysResult Machine::Fail(ErrorCode code) {
  return {static_cast<uint32_t>(-1), static_cast<uint32_t>(code)};
}

const Machine::SysEntry* Machine::LookupSyscall(uint32_t number, uint32_t a0, ErrorCode* err) {
  // Indexed by syscall number. Each row of the table names its kernel handler,
  // so a row without one does not compile; the calls that may run in place add
  // a second.
  static constexpr auto kTable = [] {
    std::array<SysEntry, kSysLimit> table{};
#define HEMLOCK_SYS_HANDLER(name, n, intrinsic, nargs, sync) \
  table[n] = {&Machine::Sys##name, nullptr, sync};
    HEMLOCK_SYSCALLS(HEMLOCK_SYS_HANDLER)
#undef HEMLOCK_SYS_HANDLER
    table[static_cast<uint32_t>(Sys::kFutexWake)].in_place = &Machine::FutexWakeInPlace;
    table[static_cast<uint32_t>(Sys::kCas)].in_place = &Machine::CasInPlace;
    return table;
  }();
  if (number >= kTable.size() || kTable[number].kernel == nullptr) {
    *err = ErrorCode::kUnimplemented;
    return nullptr;
  }
  if (kTable[number].sync_word && !IsSyncWord(a0)) {
    *err = ErrorCode::kInvalidArgument;
    return nullptr;
  }
  return &kTable[number];
}

void Machine::DoSyscall(Process& proc) {
  ++*m_syscalls_;
  ChargeTicks(proc, syscall_cost_);
  auto& regs = proc.cpu_.regs;
  ErrorCode err = ErrorCode::kOk;
  const SysEntry* sys = LookupSyscall(regs[kRegV0], regs[kRegA0], &err);
  SysResult result = sys == nullptr
                         ? Fail(err)
                         : (this->*sys->kernel)(proc, regs[kRegA0], regs[kRegA1], regs[kRegA2]);
  if (!result.keep_regs) {
    regs[kRegV0] = result.ret;
    regs[kRegV1] = result.err;
  }
}

Machine::SysResult Machine::SysExit(Process& proc, uint32_t status, uint32_t, uint32_t) {
  ExitProcess(proc, static_cast<int>(status));
  return kKeepRegs;
}

Machine::SysResult Machine::SysWrite(Process& proc, uint32_t fd, uint32_t buf_addr, uint32_t len) {
  if (fd >= proc.fds_.size() || proc.fds_[fd].kind == FileDesc::Kind::kClosed) {
    return Fail(ErrorCode::kInvalidArgument);
  }
  std::vector<uint8_t> buf(len);
  Status st = proc.space().ReadBytes(buf_addr, buf.data(), len);
  if (!st.ok()) {
    return Fail(st.code());
  }
  FileDesc& desc = proc.fds_[fd];
  if (desc.kind == FileDesc::Kind::kStdio) {
    proc.stdout_text_.append(reinterpret_cast<const char*>(buf.data()), buf.size());
  } else if (desc.kind == FileDesc::Kind::kSfs) {
    Status ws = sfs().WriteAt(desc.ino, desc.offset, buf.data(), len);
    if (!ws.ok()) {
      return Fail(ws.code());
    }
    desc.offset += len;
  } else {
    if (desc.buf.size() < desc.offset + len) {
      desc.buf.resize(desc.offset + len);
    }
    std::copy(buf.begin(), buf.end(), desc.buf.begin() + desc.offset);
    desc.offset += len;
    desc.dirty = true;
  }
  return {len};
}

Machine::SysResult Machine::SysRead(Process& proc, uint32_t fd, uint32_t buf_addr, uint32_t len) {
  if (fd >= proc.fds_.size() || proc.fds_[fd].kind == FileDesc::Kind::kClosed) {
    return Fail(ErrorCode::kInvalidArgument);
  }
  FileDesc& desc = proc.fds_[fd];
  std::vector<uint8_t> buf(len);
  uint32_t n = 0;
  if (desc.kind == FileDesc::Kind::kSfs) {
    Result<uint32_t> r = sfs().ReadAt(desc.ino, desc.offset, buf.data(), len);
    if (!r.ok()) {
      return Fail(r.status().code());
    }
    n = *r;
  } else if (desc.kind == FileDesc::Kind::kMem) {
    if (desc.offset < desc.buf.size()) {
      n = std::min<uint32_t>(len, static_cast<uint32_t>(desc.buf.size()) - desc.offset);
      std::copy_n(desc.buf.begin() + desc.offset, n, buf.begin());
    }
  }
  desc.offset += n;
  if (n > 0) {
    Status st = proc.space().WriteBytes(buf_addr, buf.data(), n);
    if (!st.ok()) {
      return Fail(st.code());
    }
  }
  return {n};
}

Machine::SysResult Machine::OpenPath(Process& proc, const std::string& raw_path, uint32_t flags) {
  std::string path = NormalizePath(JoinPath(proc.cwd(), raw_path));
  Result<std::string> resolved = vfs_->Resolve(path);
  if (!resolved.ok()) {
    return Fail(resolved.status().code());
  }
  path = *resolved;
  FileDesc fd;
  if (Vfs::OnSharedPartition(path)) {
    std::string rel = Vfs::SfsRelative(path);
    Result<uint32_t> ino = sfs().Lookup(rel);
    if (!ino.ok() && (flags & kOpenCreate) != 0) {
      ino = sfs().Create(rel);
    }
    if (!ino.ok()) {
      return Fail(ino.status().code());
    }
    if ((flags & kOpenTrunc) != 0) {
      Status st = sfs().Truncate(*ino, 0);
      if (!st.ok()) {
        return Fail(st.code());
      }
    }
    fd.kind = FileDesc::Kind::kSfs;
    fd.ino = *ino;
  } else {
    bool exists = vfs_->Exists(path);
    if (!exists && (flags & kOpenCreate) == 0) {
      return Fail(ErrorCode::kNotFound);
    }
    fd.kind = FileDesc::Kind::kMem;
    fd.path = path;
    if (exists && (flags & kOpenTrunc) == 0) {
      Result<std::vector<uint8_t>> data = vfs_->ReadFile(path);
      if (!data.ok()) {
        return Fail(data.status().code());
      }
      fd.buf = std::move(*data);
    }
    if (!exists || (flags & kOpenTrunc) != 0) {
      fd.dirty = true;  // ensure creation/truncation reaches the fs on close
    }
  }
  fd.flags = flags;
  fd.offset = 0;
  for (size_t i = 3; i < proc.fds_.size(); ++i) {
    if (proc.fds_[i].kind == FileDesc::Kind::kClosed) {
      proc.fds_[i] = std::move(fd);
      return {static_cast<uint32_t>(i)};
    }
  }
  proc.fds_.push_back(std::move(fd));
  return {static_cast<uint32_t>(proc.fds_.size() - 1)};
}

Machine::SysResult Machine::SysOpen(Process& proc, uint32_t path_addr, uint32_t flags, uint32_t) {
  Result<std::string> path = proc.space().ReadCString(path_addr);
  if (!path.ok()) {
    return Fail(path.status().code());
  }
  return OpenPath(proc, *path, flags);
}

Machine::SysResult Machine::SysClose(Process& proc, uint32_t fd, uint32_t, uint32_t) {
  if (fd >= proc.fds_.size() || proc.fds_[fd].kind == FileDesc::Kind::kClosed) {
    return Fail(ErrorCode::kInvalidArgument);
  }
  FlushFd(proc, proc.fds_[fd]);
  proc.fds_[fd] = FileDesc{};
  return {};
}

Machine::SysResult Machine::SysFork(Process& proc, uint32_t, uint32_t, uint32_t) {
  int child_pid = next_pid_++;
  auto child = std::make_unique<Process>(child_pid, proc.pid(), &sfs());
  // Fork copies the parent's counter wiring, which points at the *parent's*
  // private cells — re-aim every tap at the child's own. The child also gets
  // a fresh (empty) code arena; translations are per-process like the TLB.
  child->space_ = proc.space().Fork();
  WireProcessVm(*child);
  child->cpu_ = proc.cpu();
  child->brk_ = proc.brk_;
  child->env_ = proc.env_;
  child->cwd_ = proc.cwd_;
  child->fds_ = proc.fds_;
  child->fault_handlers_ = proc.fault_handlers_;
  child->user_segv_handler_ = proc.user_segv_handler_;
  child->in_user_handler_ = proc.in_user_handler_;
  child->saved_context_ = proc.saved_context_;
  child->priority_ = proc.priority_;
  // Child returns 0 from the fork syscall.
  child->cpu_.regs[kRegV0] = 0;
  child->cpu_.regs[kRegV1] = 0;
  scheduler_.Admit(child_pid, child.get());
  procs_[child_pid] = std::move(child);
  scheduler_.Enqueue(child_pid, proc.priority_);
  if (race_) {
    race_->OnProcessStart(child_pid, proc.pid());
  }
  return {static_cast<uint32_t>(child_pid)};
}

Machine::SysResult Machine::SysWaitPid(Process& proc, uint32_t pid, uint32_t, uint32_t) {
  Process* child = FindProcess(static_cast<int>(pid));
  if (child == nullptr || child->parent_ != proc.pid()) {
    return Fail(ErrorCode::kNotFound);
  }
  if (child->state_ == ProcState::kZombie) {
    ReapChild(proc, child->pid());
  } else {
    proc.state_ = ProcState::kWaiting;
    proc.wait_kind_ = WaitKind::kChild;
    proc.wait_target_ = child->pid();
    scheduler_.NoteBlocked(proc.pid());  // v0/v1 are filled when the child is reaped
  }
  return kKeepRegs;
}

Machine::SysResult Machine::SysGetPid(Process& proc, uint32_t, uint32_t, uint32_t) {
  return {static_cast<uint32_t>(proc.pid())};
}

Machine::SysResult Machine::SysSbrk(Process& proc, uint32_t delta, uint32_t, uint32_t) {
  uint32_t old_brk = proc.brk_;
  uint32_t new_brk = old_brk + delta;  // a negative delta wraps: the brk shrinks
  if (new_brk < kDataBase || new_brk > kDataLimit) {
    return Fail(ErrorCode::kOutOfRange);
  }
  if (PageCeil(new_brk) > PageCeil(old_brk)) {
    // Demand-zero: a page of the new heap costs memory once it is touched.
    uint32_t map_base = PageCeil(old_brk);
    uint32_t len = PageCeil(new_brk) - map_base;
    Status st = proc.space().MapPrivate(map_base, len, Prot::kReadWrite, nullptr, 0);
    if (!st.ok()) {
      return Fail(st.code());
    }
  }
  proc.brk_ = new_brk;
  return {old_brk};
}

Machine::SysResult Machine::SysUnlink(Process& proc, uint32_t path_addr, uint32_t, uint32_t) {
  Result<std::string> path = proc.space().ReadCString(path_addr);
  if (!path.ok()) {
    return Fail(path.status().code());
  }
  Status st = vfs_->Unlink(NormalizePath(JoinPath(proc.cwd(), *path)));
  return st.ok() ? SysResult{} : Fail(st.code());
}

Machine::SysResult Machine::SysStat(Process& proc, uint32_t path_addr, uint32_t out_addr,
                                    uint32_t) {
  Result<std::string> path = proc.space().ReadCString(path_addr);
  if (!path.ok()) {
    return Fail(path.status().code());
  }
  std::string full = NormalizePath(JoinPath(proc.cwd(), *path));
  uint32_t out[3] = {0, 0, 0};  // ino, size, addr
  if (Vfs::OnSharedPartition(full)) {
    Result<SfsStat> st = sfs().Stat(Vfs::SfsRelative(full));
    if (!st.ok()) {
      return Fail(st.status().code());
    }
    out[0] = st->ino;
    out[1] = st->size;
    out[2] = st->addr;
  } else {
    Result<uint32_t> size = vfs_->memfs().FileSize(full);
    if (!size.ok()) {
      return Fail(size.status().code());
    }
    out[1] = *size;
  }
  Status ws = proc.space().WriteBytes(out_addr, reinterpret_cast<uint8_t*>(out), sizeof(out));
  return ws.ok() ? SysResult{} : Fail(ws.code());
}

Machine::SysResult Machine::SysAddrToPath(Process& proc, uint32_t addr, uint32_t buf_addr,
                                          uint32_t len) {
  // The paper's new kernel call: translate a shared-region address to a path.
  Result<std::string> rel = sfs().AddrToPath(addr);
  if (!rel.ok()) {
    return Fail(rel.status().code());
  }
  std::string full = std::string(kSfsMount) + *rel;
  uint32_t n = std::min<uint32_t>(len > 0 ? len - 1 : 0, static_cast<uint32_t>(full.size()));
  std::vector<uint8_t> buf(n + 1, 0);
  std::memcpy(buf.data(), full.data(), n);
  Status ws = proc.space().WriteBytes(buf_addr, buf.data(), n + 1);
  if (!ws.ok()) {
    return Fail(ws.code());
  }
  return {static_cast<uint32_t>(full.size())};
}

Machine::SysResult Machine::SysOpenByAddr(Process& proc, uint32_t addr, uint32_t flags,
                                          uint32_t) {
  // The paper's other new call: open the file that backs a shared-region address.
  Result<std::string> rel = sfs().AddrToPath(addr);
  if (!rel.ok()) {
    return Fail(rel.status().code());
  }
  return OpenPath(proc, std::string(kSfsMount) + *rel, flags);
}

Machine::SysResult Machine::SysYield(Process& proc, uint32_t, uint32_t, uint32_t) {
  proc.yielded_ = true;
  return {};
}

Machine::SysResult Machine::SysTime(Process&, uint32_t, uint32_t, uint32_t) {
  return {static_cast<uint32_t>(ticks())};
}

Machine::SysResult Machine::SysLockFile(Process& proc, uint32_t fd, uint32_t lock, uint32_t) {
  if (fd >= proc.fds_.size() || proc.fds_[fd].kind != FileDesc::Kind::kSfs) {
    return Fail(ErrorCode::kInvalidArgument);
  }
  Status st = lock != 0 ? sfs().LockInode(proc.fds_[fd].ino, proc.pid())
                        : sfs().UnlockInode(proc.fds_[fd].ino, proc.pid());
  return st.ok() ? SysResult{} : Fail(st.code());
}

Machine::SysResult Machine::SysSignal(Process& proc, uint32_t handler, uint32_t, uint32_t) {
  // The paper's wrapped signal(): install a program SIGSEGV handler to run when
  // Hemlock's own handler cannot resolve a fault. Returns the previous handler.
  uint32_t previous = proc.user_segv_handler_;
  proc.user_segv_handler_ = handler;
  return {previous};
}

Machine::SysResult Machine::SysFutexWait(Process& proc, uint32_t addr, uint32_t expect,
                                         uint32_t) {
  // Blocks only while *addr == expect; the value check and the park are one step
  // under sync_mu_, and so is an in-place wake's look for waiters, so the futex
  // lost-wakeup window does not exist here.
  bool parked = false;
  if (std::optional<SysResult> stop = KernelSyncOp(
          proc, [&](Fault* f) { return SyncFutexPark(proc, addr, expect, &parked, f); })) {
    return *stop;
  }
  return parked ? kKeepRegs : Fail(ErrorCode::kWouldBlock);  // the wake fills v0/v1
}

Machine::SysResult Machine::SysFutexWake(Process& proc, uint32_t addr, uint32_t max, uint32_t) {
  if (race_) {
    race_->OnRelease(proc.pid(), addr);
  }
  return {WakeWaiters(addr, max)};
}

std::optional<uint32_t> Machine::FutexWakeInPlace(Process&, uint32_t addr, uint32_t, uint32_t) {
  // No waiter means nothing to wake: the call returns 0 woken. Waking a parked
  // process (or finding only a slot-mate's) needs the kernel lock.
  std::lock_guard<std::mutex> sync(sync_mu_);
  if (scheduler_.MayHaveFutexWaiters(addr)) {
    return std::nullopt;
  }
  return 0u;
}

Machine::SysResult Machine::SysCas(Process& proc, uint32_t addr, uint32_t expect,
                                   uint32_t desired) {
  // Compare-and-swap on a shared word: HRISC has no atomic instructions, so
  // atomicity comes from sync_mu_, which every kernel access to a sync word
  // holds (in place or not).
  uint32_t old = 0;
  if (std::optional<SysResult> stop = KernelSyncOp(
          proc, [&](Fault* f) { return SyncCas(proc, addr, expect, desired, &old, f); })) {
    return *stop;
  }
  if (race_) {
    if (old == expect) {
      race_->OnAcqRel(proc.pid(), addr);
    } else {
      race_->OnAcquire(proc.pid(), addr);
    }
  }
  return {old};
}

std::optional<uint32_t> Machine::CasInPlace(Process& proc, uint32_t addr, uint32_t expect,
                                            uint32_t desired) {
  // Any fault (lazy link, map fault, remote page, write-protect) needs the
  // kernel path's handlers, so a word that would fault is left to it.
  uint32_t old = 0;
  Fault fault;
  if (!proc.space().WordResolves(addr) || !SyncCas(proc, addr, expect, desired, &old, &fault)) {
    return std::nullopt;
  }
  return old;
}

Machine::SysResult Machine::SysSpawn(Process& proc, uint32_t path_addr, uint32_t, uint32_t) {
  Result<std::string> path = proc.space().ReadCString(path_addr);
  if (!path.ok()) {
    return Fail(path.status().code());
  }
  if (!spawn_handler_) {
    return Fail(ErrorCode::kUnimplemented);
  }
  Result<int> child_pid = spawn_handler_(*this, NormalizePath(JoinPath(proc.cwd(), *path)));
  if (!child_pid.ok()) {
    return Fail(child_pid.status().code());
  }
  Process* child = FindProcess(*child_pid);
  if (child != nullptr) {
    child->parent_ = proc.pid();
    child->env_ = proc.env_;
    child->cwd_ = proc.cwd_;
    child->priority_ = proc.priority_;
    scheduler_.Enqueue(*child_pid, child->priority_);
    if (race_) {
      race_->OnSpawn(proc.pid(), *child_pid);
    }
  }
  return {static_cast<uint32_t>(*child_pid)};
}

Machine::SysResult Machine::SysSetPrio(Process& proc, uint32_t priority, uint32_t, uint32_t) {
  proc.priority_ = static_cast<int>(priority);
  return {};
}

}  // namespace hemlock
