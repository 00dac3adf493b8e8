#include "src/vm/machine.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

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

}  // namespace

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

Machine::Machine() : vfs_(std::make_unique<Vfs>()) {
  m_faults_delivered_ = metrics_.Counter("vm.faults_delivered");
  m_faults_resolved_ = metrics_.Counter("vm.faults_resolved");
  m_faults_fatal_ = metrics_.Counter("vm.faults_fatal");
  m_syscalls_ = metrics_.Counter("vm.syscalls");
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
  auto* lock = new std::unique_lock<std::shared_mutex>(world_mu_);
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
  // folds them into the vm.* registry rows at each dispatch end.
  proc.space_->WireVmCounters(&proc.vm_cells_[0], &proc.vm_cells_[1], &proc.vm_cells_[2]);
  proc.exec_cache_.WireCounters(&proc.vm_cells_[3], &proc.vm_cells_[4], &proc.vm_cells_[5]);
  if (jit_enabled_ && Jit::HostSupported()) {
    proc.jit_ = std::make_unique<Jit>();
    proc.jit_->set_threshold(jit_threshold_);
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
  scheduler_.Enqueue(pid, ref.priority_);
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
  trace_on_ = trace_.enabled();  // cached for the whole quantum (fault hot path)
  std::unique_lock<std::mutex> lk(kernel_mu_);
  return DriveProcess(*proc, max_steps, lk);
}

void Machine::ChargeTicks(Process& proc, uint64_t n) {
  ticks_ += n;
  proc.charged_ += n;
}

void Machine::FlushVmCounters(Process& proc) {
  uint64_t* dst[11] = {m_tlb_hits_,    m_tlb_misses_,    m_tlb_flushes_,
                       m_icache_hits_, m_icache_misses_, m_icache_invalidations_,
                       m_jit_compiled_, m_jit_chained_,  m_jit_deopts_,
                       m_jit_bailouts_, m_jit_arena_bytes_};
  for (int i = 0; i < 11; ++i) {
    *dst[i] += proc.vm_cells_[i];
    proc.vm_cells_[i] = 0;
  }
}

// The kernel lock the current host thread holds while driving a process, so a
// deep callee (the net client blocking on a remote fetch) can release it via
// EnterNetWait without threading the lock through every kernel layer.
thread_local std::unique_lock<std::mutex>* tl_active_kernel_lock = nullptr;

SchedStatus Machine::DriveProcess(Process& proc, uint64_t max_steps,
                                  std::unique_lock<std::mutex>& lk) {
  proc.charged_ = 0;
  std::unique_lock<std::mutex>* prev = tl_active_kernel_lock;
  tl_active_kernel_lock = &lk;
  SchedStatus result = DriveProcessLoop(proc, max_steps, lk);
  tl_active_kernel_lock = prev;
  FlushVmCounters(proc);
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
                                      std::unique_lock<std::mutex>& lk) {
  int pid = proc.pid();
  Cpu cpu(&proc.space());
  RaceObserver observer(race_.get(), pid);
  if (race_ != nullptr) {
    cpu.set_observer(&observer);
  }
  if (!slow_interp_) {
    cpu.set_exec_cache(&proc.exec_cache_);
    // The JIT tier needs the unobserved fast loop: the race detector wants a
    // callback per access and tracing wants per-event hooks, neither of which
    // template code emits — fall back to the dual dispatch loops when either
    // is on (self-disable contract; docs/PERFORMANCE.md).
    if (proc.jit_ != nullptr && race_ == nullptr && !trace_on_) {
      cpu.set_jit(proc.jit_.get());
    }
  }
  uint64_t budget = max_steps;
  while (budget > 0) {
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
    uint64_t steps = 0;
    Fault fault;
    StopReason reason;
    // Guest code runs outside the kernel lock, in parallel with the other cores,
    // under a shared hold of the world lock (a shootdown's unique acquisition
    // drains us out of here before host pointers move).
    lk.unlock();
    world_mu_.lock_shared();
    reason = cpu.Run(&proc.cpu(), budget, &steps, &fault);
    world_mu_.unlock_shared();
    lk.lock();
    proc.steps_ += steps;
    ChargeTicks(proc, steps);
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
  if (trace_on_) {
    trace_.Emit(TraceKind::kDeadlock, StrFormat("%zu blocked", waiters.size()), "",
                0, static_cast<uint32_t>(waiters.size()));
  }
  return SchedStatus::kDeadlock;
}

SchedStatus Machine::RunScheduled(const SchedParams& params, uint64_t max_total_steps) {
  trace_on_ = trace_.enabled();
  scheduler_.Configure(params.policy, params.seed);
  scheduler_.ConfigureCores(params.num_cores);
  // Catch up on processes created (or woken) outside a scheduled run.
  for (const auto& [pid, proc] : procs_) {
    if (proc->state_ == ProcState::kRunnable) {
      scheduler_.Enqueue(pid, proc->priority_);
    }
  }
  const int num_cores = scheduler_.num_cores();
  bool was_scheduled = scheduled_run_;
  scheduled_run_ = true;
  smp_stop_ = false;
  smp_running_cores_ = 0;
  smp_spent_ = 0;
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
  SchedStatus result = smp_result_;
  // Budget gone but nothing left alive: that is a completed run, not an
  // out-of-gas one — callers test "== kExited" at any core count.
  if (result == SchedStatus::kOutOfGas && LiveProcessCount() == 0) {
    result = SchedStatus::kExited;
  }
  if (race_ != nullptr && trace_on_) {
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
  while (true) {
    if (smp_stop_) {
      return;
    }
    if (smp_spent_ >= smp_budget_) {
      smp_stop_ = true;  // smp_result_ stays kOutOfGas
      smp_cv_.notify_all();
      return;
    }
    int pid = scheduler_.PickNext(core);
    if (pid < 0) {
      if (smp_running_cores_ == 0) {
        // No queue has work and no core is running that could produce a wake:
        // the run is over (all exited) or wedged (live waiters remain).
        smp_result_ = LiveProcessCount() == 0 ? SchedStatus::kExited : ReportDeadlock();
        smp_stop_ = true;
        smp_cv_.notify_all();
        return;
      }
      // A sibling is still running and may enqueue work (futex wake, fork). The
      // timeout is a backstop against a missed notify, not the wake mechanism.
      smp_cv_.wait_for(lk, std::chrono::milliseconds(1));
      continue;
    }
    Process* proc = FindProcess(pid);
    if (proc == nullptr || proc->state_ == ProcState::kZombie) {
      continue;  // exited while queued
    }
    ++smp_running_cores_;
    SchedStatus st = DriveProcess(*proc, std::min(smp_quantum_, smp_budget_ - smp_spent_), lk);
    --smp_running_cores_;
    smp_spent_ += proc->charged_;
    scheduler_.CountCoreTicks(core, proc->charged_);
    if (st == SchedStatus::kOutOfGas) {
      scheduler_.Preempt(pid, proc->priority_);
    }
    if (scheduler_.ReadyCount() > 0) {
      smp_cv_.notify_all();  // this dispatch may have made siblings' work ready
    }
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
  scheduler_.Remove(proc.pid());
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
  scheduler_.BlockOnFutex(proc.pid(), addr);
}

uint32_t Machine::WakeWaiters(uint32_t addr, uint32_t max) {
  std::vector<int> pids = scheduler_.TakeFutexWaiters(addr, max);
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

int Machine::LoadSyncWord(Process& proc, uint32_t addr, uint32_t* value) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    Fault fault;
    if (proc.space().Load32(addr, value, &fault)) {
      return 0;
    }
    if (attempt > 0) {
      break;
    }
    // Run the native handler chain only (the lazy linker). The simulated-program
    // SIGSEGV handler is never entered from inside a syscall.
    bool resolved = false;
    for (FaultHandler& handler : proc.fault_handlers_) {
      if (handler(*this, proc, fault)) {
        resolved = true;
        break;
      }
    }
    if (!resolved) {
      break;
    }
    if (proc.state_ == ProcState::kWaiting) {
      // The handler parked us on another process's creation lock. Rewind the pc
      // onto the SYSCALL instruction so the whole call re-executes on wake.
      proc.cpu_.pc -= kInstrBytes;
      return 1;
    }
  }
  return -1;
}

bool Machine::DeliverFault(Process& proc, const Fault& fault) {
  ++proc.fault_count_;
  ++total_faults_;
  ++*m_faults_delivered_;
  ChargeTicks(proc, fault_cost_);

  // A fault at the sigreturn sentinel is the user handler coming back: restore the
  // interrupted context and retry the original instruction.
  if (proc.in_user_handler_ && fault.addr == kSigReturnAddr) {
    proc.cpu_ = proc.saved_context_;
    proc.in_user_handler_ = false;
    ++proc.resolved_fault_count_;
    ++*m_faults_resolved_;
    if (trace_on_) trace_.Emit(TraceKind::kFaultHandled, "sigreturn", "", fault.addr);
    return true;
  }

  for (FaultHandler& handler : proc.fault_handlers_) {
    if (handler(*this, proc, fault)) {
      ++proc.resolved_fault_count_;
      ++*m_faults_resolved_;
      return true;
    }
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
    ++proc.resolved_fault_count_;
    ++*m_faults_resolved_;
    if (trace_on_) trace_.Emit(TraceKind::kFaultHandled, "user", "", fault.addr);
    return true;
  }
  ++*m_faults_fatal_;
  if (trace_on_) trace_.Emit(TraceKind::kFaultHandled, "fatal", "", fault.addr);
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

uint32_t Machine::SysOpen(Process& proc, const std::string& raw_path, uint32_t flags,
                          uint32_t* err) {
  std::string path = NormalizePath(JoinPath(proc.cwd(), raw_path));
  Result<std::string> resolved = vfs_->Resolve(path);
  if (!resolved.ok()) {
    *err = static_cast<uint32_t>(resolved.status().code());
    return static_cast<uint32_t>(-1);
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
      *err = static_cast<uint32_t>(ino.status().code());
      return static_cast<uint32_t>(-1);
    }
    if ((flags & kOpenTrunc) != 0) {
      Status st = sfs().Truncate(*ino, 0);
      if (!st.ok()) {
        *err = static_cast<uint32_t>(st.code());
        return static_cast<uint32_t>(-1);
      }
    }
    fd.kind = FileDesc::Kind::kSfs;
    fd.ino = *ino;
  } else {
    bool exists = vfs_->Exists(path);
    if (!exists && (flags & kOpenCreate) == 0) {
      *err = static_cast<uint32_t>(ErrorCode::kNotFound);
      return static_cast<uint32_t>(-1);
    }
    fd.kind = FileDesc::Kind::kMem;
    fd.path = path;
    if (exists && (flags & kOpenTrunc) == 0) {
      Result<std::vector<uint8_t>> data = vfs_->ReadFile(path);
      if (!data.ok()) {
        *err = static_cast<uint32_t>(data.status().code());
        return static_cast<uint32_t>(-1);
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
      *err = 0;
      return static_cast<uint32_t>(i);
    }
  }
  proc.fds_.push_back(std::move(fd));
  *err = 0;
  return static_cast<uint32_t>(proc.fds_.size() - 1);
}

uint32_t Machine::SysOpenByAddr(Process& proc, uint32_t addr, uint32_t flags, uint32_t* err) {
  Result<std::string> rel = sfs().AddrToPath(addr);
  if (!rel.ok()) {
    *err = static_cast<uint32_t>(rel.status().code());
    return static_cast<uint32_t>(-1);
  }
  return SysOpen(proc, std::string(kSfsMount) + *rel, flags, err);
}

void Machine::DoSyscall(Process& proc) {
  ++proc.syscall_count_;
  ++total_syscalls_;
  ++*m_syscalls_;
  ChargeTicks(proc, syscall_cost_);
  auto& regs = proc.cpu().regs;
  uint32_t num = regs[kRegV0];
  uint32_t a0 = regs[kRegA0];
  uint32_t a1 = regs[kRegA1];
  uint32_t a2 = regs[kRegA2];
  uint32_t ret = 0;
  uint32_t err = 0;

  switch (static_cast<Sys>(num)) {
    case Sys::kExit:
      ExitProcess(proc, static_cast<int>(a0));
      return;
    case Sys::kWrite: {
      uint32_t fd = a0;
      if (fd >= proc.fds_.size() || proc.fds_[fd].kind == FileDesc::Kind::kClosed) {
        err = static_cast<uint32_t>(ErrorCode::kInvalidArgument);
        ret = static_cast<uint32_t>(-1);
        break;
      }
      std::vector<uint8_t> buf(a2);
      Status st = proc.space().ReadBytes(a1, buf.data(), a2);
      if (!st.ok()) {
        err = static_cast<uint32_t>(st.code());
        ret = static_cast<uint32_t>(-1);
        break;
      }
      FileDesc& desc = proc.fds_[fd];
      if (desc.kind == FileDesc::Kind::kStdio) {
        proc.stdout_text_.append(reinterpret_cast<const char*>(buf.data()), buf.size());
        ret = a2;
      } else if (desc.kind == FileDesc::Kind::kSfs) {
        Status ws = sfs().WriteAt(desc.ino, desc.offset, buf.data(), a2);
        if (!ws.ok()) {
          err = static_cast<uint32_t>(ws.code());
          ret = static_cast<uint32_t>(-1);
        } else {
          desc.offset += a2;
          ret = a2;
        }
      } else {
        if (desc.buf.size() < desc.offset + a2) {
          desc.buf.resize(desc.offset + a2);
        }
        std::memcpy(desc.buf.data() + desc.offset, buf.data(), a2);
        desc.offset += a2;
        desc.dirty = true;
        ret = a2;
      }
      break;
    }
    case Sys::kRead: {
      uint32_t fd = a0;
      if (fd >= proc.fds_.size() || proc.fds_[fd].kind == FileDesc::Kind::kClosed) {
        err = static_cast<uint32_t>(ErrorCode::kInvalidArgument);
        ret = static_cast<uint32_t>(-1);
        break;
      }
      FileDesc& desc = proc.fds_[fd];
      std::vector<uint8_t> buf(a2);
      uint32_t n = 0;
      if (desc.kind == FileDesc::Kind::kSfs) {
        Result<uint32_t> r = sfs().ReadAt(desc.ino, desc.offset, buf.data(), a2);
        if (!r.ok()) {
          err = static_cast<uint32_t>(r.status().code());
          ret = static_cast<uint32_t>(-1);
          break;
        }
        n = *r;
      } else if (desc.kind == FileDesc::Kind::kMem) {
        if (desc.offset < desc.buf.size()) {
          n = std::min<uint32_t>(a2, static_cast<uint32_t>(desc.buf.size()) - desc.offset);
          std::memcpy(buf.data(), desc.buf.data() + desc.offset, n);
        }
      }
      desc.offset += n;
      if (n > 0) {
        Status st = proc.space().WriteBytes(a1, buf.data(), n);
        if (!st.ok()) {
          err = static_cast<uint32_t>(st.code());
          ret = static_cast<uint32_t>(-1);
          break;
        }
      }
      ret = n;
      break;
    }
    case Sys::kOpen: {
      Result<std::string> path = proc.space().ReadCString(a0);
      if (!path.ok()) {
        err = static_cast<uint32_t>(path.status().code());
        ret = static_cast<uint32_t>(-1);
        break;
      }
      ret = SysOpen(proc, *path, a1, &err);
      break;
    }
    case Sys::kClose: {
      uint32_t fd = a0;
      if (fd >= proc.fds_.size() || proc.fds_[fd].kind == FileDesc::Kind::kClosed) {
        err = static_cast<uint32_t>(ErrorCode::kInvalidArgument);
        ret = static_cast<uint32_t>(-1);
        break;
      }
      FlushFd(proc, proc.fds_[fd]);
      proc.fds_[fd] = FileDesc{};
      break;
    }
    case Sys::kFork: {
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
      procs_[child_pid] = std::move(child);
      scheduler_.Enqueue(child_pid, proc.priority_);
      if (race_) {
        race_->OnProcessStart(child_pid, proc.pid());
      }
      ret = static_cast<uint32_t>(child_pid);
      break;
    }
    case Sys::kWaitPid: {
      Process* child = FindProcess(static_cast<int>(a0));
      if (child == nullptr || child->parent_ != proc.pid()) {
        err = static_cast<uint32_t>(ErrorCode::kNotFound);
        ret = static_cast<uint32_t>(-1);
        break;
      }
      if (child->state_ == ProcState::kZombie) {
        ret = static_cast<uint32_t>(child->exit_status_);
        if (race_) {
          race_->OnReap(proc.pid(), static_cast<int>(a0));
        }
        procs_.erase(static_cast<int>(a0));
      } else {
        proc.state_ = ProcState::kWaiting;
        proc.wait_kind_ = WaitKind::kChild;
        proc.wait_target_ = static_cast<int>(a0);
        scheduler_.NoteBlocked(proc.pid());
        // v0/v1 are filled when the child is reaped.
        return;
      }
      break;
    }
    case Sys::kGetPid:
      ret = static_cast<uint32_t>(proc.pid());
      break;
    case Sys::kSbrk: {
      int32_t delta = static_cast<int32_t>(a0);
      uint32_t old_brk = proc.brk_;
      uint32_t new_brk = old_brk + static_cast<uint32_t>(delta);
      if (new_brk < kDataBase || new_brk > kDataLimit) {
        err = static_cast<uint32_t>(ErrorCode::kOutOfRange);
        ret = static_cast<uint32_t>(-1);
        break;
      }
      if (PageCeil(new_brk) > PageCeil(old_brk)) {
        uint32_t map_base = PageCeil(old_brk);
        uint32_t len = PageCeil(new_brk) - map_base;
        auto backing = std::make_shared<std::vector<uint8_t>>(len, 0);
        Status st = proc.space().MapPrivate(map_base, len, Prot::kReadWrite, backing, 0);
        if (!st.ok()) {
          err = static_cast<uint32_t>(st.code());
          ret = static_cast<uint32_t>(-1);
          break;
        }
      }
      proc.brk_ = new_brk;
      ret = old_brk;
      break;
    }
    case Sys::kUnlink: {
      Result<std::string> path = proc.space().ReadCString(a0);
      if (!path.ok()) {
        err = static_cast<uint32_t>(path.status().code());
        ret = static_cast<uint32_t>(-1);
        break;
      }
      Status st = vfs_->Unlink(NormalizePath(JoinPath(proc.cwd(), *path)));
      if (!st.ok()) {
        err = static_cast<uint32_t>(st.code());
        ret = static_cast<uint32_t>(-1);
      }
      break;
    }
    case Sys::kStat: {
      Result<std::string> path = proc.space().ReadCString(a0);
      if (!path.ok()) {
        err = static_cast<uint32_t>(path.status().code());
        ret = static_cast<uint32_t>(-1);
        break;
      }
      std::string full = NormalizePath(JoinPath(proc.cwd(), *path));
      uint32_t out[3] = {0, 0, 0};  // ino, size, addr
      if (Vfs::OnSharedPartition(full)) {
        Result<SfsStat> st = sfs().Stat(Vfs::SfsRelative(full));
        if (!st.ok()) {
          err = static_cast<uint32_t>(st.status().code());
          ret = static_cast<uint32_t>(-1);
          break;
        }
        out[0] = st->ino;
        out[1] = st->size;
        out[2] = st->addr;
      } else {
        Result<uint32_t> size = vfs_->memfs().FileSize(full);
        if (!size.ok()) {
          err = static_cast<uint32_t>(size.status().code());
          ret = static_cast<uint32_t>(-1);
          break;
        }
        out[1] = *size;
      }
      Status ws = proc.space().WriteBytes(a1, reinterpret_cast<uint8_t*>(out), sizeof(out));
      if (!ws.ok()) {
        err = static_cast<uint32_t>(ws.code());
        ret = static_cast<uint32_t>(-1);
      }
      break;
    }
    case Sys::kAddrToPath: {
      // The paper's new kernel call: translate a shared-region address to a path.
      Result<std::string> rel = sfs().AddrToPath(a0);
      if (!rel.ok()) {
        err = static_cast<uint32_t>(rel.status().code());
        ret = static_cast<uint32_t>(-1);
        break;
      }
      std::string full = std::string(kSfsMount) + *rel;
      uint32_t n = std::min<uint32_t>(a2 > 0 ? a2 - 1 : 0, static_cast<uint32_t>(full.size()));
      std::vector<uint8_t> buf(n + 1, 0);
      std::memcpy(buf.data(), full.data(), n);
      Status ws = proc.space().WriteBytes(a1, buf.data(), n + 1);
      if (!ws.ok()) {
        err = static_cast<uint32_t>(ws.code());
        ret = static_cast<uint32_t>(-1);
        break;
      }
      ret = static_cast<uint32_t>(full.size());
      break;
    }
    case Sys::kOpenByAddr:
      ret = SysOpenByAddr(proc, a0, a1, &err);
      break;
    case Sys::kYield:
      proc.yielded_ = true;
      break;
    case Sys::kTime:
      ret = static_cast<uint32_t>(ticks_);
      break;
    case Sys::kSignal: {
      // The paper's wrapped signal(): install a program SIGSEGV handler to run when
      // Hemlock's own handler cannot resolve a fault. Returns the previous handler.
      ret = proc.user_segv_handler_;
      proc.user_segv_handler_ = a0;
      break;
    }
    case Sys::kLockFile: {
      uint32_t fd = a0;
      if (fd >= proc.fds_.size() || proc.fds_[fd].kind != FileDesc::Kind::kSfs) {
        err = static_cast<uint32_t>(ErrorCode::kInvalidArgument);
        ret = static_cast<uint32_t>(-1);
        break;
      }
      Status st = a1 != 0 ? sfs().LockInode(proc.fds_[fd].ino, proc.pid())
                          : sfs().UnlockInode(proc.fds_[fd].ino, proc.pid());
      if (!st.ok()) {
        err = static_cast<uint32_t>(st.code());
        ret = static_cast<uint32_t>(-1);
      }
      break;
    }
    case Sys::kFutexWait: {
      // a0 = shared addr, a1 = expected value. Blocks only while *addr == a1; the
      // value check and the enqueue are one atomic step (no interleaving inside a
      // syscall), so the futex lost-wakeup window does not exist here.
      if (!InSfsRegion(a0) || (a0 & 3u) != 0) {
        err = static_cast<uint32_t>(ErrorCode::kInvalidArgument);
        ret = static_cast<uint32_t>(-1);
        break;
      }
      uint32_t current = 0;
      int got = LoadSyncWord(proc, a0, &current);
      if (got == 1) {
        return;  // blocked inside the load; syscall re-executes on wake
      }
      if (got != 0) {
        err = static_cast<uint32_t>(ErrorCode::kFault);
        ret = static_cast<uint32_t>(-1);
        break;
      }
      if (current != a1) {
        err = static_cast<uint32_t>(ErrorCode::kWouldBlock);
        ret = static_cast<uint32_t>(-1);
        break;
      }
      proc.state_ = ProcState::kWaiting;
      proc.wait_kind_ = WaitKind::kFutex;
      proc.wait_addr_ = a0;
      scheduler_.BlockOnFutex(proc.pid(), a0);
      return;  // v0/v1 are filled by the wake
    }
    case Sys::kFutexWake: {
      if (!InSfsRegion(a0) || (a0 & 3u) != 0) {
        err = static_cast<uint32_t>(ErrorCode::kInvalidArgument);
        ret = static_cast<uint32_t>(-1);
        break;
      }
      if (race_) {
        race_->OnRelease(proc.pid(), a0);
      }
      ret = WakeWaiters(a0, a1);
      break;
    }
    case Sys::kCas: {
      // Kernel-atomic compare-and-swap on a shared word: HRISC has no atomic
      // instructions, so atomicity comes from the kernel crossing itself.
      if (!InSfsRegion(a0) || (a0 & 3u) != 0) {
        err = static_cast<uint32_t>(ErrorCode::kInvalidArgument);
        ret = static_cast<uint32_t>(-1);
        break;
      }
      uint32_t current = 0;
      int got = LoadSyncWord(proc, a0, &current);
      if (got == 1) {
        return;
      }
      if (got != 0) {
        err = static_cast<uint32_t>(ErrorCode::kFault);
        ret = static_cast<uint32_t>(-1);
        break;
      }
      if (current == a1) {
        Status ws = proc.space().WriteBytes(a0, reinterpret_cast<uint8_t*>(&a2), 4);
        if (!ws.ok()) {
          err = static_cast<uint32_t>(ws.code());
          ret = static_cast<uint32_t>(-1);
          break;
        }
        if (race_) {
          race_->OnAcqRel(proc.pid(), a0);
        }
      } else if (race_) {
        race_->OnAcquire(proc.pid(), a0);
      }
      ret = current;
      break;
    }
    case Sys::kSpawn: {
      Result<std::string> path = proc.space().ReadCString(a0);
      if (!path.ok()) {
        err = static_cast<uint32_t>(path.status().code());
        ret = static_cast<uint32_t>(-1);
        break;
      }
      if (!spawn_handler_) {
        err = static_cast<uint32_t>(ErrorCode::kUnimplemented);
        ret = static_cast<uint32_t>(-1);
        break;
      }
      Result<int> child_pid =
          spawn_handler_(*this, NormalizePath(JoinPath(proc.cwd(), *path)));
      if (!child_pid.ok()) {
        err = static_cast<uint32_t>(child_pid.status().code());
        ret = static_cast<uint32_t>(-1);
        break;
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
      ret = static_cast<uint32_t>(*child_pid);
      break;
    }
    case Sys::kSetPrio: {
      proc.priority_ = static_cast<int>(a0);
      break;
    }
    default:
      err = static_cast<uint32_t>(ErrorCode::kUnimplemented);
      ret = static_cast<uint32_t>(-1);
      break;
  }

  regs[kRegV0] = ret;
  regs[kRegV1] = err;
}

}  // namespace hemlock
