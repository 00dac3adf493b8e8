// The preemptive scheduler for the simulated kernel: the run and wait queues in
// front of the Machine's dispatch loop (docs/CONCURRENCY.md).
//   * Runnable pids wait in per-priority FIFO classes, higher classes first.
//     A blocked process is off the ready queues entirely and is never polled;
//     the event that ends its wait (child exit, futex wake, creation-lock
//     release) enqueues it again. Futex wait queues are FIFO per address.
//   * kRoundRobin is the production policy; kRandom is a seeded uniform pick
//     over every ready pid, ignoring priority — a "chaos schedule".
//   * ConfigureCores(N) gives each of N cores a queue (one core is N = 1), with
//     pid -> core affinity. A core picks from its own queue and steals from the
//     most loaded sibling when dry. A wake routes the waiter to its affine core.
//   * Pids are dense: each pid's links, class and affinity sit in one flat
//     array, and a queue is an intrusive list, so queuing allocates nothing.
//
// The scheduler tracks pids, and keeps each pid's Process* only to hand it back;
// the Machine drives every state transition. Locking: each core's queue has a
// leaf lock, taken last by every call that touches the queue. SwitchOnCore
// takes only that lock, so a core ends a quantum on its own queue without the
// Machine's kernel lock. Every other call is made with the kernel lock held,
// which serializes the cross-core work: placement, enqueues onto any core,
// steals, removal and the wait queues. The calls that change a futex queue
// (BlockOnFutex, TakeFutexWaiters, CancelFutexWait, Remove) also run under the
// Machine's sync-word lock, so MayHaveFutexWaiters may be asked under it alone.
//
// Every transition bumps a "vm.sched.*" counter in the machine's registry; each
// core adds "vm.sched.core.<n>.*" (dispatches, steals, ticks).
#ifndef SRC_KERNEL_SCHEDULER_H_
#define SRC_KERNEL_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "src/base/metrics.h"
#include "src/base/status.h"

namespace hemlock {

class Process;

enum class SchedPolicy : uint8_t {
  kRoundRobin,  // FIFO within the highest non-empty priority class
  kRandom,      // seeded uniform pick over all ready pids (priority ignored)
};

// One scheduling configuration, as selected by hemrun --sched/--quantum/--cores.
struct SchedParams {
  SchedPolicy policy = SchedPolicy::kRoundRobin;
  uint64_t seed = 0;        // kRandom: the interleaving is a pure function of this
  uint64_t quantum = 4096;  // instructions per dispatch before preemption
  int num_cores = 1;        // >1: RunScheduled drives this many host worker threads
};

// Parses "rr" or "random:<seed>" (bare "random" = seed 0).
Result<SchedParams> ParseSchedSpec(const std::string& spec);

class Scheduler {
 public:
  // Registers the "vm.sched.*" counters in |metrics|, which must outlive it.
  explicit Scheduler(MetricsRegistry* metrics);

  // Selects the policy and reseeds the chaos RNG; queued pids stay queued.
  void Configure(SchedPolicy policy, uint64_t seed);
  // Sizes the per-core run queues. Every placement is forgotten, so each queued
  // pid lands afresh on one of the new cores.
  void ConfigureCores(int num_cores);

  // Records the process |pid| names (SwitchOnCore hands it back) without
  // queuing it: the Enqueue made once the process is built does that.
  void Admit(int pid, Process* proc) { SlotOf(pid) = Slot{proc}; }

  // Adds |pid| to the back of its priority's ready queue on its affine core
  // (round-robin placement on first sighting). No-op if already queued.
  void Enqueue(int pid, int priority);
  // Re-queues a preempted process (quantum exhausted).
  void Preempt(int pid, int priority) {
    ++*c_preemptions_;
    Enqueue(pid, priority);
  }
  // Removes |pid| from every queue (process exited or was killed).
  void Remove(int pid);

  // Picks the next pid for |core| and removes it from the ready queues: pops from
  // the core's own queue, or else steals from the back of the most loaded
  // sibling's (vm.sched.steals) and re-homes the pid. -1 when no pid is ready.
  int PickNext(int core);

  // A quantum end on |core| without the kernel lock: Preempt(|pid|) then
  // PickNext(|core|) as one step under the core's leaf lock alone, on the core's
  // own queue (|pid| runs on |core|, so that is its affine queue, and the pop
  // finds at least |pid|). Returns the next pid and sets |*next| to its Admit
  // record. The counts wait in the core's tally.
  int SwitchOnCore(int core, int pid, int priority, Process** next);
  // Called by |core|'s own thread: the first adds the core's tally to the
  // machine-wide counters (vm.sched.local_switches counts SwitchOnCore calls),
  // the second charges |ticks| retired on the core to vm.sched.core.<n>.ticks.
  void FoldCoreCounters(int core);
  void CountCoreTicks(int core, uint64_t ticks) { *Core(core).ticks += ticks; }

  // Parks |pid| on the futex queue for |addr| (it must not be on a ready queue;
  // call Remove first if needed). FIFO per address.
  void BlockOnFutex(int pid, uint32_t addr);
  // Detaches up to |max| waiters (FIFO order) from |addr|'s queue and returns them.
  // The caller wakes them (Enqueue) after fixing up their register state.
  std::vector<int> TakeFutexWaiters(uint32_t addr, uint32_t max);
  // Removes |pid| from any futex queue it waits on (exit while blocked).
  void CancelFutexWait(int pid);
  // False only when no process is parked on |addr|. Backed by a waiter count per
  // hashed address that the three calls above keep, so addresses sharing a slot
  // can make it answer true for an empty queue, never false for a full one.
  bool MayHaveFutexWaiters(uint32_t addr) const { return waiter_slots_[WaiterSlot(addr)] != 0; }

  // A process blocked on something that is not a futex (waitpid). The scheduler
  // only needs the count for deadlock detection; the Machine keeps the detail.
  void NoteBlocked(int pid);
  void NoteWoken(int pid);

  size_t ReadyCount() const;
  // Total processes blocked on a futex address.
  size_t FutexWaiterCount() const {
    return std::accumulate(std::begin(waiter_slots_), std::end(waiter_slots_), size_t{0});
  }
  // One line per wait entry, for deadlock reports: "pid 3: futex 0x30000040".
  std::vector<std::string> DescribeWaiters() const;
  // The core |pid| is placed on or last ran on (-1 when it has no placement).
  int CoreOf(int pid) const { return pid < std::ssize(slots_) ? slots_[pid].core : -1; }

  void CountDeadlock() { ++*c_deadlocks_; }

 private:
  // One pid's record. |core| (its affinity, the only queue it can be on) and
  // |proc| belong to the kernel lock, the rest to that core's leaf lock.
  struct Slot {
    Process* proc = nullptr;
    int prev = -1;
    int next = -1;
    int priority = 0;
    int core = -1;
    bool queued = false;
  };
  // A core's ready queue: an intrusive list in descending priority, FIFO within
  // a class, under |mu|, the core's leaf lock (nothing is acquired under it).
  struct CoreQueue {
    mutable std::mutex mu;
    int head = -1;
    int tail = -1;
    size_t count = 0;
    uint64_t rng = 0;  // kRandom's draws on this core
    uint64_t switches = 0;  // SwitchOnCore's tally
    uint64_t preemptions = 0;
    uint64_t* dispatches = nullptr;  // this core's "vm.sched.core.<n>.*" counters
    uint64_t* steals = nullptr;
    uint64_t* ticks = nullptr;
  };

  // |pid|'s record; the array grows (under every leaf lock) on first sight.
  Slot& SlotOf(int pid);
  Slot& At(int pid) { return slots_[static_cast<size_t>(pid)]; }
  CoreQueue& Core(int core) { return *cores_[static_cast<size_t>(core)]; }
  // List surgery; the caller holds |q|'s leaf lock.
  void Push(CoreQueue& q, int pid, int priority);
  void Unlink(CoreQueue& q, int pid);
  // Pops the head of |q|, or for kRandom a seeded uniform pick over |q| in list
  // order. -1 when |q| is empty.
  int Pop(CoreQueue& q);

  SchedPolicy policy_ = SchedPolicy::kRoundRobin;
  uint64_t seed_ = 0;
  std::vector<Slot> slots_;  // by pid
  int num_cores_ = 0;
  std::vector<std::unique_ptr<CoreQueue>> cores_;
  int next_core_ = 0;  // round-robin placement for unseen pids

  // Futex wait queues: address -> FIFO of pids.
  std::map<uint32_t, std::deque<int>> futex_waiters_;
  // Parked-waiter counts behind MayHaveFutexWaiters, one per hashed word address.
  static constexpr size_t kWaiterSlots = 64;
  static size_t WaiterSlot(uint32_t addr) { return (addr >> 2) % kWaiterSlots; }
  uint32_t waiter_slots_[kWaiterSlots] = {};
  std::set<int> other_waiters_;

  // vm.sched.* counter handles, registered by the constructor.
  MetricsRegistry* metrics_;
  uint64_t* c_switches_;
  uint64_t* c_preemptions_;
  uint64_t* c_blocks_;
  uint64_t* c_wakes_;
  uint64_t* c_futex_waits_;
  uint64_t* c_deadlocks_;
  uint64_t* c_steals_;
  uint64_t* c_local_switches_;
};

}  // namespace hemlock

#endif  // SRC_KERNEL_SCHEDULER_H_
