// The preemptive scheduler for the simulated kernel.
//
// Run/wait queues in front of the Machine's dispatch loop:
//   * runnable processes live in per-priority FIFO ready queues (higher priority
//     classes run first; round-robin within a class);
//   * blocked processes are *off* the ready queues entirely — a waiting process is
//     never polled, it is made runnable again by the event that satisfies its wait
//     (child exit, futex wake, creation-lock release);
//   * futex wait queues are keyed by shared-region address, FIFO per address;
//   * two pluggable policies: kRoundRobin (fair, production default) and kRandom
//     (seeded uniform pick over every ready process, ignoring priority — a "chaos
//     schedule" for deterministic interleaving fuzzing of sync code).
//
// Per-core run queues (docs/CONCURRENCY.md): ConfigureCores(N) sizes the ready
// structure to N queues with pid -> core affinity; one core (the default) is just
// N = 1. A core picks from its own queue first and *steals* from the most loaded
// sibling when its own is dry, so work spreads without a global queue bottleneck.
// Wait queues stay global — a wake routes the waiter back to its affine core.
//
// The scheduler is deliberately dumb about Process internals: it tracks pids only.
// The Machine drives every state transition (enqueue on runnable, block on wait,
// remove on exit) and is responsible for keeping the two views consistent. Every
// scheduler call is made with the Machine's kernel lock held — the scheduler
// itself takes no locks. The calls that change a futex queue (BlockOnFutex,
// TakeFutexWaiters, CancelFutexWait, Remove) also run under the Machine's
// sync-word lock, so MayHaveFutexWaiters may be asked under that lock alone.
//
// Observability: every transition bumps a "vm.sched.*" counter in the machine's
// registry (switches, preemptions, blocks, wakes, futex waits/wakes, deadlocks,
// steals); each core adds "vm.sched.core.<n>.*" (dispatches, steals, ticks).
#ifndef SRC_KERNEL_SCHEDULER_H_
#define SRC_KERNEL_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/base/metrics.h"
#include "src/base/status.h"

namespace hemlock {

enum class SchedPolicy : uint8_t {
  kRoundRobin,  // FIFO within the highest non-empty priority class
  kRandom,      // seeded uniform pick over all ready pids (priority ignored)
};

const char* SchedPolicyName(SchedPolicy policy);

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
  // Registers the "vm.sched.*" counters in |metrics|, which must outlive the
  // scheduler.
  explicit Scheduler(MetricsRegistry* metrics);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Selects the policy and reseeds the chaos RNG. Ready/wait queues are preserved
  // (a re-run of the same machine continues with whatever is still queued).
  void Configure(SchedPolicy policy, uint64_t seed);
  SchedPolicy policy() const { return policy_; }

  // Sizes the per-core run queues. Queued pids are redistributed and every pid's
  // placement is forgotten, so each lands afresh on one of the new cores.
  // Registers the "vm.sched.core.<n>.*" counters.
  void ConfigureCores(int num_cores);
  int num_cores() const { return num_cores_; }

  // --- Ready-queue transitions (driven by the Machine) ---

  // Adds |pid| to the back of its priority's ready queue on its affine core
  // (round-robin placement on first sighting). No-op if already queued.
  void Enqueue(int pid, int priority);
  // Re-queues a preempted process (quantum exhausted, still runnable).
  void Preempt(int pid, int priority);
  // Removes |pid| from every queue (process exited or was killed).
  void Remove(int pid);

  // Picks the next pid for |core| and removes it from the ready queues: pops from
  // the core's own queue; when that is dry, steals from the back of the most
  // loaded sibling's queue (counted in vm.sched.steals and the thief's
  // vm.sched.core.<n>.steals) and re-homes the pid's affinity. Returns -1 when no
  // process is ready on any core. Counted in vm.sched.switches.
  int PickNext(int core);

  // Charges |ticks| retired on |core| to vm.sched.core.<n>.ticks.
  void CountCoreTicks(int core, uint64_t ticks);

  // --- Wait queues ---

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
  bool MayHaveFutexWaiters(uint32_t addr) const {
    return waiter_slots_[WaiterSlot(addr)] != 0;
  }

  // A process blocked on something that is not a futex (waitpid). The scheduler
  // only needs the count for deadlock detection; the Machine keeps the detail.
  void NoteBlocked(int pid);
  void NoteWoken(int pid);

  // --- Introspection ---

  size_t ReadyCount() const;
  // Total processes blocked on a futex address.
  size_t FutexWaiterCount() const;
  // Processes blocked on non-futex waits (waitpid).
  size_t OtherWaiterCount() const { return other_waiters_.size(); }
  // Pids currently parked on |addr|.
  std::vector<int> FutexWaitersAt(uint32_t addr) const;
  // One line per wait entry, for deadlock reports: "pid 3: futex 0x30000040".
  std::vector<std::string> DescribeWaiters() const;
  // The core |pid| is placed on or last ran on (-1 when it has no placement).
  int CoreOf(int pid) const;

  void CountDeadlock() { ++*c_deadlocks_; }

 private:
  using ReadyQueue = std::map<int, std::deque<int>, std::greater<int>>;

  // Pops one pid from |q| under the current policy: FIFO within the highest
  // priority class, or a seeded uniform pick over all of |q| for kRandom.
  int PopFrom(ReadyQueue* q);
  static void EraseFrom(ReadyQueue* q, int pid);
  // The highest priority class of |q| holding a pid; null when |q| is empty.
  // Classes stay in the map once emptied, so a re-queue allocates nothing.
  static std::deque<int>* TopClass(ReadyQueue* q);
  static size_t CountOf(const ReadyQueue& q);
  // The ready queue a new enqueue of |pid| should land on.
  ReadyQueue* HomeQueue(int pid);

  SchedPolicy policy_ = SchedPolicy::kRoundRobin;
  uint64_t rng_state_ = 0x9E3779B97F4A7C15ull;

  // Every queued pid, across all cores; guards against double-enqueue.
  std::set<int> ready_set_;

  // One run queue per core: priority (descending) -> FIFO of pids.
  struct CoreQueue {
    ReadyQueue ready;
    // This core's "vm.sched.core.<n>.*" counters.
    uint64_t* dispatches = nullptr;
    uint64_t* steals = nullptr;
    uint64_t* ticks = nullptr;
  };
  // Points |core|'s counter handles at its "vm.sched.core.<n>.*" counters.
  void BindCoreCounters(int core, CoreQueue* q);
  int num_cores_ = 1;
  std::vector<CoreQueue> cores_;
  std::map<int, int> affinity_;  // pid -> core it last ran (or was placed) on
  int next_core_ = 0;            // round-robin placement for unseen pids

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
};

}  // namespace hemlock

#endif  // SRC_KERNEL_SCHEDULER_H_
