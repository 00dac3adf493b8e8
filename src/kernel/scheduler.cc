#include "src/kernel/scheduler.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "src/base/strings.h"

namespace hemlock {
namespace {

// splitmix64: tiny, high-quality, and deterministic across platforms. The chaos
// schedule must be a pure function of the seed so CI failures replay locally.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Result<SchedParams> ParseSchedSpec(const std::string& spec) {
  SchedParams params;
  params.policy = spec == "rr" ? SchedPolicy::kRoundRobin : SchedPolicy::kRandom;
  if (spec == "rr" || spec == "random") return params;
  const std::string digits = spec.rfind("random:", 0) == 0 ? spec.substr(7) : "";
  if (digits.empty() || digits.find_first_not_of("0123456789") != std::string::npos) {
    return Status(ErrorCode::kInvalidArgument,
                  "bad scheduler spec '" + spec + "' (want rr|random[:seed])");
  }
  params.seed = std::stoull(digits);
  return params;
}

Scheduler::Scheduler(MetricsRegistry* metrics)
    : metrics_(metrics),
      c_switches_(metrics->Counter("vm.sched.switches")),
      c_preemptions_(metrics->Counter("vm.sched.preemptions")),
      c_blocks_(metrics->Counter("vm.sched.blocks")),
      c_wakes_(metrics->Counter("vm.sched.wakes")),
      c_futex_waits_(metrics->Counter("vm.sched.futex_waits")),
      c_deadlocks_(metrics->Counter("vm.sched.deadlocks")),
      c_steals_(metrics->Counter("vm.sched.steals")),
      c_local_switches_(metrics->Counter("vm.sched.local_switches")) {
  ConfigureCores(1);
}

void Scheduler::Configure(SchedPolicy policy, uint64_t seed) {
  policy_ = policy;
  seed_ = seed;
  // Mix the seed so random:0 and random:1 diverge; core 0 draws a one-core stream.
  for (int c = 0; c < num_cores_; ++c) {
    Core(c).rng = seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull +
                  static_cast<uint64_t>(c) * 0xBF58476D1CE4E5B9ull;
  }
}

void Scheduler::ConfigureCores(int num_cores) {
  if (num_cores < 1) num_cores = 1;
  if (num_cores == num_cores_) return;
  // Drain every queued pid (core by core, in queue order), forget every
  // placement (it may name a core that no longer exists), and re-home them.
  std::vector<std::pair<int, int>> queued;  // (priority, pid)
  for (const auto& core : cores_) {
    for (int pid = core->head; pid >= 0; pid = At(pid).next) {
      queued.emplace_back(At(pid).priority, pid);
    }
  }
  for (Slot& slot : slots_) slot = Slot{slot.proc};
  cores_.resize(static_cast<size_t>(num_cores));
  for (int c = 0; c < num_cores; ++c) {
    cores_[static_cast<size_t>(c)] = std::make_unique<CoreQueue>();
    Core(c).dispatches = metrics_->Counter(StrFormat("vm.sched.core.%d.dispatches", c));
    Core(c).steals = metrics_->Counter(StrFormat("vm.sched.core.%d.steals", c));
    Core(c).ticks = metrics_->Counter(StrFormat("vm.sched.core.%d.ticks", c));
  }
  num_cores_ = num_cores;
  next_core_ = 0;
  Configure(policy_, seed_);
  for (const auto& [priority, pid] : queued) Enqueue(pid, priority);
}

Scheduler::Slot& Scheduler::SlotOf(int pid) {
  if (static_cast<size_t>(pid) >= slots_.size()) {
    // Growing moves every record, so no core may be inside its queue.
    for (auto& core : cores_) core->mu.lock();
    slots_.resize(std::max(static_cast<size_t>(pid) + 1, 2 * slots_.size()));
    for (auto& core : cores_) core->mu.unlock();
  }
  return At(pid);
}

void Scheduler::Push(CoreQueue& q, int pid, int priority) {
  // Behind the last pid of a class at or above |priority|.
  int prev = q.tail;
  while (prev >= 0 && At(prev).priority < priority) prev = At(prev).prev;
  int next = prev >= 0 ? At(prev).next : q.head;
  Slot& slot = At(pid);
  std::tie(slot.prev, slot.next, slot.priority) = std::tuple(prev, next, priority);
  slot.queued = true;
  (prev >= 0 ? At(prev).next : q.head) = pid;
  (next >= 0 ? At(next).prev : q.tail) = pid;
  ++q.count;
}

void Scheduler::Unlink(CoreQueue& q, int pid) {
  Slot& slot = At(pid);
  (slot.prev >= 0 ? At(slot.prev).next : q.head) = slot.next;
  (slot.next >= 0 ? At(slot.next).prev : q.tail) = slot.prev;
  slot.prev = slot.next = -1;
  slot.queued = false;
  --q.count;
}

int Scheduler::Pop(CoreQueue& q) {
  if (q.count == 0) return -1;
  int pid = q.head;
  if (policy_ == SchedPolicy::kRandom) {
    for (uint64_t skip = SplitMix64(&q.rng) % q.count; skip > 0; --skip) pid = At(pid).next;
  }
  Unlink(q, pid);
  return pid;
}

void Scheduler::Enqueue(int pid, int priority) {
  Slot& slot = SlotOf(pid);
  if (slot.core < 0) {
    // First sighting: place round-robin so initial load spreads evenly.
    slot.core = next_core_;
    next_core_ = (next_core_ + 1) % num_cores_;
  }
  CoreQueue& q = Core(slot.core);
  std::lock_guard<std::mutex> leaf(q.mu);
  if (!slot.queued) Push(q, pid, priority);
}

void Scheduler::Remove(int pid) {
  if (static_cast<size_t>(pid) < slots_.size() && At(pid).core >= 0) {
    CoreQueue& q = Core(At(pid).core);
    std::lock_guard<std::mutex> leaf(q.mu);
    if (At(pid).queued) Unlink(q, pid);
    At(pid) = Slot{};
  }
  CancelFutexWait(pid);
  other_waiters_.erase(pid);
}

int Scheduler::PickNext(int core) {
  CoreQueue& own = Core(core);
  int pid = [&] {
    std::lock_guard<std::mutex> leaf(own.mu);
    return Pop(own);
  }();
  if (pid < 0) {
    // Own queue dry: steal the last pid of the most loaded sibling's top class
    // (the victim keeps its FIFO front). Loads are read one leaf lock at a
    // time; the kernel lock keeps out other thieves and enqueues.
    int victim = -1;
    size_t load = 0;
    for (int c = 0; c < num_cores_; ++c) {
      std::lock_guard<std::mutex> leaf(Core(c).mu);
      if (c != core && Core(c).count > load) std::tie(victim, load) = std::pair(c, Core(c).count);
    }
    if (victim < 0) return -1;
    std::lock_guard<std::mutex> leaf(Core(victim).mu);
    if ((pid = Core(victim).head) < 0) return -1;
    while (At(pid).next >= 0 && At(At(pid).next).priority == At(pid).priority) pid = At(pid).next;
    Unlink(Core(victim), pid);
    At(pid).core = core;  // stolen work re-homes to the thief
    ++*c_steals_;
    ++*own.steals;
  }
  ++*c_switches_;
  ++*own.dispatches;
  return pid;
}

int Scheduler::SwitchOnCore(int core, int pid, int priority, Process** next) {
  CoreQueue& q = Core(core);
  std::lock_guard<std::mutex> leaf(q.mu);
  Push(q, pid, priority);
  ++q.preemptions;
  ++q.switches;
  ++*q.dispatches;
  int picked = Pop(q);
  *next = At(picked).proc;
  return picked;
}

void Scheduler::FoldCoreCounters(int core) {
  *c_switches_ += std::exchange(Core(core).switches, 0);
  uint64_t local = std::exchange(Core(core).preemptions, 0);
  *c_preemptions_ += local;
  *c_local_switches_ += local;
}

void Scheduler::BlockOnFutex(int pid, uint32_t addr) {
  ++*c_blocks_;
  ++*c_futex_waits_;
  futex_waiters_[addr].push_back(pid);
  ++waiter_slots_[WaiterSlot(addr)];
}

std::vector<int> Scheduler::TakeFutexWaiters(uint32_t addr, uint32_t max) {
  std::vector<int> woken;
  auto it = futex_waiters_.find(addr);
  if (it == futex_waiters_.end()) return woken;
  auto& q = it->second;
  while (!q.empty() && woken.size() < max) {
    woken.push_back(q.front());
    q.pop_front();
  }
  if (q.empty()) futex_waiters_.erase(it);
  waiter_slots_[WaiterSlot(addr)] -= static_cast<uint32_t>(woken.size());
  *c_wakes_ += woken.size();
  return woken;
}

void Scheduler::CancelFutexWait(int pid) {
  for (auto it = futex_waiters_.begin(); it != futex_waiters_.end();) {
    auto& q = it->second;
    auto gone = std::remove(q.begin(), q.end(), pid);
    waiter_slots_[WaiterSlot(it->first)] -= static_cast<uint32_t>(q.end() - gone);
    q.erase(gone, q.end());
    it = q.empty() ? futex_waiters_.erase(it) : std::next(it);
  }
}

void Scheduler::NoteBlocked(int pid) {
  ++*c_blocks_;
  other_waiters_.insert(pid);
}

void Scheduler::NoteWoken(int pid) {
  if (other_waiters_.erase(pid) > 0) ++*c_wakes_;
}

size_t Scheduler::ReadyCount() const {
  size_t n = 0;
  for (const auto& core : cores_) {
    std::lock_guard<std::mutex> leaf(core->mu);
    n += core->count;
  }
  return n;
}

std::vector<std::string> Scheduler::DescribeWaiters() const {
  std::vector<std::string> lines;
  for (const auto& [addr, q] : futex_waiters_) {
    for (int pid : q) lines.push_back(StrFormat("pid %d: futex 0x%08X", pid, addr));
  }
  for (int pid : other_waiters_) lines.push_back(StrFormat("pid %d: wait", pid));
  return lines;
}

}  // namespace hemlock
