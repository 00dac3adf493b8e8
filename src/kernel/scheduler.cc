#include "src/kernel/scheduler.h"

#include <algorithm>

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

const char* SchedPolicyName(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kRoundRobin:
      return "rr";
    case SchedPolicy::kRandom:
      return "random";
  }
  return "?";
}

Result<SchedParams> ParseSchedSpec(const std::string& spec) {
  SchedParams params;
  if (spec == "rr") {
    params.policy = SchedPolicy::kRoundRobin;
    return params;
  }
  if (spec == "random") {
    params.policy = SchedPolicy::kRandom;
    return params;
  }
  const std::string prefix = "random:";
  if (spec.rfind(prefix, 0) == 0) {
    params.policy = SchedPolicy::kRandom;
    const std::string digits = spec.substr(prefix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      return Status(ErrorCode::kInvalidArgument,
                    "bad scheduler seed in '" + spec + "'");
    }
    params.seed = std::stoull(digits);
    return params;
  }
  return Status(ErrorCode::kInvalidArgument,
                "unknown scheduler spec '" + spec + "' (want rr|random[:seed])");
}

Scheduler::Scheduler(MetricsRegistry* metrics)
    : metrics_(metrics),
      c_switches_(metrics->Counter("vm.sched.switches")),
      c_preemptions_(metrics->Counter("vm.sched.preemptions")),
      c_blocks_(metrics->Counter("vm.sched.blocks")),
      c_wakes_(metrics->Counter("vm.sched.wakes")),
      c_futex_waits_(metrics->Counter("vm.sched.futex_waits")),
      c_deadlocks_(metrics->Counter("vm.sched.deadlocks")),
      c_steals_(metrics->Counter("vm.sched.steals")) {
  cores_.resize(1);
  BindCoreCounters(0, &cores_[0]);
}

void Scheduler::BindCoreCounters(int core, CoreQueue* q) {
  q->dispatches = metrics_->Counter(StrFormat("vm.sched.core.%d.dispatches", core));
  q->steals = metrics_->Counter(StrFormat("vm.sched.core.%d.steals", core));
  q->ticks = metrics_->Counter(StrFormat("vm.sched.core.%d.ticks", core));
}

void Scheduler::Configure(SchedPolicy policy, uint64_t seed) {
  policy_ = policy;
  // Mix the seed so random:0 and random:1 diverge immediately.
  rng_state_ = seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull;
}

void Scheduler::ConfigureCores(int num_cores) {
  if (num_cores < 1) num_cores = 1;
  if (num_cores == num_cores_) return;
  // Drain every queued pid (priority order, FIFO within a class) so nothing is
  // lost across the resize, then re-home them under the new core count. Old
  // placements may name cores that no longer exist, so all of them go.
  std::vector<std::pair<int, int>> queued;  // (priority, pid)
  for (const CoreQueue& core : cores_) {
    for (const auto& [prio, deque] : core.ready) {
      for (int pid : deque) queued.emplace_back(prio, pid);
    }
  }
  ready_set_.clear();
  affinity_.clear();
  num_cores_ = num_cores;
  next_core_ = 0;
  cores_.clear();
  cores_.resize(static_cast<size_t>(num_cores_));
  for (int c = 0; c < num_cores_; ++c) {
    BindCoreCounters(c, &cores_[static_cast<size_t>(c)]);
  }
  for (const auto& [prio, pid] : queued) {
    Enqueue(pid, prio);
  }
}

Scheduler::ReadyQueue* Scheduler::HomeQueue(int pid) {
  auto it = affinity_.find(pid);
  if (it == affinity_.end()) {
    // First sighting: place round-robin so initial load spreads evenly.
    it = affinity_.emplace(pid, next_core_).first;
    next_core_ = (next_core_ + 1) % num_cores_;
  }
  return &cores_[static_cast<size_t>(it->second)].ready;
}

void Scheduler::Enqueue(int pid, int priority) {
  if (!ready_set_.insert(pid).second) return;
  (*HomeQueue(pid))[priority].push_back(pid);
}

void Scheduler::Preempt(int pid, int priority) {
  ++*c_preemptions_;
  Enqueue(pid, priority);
}

void Scheduler::EraseFrom(ReadyQueue* q, int pid) {
  for (auto& [prio, deque] : *q) {
    deque.erase(std::remove(deque.begin(), deque.end(), pid), deque.end());
  }
}

std::deque<int>* Scheduler::TopClass(ReadyQueue* q) {
  for (auto& [prio, deque] : *q) {
    if (!deque.empty()) return &deque;
  }
  return nullptr;
}

size_t Scheduler::CountOf(const ReadyQueue& q) {
  size_t n = 0;
  for (const auto& [prio, deque] : q) n += deque.size();
  return n;
}

void Scheduler::Remove(int pid) {
  if (ready_set_.erase(pid) > 0) {
    for (CoreQueue& core : cores_) EraseFrom(&core.ready, pid);
  }
  affinity_.erase(pid);
  CancelFutexWait(pid);
  other_waiters_.erase(pid);
}

int Scheduler::PopFrom(ReadyQueue* q) {
  std::deque<int>* top = TopClass(q);
  if (top == nullptr) return -1;
  if (policy_ == SchedPolicy::kRandom) {
    // Uniform pick over every pid in |q|, ignoring priority. Collect in queue
    // iteration order (deterministic) so the pick is a pure function of the seed.
    std::vector<int> pids;
    for (const auto& [prio, deque] : *q) pids.insert(pids.end(), deque.begin(), deque.end());
    int pid = pids[SplitMix64(&rng_state_) % pids.size()];
    EraseFrom(q, pid);
    return pid;
  }
  int pid = top->front();
  top->pop_front();
  return pid;
}

int Scheduler::PickNext(int core) {
  if (ready_set_.empty()) return -1;
  CoreQueue& own = cores_[static_cast<size_t>(core)];
  int pid = PopFrom(&own.ready);
  if (pid < 0) {
    // Own queue dry: steal from the back of the most loaded sibling, so the
    // victim keeps its FIFO front and the thief takes the youngest work.
    int victim = -1;
    size_t victim_load = 0;
    for (int c = 0; c < num_cores_; ++c) {
      if (c == core) continue;
      size_t load = CountOf(cores_[static_cast<size_t>(c)].ready);
      if (load > victim_load) {
        victim_load = load;
        victim = c;
      }
    }
    if (victim < 0) return -1;
    std::deque<int>* top = TopClass(&cores_[static_cast<size_t>(victim)].ready);
    pid = top->back();
    top->pop_back();
    affinity_[pid] = core;  // stolen work re-homes to the thief
    ++*c_steals_;
    ++*own.steals;
  }
  ready_set_.erase(pid);
  ++*c_switches_;
  ++*own.dispatches;
  return pid;
}

void Scheduler::CountCoreTicks(int core, uint64_t ticks) {
  *cores_[static_cast<size_t>(core)].ticks += ticks;
}

int Scheduler::CoreOf(int pid) const {
  auto it = affinity_.find(pid);
  return it == affinity_.end() ? -1 : it->second;
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

size_t Scheduler::ReadyCount() const { return ready_set_.size(); }

size_t Scheduler::FutexWaiterCount() const {
  size_t n = 0;
  for (const auto& [addr, q] : futex_waiters_) n += q.size();
  return n;
}

std::vector<int> Scheduler::FutexWaitersAt(uint32_t addr) const {
  auto it = futex_waiters_.find(addr);
  if (it == futex_waiters_.end()) return {};
  return std::vector<int>(it->second.begin(), it->second.end());
}

std::vector<std::string> Scheduler::DescribeWaiters() const {
  std::vector<std::string> lines;
  char buf[64];
  for (const auto& [addr, q] : futex_waiters_) {
    for (int pid : q) {
      snprintf(buf, sizeof buf, "pid %d: futex 0x%08X", pid, addr);
      lines.push_back(buf);
    }
  }
  for (int pid : other_waiters_) {
    snprintf(buf, sizeof buf, "pid %d: wait", pid);
    lines.push_back(buf);
  }
  return lines;
}

}  // namespace hemlock
