// Seeded chaos transport — deterministic network weather for the hemnet link.
//
// The engine sits inside Conn::Send and decides, per outgoing frame, whether
// the wire behaves: frames can be dropped (the peer times out and retransmits),
// delayed, duplicated (the peer's at-most-once cache answers the copy),
// truncated mid-frame (the peer sees a torn transfer), or the whole connection
// severed. Two trigger paths compose:
//
//   * a seeded schedule (`Configure("drop=7,dup=13:42")`): each kind fires on
//     roughly 1-in-K frames, chosen by an FNV-1a hash of (seed, frame ordinal)
//     — the same seed replays the same weather, which is what lets the chaos
//     differential demand byte-identical output;
//   * the PR 2 fault registry: arming `net.chaos.drop` (or .delay/.dup/.trunc/
//     .sever) via `--faults` fires that kind once at an exact ordinal, for
//     tests that need one surgical event rather than a climate.
//
// The engine is process-global like the fault registry (transports live in
// leaf code with no Machine handle); tools configure it from `--net-chaos`.
#ifndef SRC_NET_CHAOS_H_
#define SRC_NET_CHAOS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "src/base/status.h"

namespace hemlock {

enum class ChaosAction : uint8_t { kNone, kDrop, kDelay, kDup, kTrunc, kSever };

const char* ChaosActionName(ChaosAction action);

class ChaosEngine {
 public:
  static ChaosEngine& Global();

  ChaosEngine() = default;
  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;

  // Spec: comma-separated `kind=K` pairs (kind in drop/delay/dup/trunc/sever;
  // K = fire on ~1 in K frames, 0 = off), optionally suffixed `:SEED`.
  // An empty spec disables the schedule (armed net.chaos.* points still fire).
  Status Configure(const std::string& spec);
  void Disable();

  bool scheduled() const {
    std::lock_guard<std::mutex> lock(mu_);
    return scheduled_;
  }
  uint64_t frames() const { return frame_.load(std::memory_order_relaxed); }

  // Called once per outgoing frame; returns what the wire does to it.
  ChaosAction NextSendAction();

 private:
  ChaosAction ScheduledAction(uint64_t frame) const;

  // Guards the schedule: a test thread reconfigures it while a server thread
  // is still sending.
  mutable std::mutex mu_;
  bool scheduled_ = false;
  uint32_t drop_ = 0;
  uint32_t delay_ = 0;
  uint32_t dup_ = 0;
  uint32_t trunc_ = 0;
  uint32_t sever_ = 0;
  uint64_t seed_ = 0;
  std::atomic<uint64_t> frame_{0};
};

}  // namespace hemlock

#endif  // SRC_NET_CHAOS_H_
