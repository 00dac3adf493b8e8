#include "src/net/chaos.h"

#include <cstdlib>

#include "src/base/faults.h"
#include "src/base/strings.h"

namespace hemlock {

namespace {

// One registry point per action kind, consulted on every frame so a point
// armed with `--faults net.chaos.drop=error@3` fires on exactly the third
// frame regardless of the seeded schedule.
constexpr const char* kPointNames[] = {
    nullptr, "net.chaos.drop", "net.chaos.delay", "net.chaos.dup",
    "net.chaos.trunc", "net.chaos.sever",
};

}  // namespace

const char* ChaosActionName(ChaosAction action) {
  switch (action) {
    case ChaosAction::kNone: return "none";
    case ChaosAction::kDrop: return "drop";
    case ChaosAction::kDelay: return "delay";
    case ChaosAction::kDup: return "dup";
    case ChaosAction::kTrunc: return "trunc";
    case ChaosAction::kSever: return "sever";
  }
  return "unknown";
}

ChaosEngine& ChaosEngine::Global() {
  static ChaosEngine* engine = new ChaosEngine();
  return *engine;
}

Status ChaosEngine::Configure(const std::string& spec) {
  Disable();
  std::lock_guard<std::mutex> lock(mu_);
  if (spec.empty()) {
    return OkStatus();
  }
  std::string body = spec;
  size_t colon = body.rfind(':');
  if (colon != std::string::npos && colon + 1 < body.size() &&
      body.find_first_not_of("0123456789", colon + 1) == std::string::npos) {
    seed_ = std::strtoull(body.c_str() + colon + 1, nullptr, 10);
    body = body.substr(0, colon);
  }
  for (const std::string& part : SplitString(body, ',')) {
    size_t eq = part.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= part.size()) {
      return InvalidArgument("chaos: want kind=K, got '" + part + "'");
    }
    std::string kind = part.substr(0, eq);
    char* end = nullptr;
    unsigned long k = std::strtoul(part.c_str() + eq + 1, &end, 10);
    if (end == nullptr || *end != '\0') {
      return InvalidArgument("chaos: bad frame period in '" + part + "'");
    }
    uint32_t period = static_cast<uint32_t>(k);
    if (kind == "drop") {
      drop_ = period;
    } else if (kind == "delay") {
      delay_ = period;
    } else if (kind == "dup") {
      dup_ = period;
    } else if (kind == "trunc") {
      trunc_ = period;
    } else if (kind == "sever") {
      sever_ = period;
    } else {
      return InvalidArgument("chaos: unknown kind '" + kind + "'");
    }
  }
  scheduled_ = drop_ != 0 || delay_ != 0 || dup_ != 0 || trunc_ != 0 || sever_ != 0;
  return OkStatus();
}

void ChaosEngine::Disable() {
  std::lock_guard<std::mutex> lock(mu_);
  scheduled_ = false;
  drop_ = delay_ = dup_ = trunc_ = sever_ = 0;
  seed_ = 0;
  frame_.store(0, std::memory_order_relaxed);
}

ChaosAction ChaosEngine::ScheduledAction(uint64_t frame) const {
  // One hash per frame; each kind reads its own slice so the kinds fire
  // independently. Severity order decides ties (a frame that would both drop
  // and delay just drops).
  uint64_t le[1] = {frame};
  uint64_t h = Fnv1a64(le, sizeof(le), kFnv1a64Seed ^ seed_);
  if (sever_ != 0 && h % sever_ == 0) {
    return ChaosAction::kSever;
  }
  if (trunc_ != 0 && (h >> 13) % trunc_ == 0) {
    return ChaosAction::kTrunc;
  }
  if (drop_ != 0 && (h >> 26) % drop_ == 0) {
    return ChaosAction::kDrop;
  }
  if (dup_ != 0 && (h >> 39) % dup_ == 0) {
    return ChaosAction::kDup;
  }
  if (delay_ != 0 && (h >> 52) % delay_ == 0) {
    return ChaosAction::kDelay;
  }
  return ChaosAction::kNone;
}

ChaosAction ChaosEngine::NextSendAction() {
  // Armed fault points outrank the schedule: a Check that fires names the
  // exact frame the test wants broken (the mode byte is irrelevant here —
  // the point name *is* the action).
  for (int kind = 1; kind <= 5; ++kind) {
    if (!FaultRegistry::Global().Check(kPointNames[kind]).ok()) {
      return static_cast<ChaosAction>(kind);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!scheduled_) {
    return ChaosAction::kNone;
  }
  uint64_t frame = frame_.fetch_add(1, std::memory_order_relaxed) + 1;
  return ScheduledAction(frame);
}

}  // namespace hemlock
