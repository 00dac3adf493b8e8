#include "src/base/metrics.h"

namespace hemlock {

MetricsSnapshot MetricsRegistry::Snapshot() const {
  return MetricsSnapshot(counters_.begin(), counters_.end());
}

void MetricsRegistry::Merge(MetricsSnapshot* into, const MetricsSnapshot& other) {
  for (const auto& [name, value] : other) {
    (*into)[name] += value;
  }
}

void MetricsRegistry::Reset() {
  for (auto& [name, value] : counters_) {
    value = 0;
  }
}

}  // namespace hemlock
