// MetricsRegistry — the single stats substrate for the whole system.
//
// Every subsystem (ldl, the loader, the kernel fault path, the shared file system)
// registers named counters here instead of growing ad-hoc stats structs.
// Counter handles are raw uint64_t pointers into a std::map, which never invalidates
// references, so the hot paths pay one pointer bump per event and name resolution
// happens once, at registration time.
//
// Naming convention: dotted "<subsystem>.<event>" — e.g. "ldl.link_faults",
// "sfs.addr_lookups", "vm.faults_delivered". Snapshot() flattens everything into an
// ordered name -> value map for tests, tools, and RunOutcome.
#ifndef SRC_BASE_METRICS_H_
#define SRC_BASE_METRICS_H_

#include <cstdint>
#include <map>
#include <string>

namespace hemlock {

// An ordered, self-contained copy of every counter at one instant.
using MetricsSnapshot = std::map<std::string, uint64_t>;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registers (or finds) a counter and returns its stable handle. The pointer stays
  // valid for the registry's lifetime regardless of later registrations.
  uint64_t* Counter(const std::string& name) { return &counters_[name]; }

  // One-shot increment by name (cold paths / tools; hot paths keep the handle).
  void Add(const std::string& name, uint64_t delta = 1) { counters_[name] += delta; }

  // Current value; 0 for a name never registered (reading must not create entries).
  uint64_t Get(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  MetricsSnapshot Snapshot() const;

  // Merges |other|'s snapshot entries into |into| (summing shared names) — used to
  // combine the machine-wide registry with a process's linker registry.
  static void Merge(MetricsSnapshot* into, const MetricsSnapshot& other);

  void Reset();

 private:
  std::map<std::string, uint64_t> counters_;
};

}  // namespace hemlock

#endif  // SRC_BASE_METRICS_H_
