// e2ebench — the repository's end-to-end benchmark.
//
//   e2ebench --workload <lazy_startup|shared_compute|two_node> --seed N
//            --seconds S --trace 0|1 [--ops N]
//            [--exact name,name,...] [--trace-out STEM] [--wrong-expected]
//
// --trace 0 measures the end-to-end metrics; --trace 1 first repeats the
// untraced loop for half the time, then runs the traced loop for the other
// half and reports the per-layer metrics (README.md has the table); with
// --trace-out it writes STEM.json (Chrome trace events) and STEM.counters.json
// (per-op counter means). The last line of stdout is one JSON object:
// correct, attempted, failed, metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "e2ebench/harness.h"
#include "src/base/strings.h"

namespace e2ebench {
namespace {

using hemlock::StrFormat;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint64_t max_ops = 0;  // 0: run for --seconds
  std::vector<std::string> exact;
  std::string trace_out;
  bool wrong_expected = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--wrong-expected") {
      args->wrong_expected = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--ops") {
      args->max_ops = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--exact") {
      size_t start = 0;
      while (start <= value.size()) {
        size_t comma = value.find(',', start);
        if (comma == std::string::npos) {
          comma = value.size();
        }
        if (comma > start) {
          args->exact.push_back(value.substr(start, comma - start));
        }
        start = comma + 1;
      }
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

double Seconds(std::chrono::steady_clock::time_point a, std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n == 0 ? 0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

// Nearest-rank percentile of |q| in (0, 1].
double Percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  if (v.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

// One closed loop of ops, untraced or traced.
struct Phase {
  std::vector<double> latency_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0;
  MetricsSnapshot sum;    // every counter, summed over the phase's ops
  MetricsSnapshot exact;  // the exact counters' per-op value (from the first op)
  std::set<std::string> varying;  // exact counters that moved between ops
  size_t first_span = 0;          // the phase's spans start here in the log
  std::string first_error;
};

Phase RunPhase(Workload& workload, SpanLog& spans, int64_t* next_op, const Args& args,
               double seconds) {
  Phase phase;
  phase.first_span = spans.spans().size();
  auto start = std::chrono::steady_clock::now();
  while (args.max_ops != 0 ? phase.attempted < args.max_ops
                           : Seconds(start, std::chrono::steady_clock::now()) < seconds) {
    spans.set_op((*next_op)++);
    auto t0 = std::chrono::steady_clock::now();
    OpOutcome out;
    {
      SpanLog::Scope op(&spans, "op");
      out = workload.RunOp(spans);
    }
    auto t1 = std::chrono::steady_clock::now();
    phase.latency_ms.push_back(Seconds(t0, t1) * 1e3);
    ++phase.attempted;
    Status upkeep = workload.BetweenOps(&out);
    if (out.error.empty() && !upkeep.ok()) {
      out.error = upkeep.ToString();
    }
    if (!out.error.empty()) {
      ++phase.failed;
      if (phase.first_error.empty()) {
        phase.first_error = out.error;
      }
    }
    hemlock::MetricsRegistry::Merge(&phase.sum, out.counters);
    for (const std::string& name : args.exact) {
      auto it = out.counters.find(name);
      uint64_t value = it == out.counters.end() ? 0 : it->second;
      if (phase.attempted == 1) {
        phase.exact[name] = value;
      } else if (phase.exact[name] != value) {
        phase.varying.insert(name);
      }
    }
  }
  phase.wall_s = Seconds(start, std::chrono::steady_clock::now());
  spans.set_op(-1);
  return phase;
}

// The process's own high-water mark. Not getrusage's ru_maxrss, which keeps
// the peak of the image that exec'd this one (the Python launcher).
double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::atof(line + 6);
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// The per-layer metrics of a traced phase (README.md: layer -> metric table).
std::vector<Metric> LayerMetrics(
    const Phase& traced, const Phase& untraced, const SpanLog& spans) {
  const double ops = static_cast<double>(std::max<uint64_t>(traced.attempted, 1));
  auto per_op = [&](const char* name) {
    auto it = traced.sum.find(name);
    return it == traced.sum.end() ? 0.0 : static_cast<double>(it->second) / ops;
  };
  auto total = [&](const char* name) {
    auto it = traced.sum.find(name);
    return it == traced.sum.end() ? 0.0 : static_cast<double>(it->second);
  };

  // Span time: the set-up spans (op == -1, from the last set-up) and the
  // traced phase's op subtrees. Every child of "op" is a leaf, so a child's
  // duration is its self time and op.other_ms is what no child covers.
  std::map<std::string, double> setup_ms, op_ms;
  double setup_objects = 0, other_ms = 0;
  std::map<int64_t, double> op_child_ms;  // op span id -> child time
  const std::vector<Span>& all = spans.spans();
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    double ms = static_cast<double>(s.dur_ns) / 1e6;
    if (s.op < 0) {
      setup_ms[s.name] += ms;
      setup_objects += s.name == "lang.compile" ? 1 : 0;
    } else if (i >= traced.first_span && s.parent >= 0) {
      op_ms[s.name] += ms / ops;
      if (all[static_cast<size_t>(s.parent)].name == "op") {
        op_child_ms[s.parent] += ms;
      }
    }
  }
  for (size_t i = traced.first_span; i < all.size(); ++i) {
    if (all[i].parent < 0 && all[i].op >= 0) {
      double ms = static_cast<double>(all[i].dur_ns) / 1e6;
      other_ms += (ms - op_child_ms[all[i].id]) / ops;
    }
  }

  double core_min = -1, core_max = 0;
  for (const auto& [name, value] : traced.sum) {
    if (name.rfind("vm.sched.core.", 0) == 0 && name.size() > 6 &&
        name.compare(name.size() - 6, 6, ".ticks") == 0) {
      double v = static_cast<double>(value);
      core_min = core_min < 0 ? v : std::min(core_min, v);
      core_max = std::max(core_max, v);
    }
  }

  std::vector<Metric> out;
  auto add = [&](const char* name, double value, const char* unit) {
    out.push_back({name, value, unit});
  };
  auto count = [&](const char* name) { add(name, per_op(name), "count"); };
  // lang / link (lds): set-up only.
  add("lang.compile_ms", setup_ms["lang.compile"], "ms");
  add("lang.objects", setup_objects, "count");
  add("lds.link_ms", setup_ms["lds.link"], "ms");
  // link (loader, ldl)
  add("loader.exec_ms", op_ms["loader.exec"], "ms");
  add("ldl.startup_ms", per_op("ldl.startup_ns") / 1e6, "ms");
  for (const char* name : {"ldl.link_faults", "ldl.map_faults", "ldl.publics_created",
                           "ldl.publics_attached", "ldl.relocs_applied", "ldl.lookups",
                           "ldl.scope_walks"}) {
    count(name);
  }
  add("ldl.cache_hit_ratio", Ratio(total("ldl.cache_hits"), total("ldl.lookups")), "ratio");
  count("ldl.lock_retries");
  count("ldl.lock_waits");
  // sfs
  add("sfs.boot_ms", op_ms["sfs.boot"], "ms");
  count("sfs.addr_lookups");
  add("sfs.probes_per_lookup",
      Ratio(total("sfs.addr_lookup_probes"), total("sfs.addr_lookups")), "ratio");
  count("sfs.locks_taken");
  // vm
  add("vm.run_ms", op_ms["vm.run"], "ms");
  count("vm.ticks");
  add("vm.tlb_hit_ratio",
      Ratio(total("vm.tlb.hits"), total("vm.tlb.hits") + total("vm.tlb.misses")), "ratio");
  for (const char* name : {"vm.tlb.misses", "vm.icache.misses", "vm.icache.invalidations",
                           "vm.jit.compiled_blocks", "vm.jit.chained", "vm.jit.bailouts",
                           "vm.jit.deopts", "vm.syscalls", "vm.faults_delivered"}) {
    count(name);
  }
  // kernel
  for (const char* name : {"vm.sched.switches", "vm.sched.preemptions", "vm.sched.futex_waits",
                           "vm.sched.wakes", "vm.sched.steals", "vm.sched.shootdowns"}) {
    count(name);
  }
  add("kernel.core_balance", core_min < 0 ? 1.0 : Ratio(core_min, core_max), "ratio");
  // net
  add("net.connect_ms", op_ms["net.connect"], "ms");
  add("net.disconnect_ms", op_ms["net.disconnect"], "ms");
  add("net.observer_run_ms", op_ms["net.observer_run"], "ms");
  count("net.client.rpcs");
  count("net.client.fetch_rpcs");
  add("net.pages_per_fetch",
      Ratio(total("net.client.pages_fetched"), total("net.client.fetch_rpcs")), "ratio");
  for (const char* name : {"net.client.pages_fetched", "net.client.pages_flushed",
                           "net.client.invals_applied", "net.client.retries",
                           "net.client.reconnects", "net.client.degraded", "net.server.rpcs",
                           "net.server.coherence.invalidations",
                           "net.server.coherence.downgrades"}) {
    count(name);
  }
  // bench
  add("check_ms", op_ms["check"], "ms");
  add("op.other_ms", other_ms, "ms");
  double traced_p50 = Median(traced.latency_ms);
  add("op.traced_p50_ms", traced_p50, "ms");
  add("trace.overhead_ratio", Ratio(traced_p50, Median(untraced.latency_ms)), "ratio");
  add("error_rate",
      Ratio(static_cast<double>(traced.failed + untraced.failed),
            static_cast<double>(traced.attempted + untraced.attempted)),
      "ratio");
  return out;
}

Status WriteCounters(const std::string& path, const Args& args, const Phase& traced) {
  std::string out = StrFormat("{\"workload\": \"%s\", \"seed\": %llu, \"ops\": %llu, \"per_op\": {",
                              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                              static_cast<unsigned long long>(traced.attempted));
  const char* sep = "";
  for (const auto& [name, value] : traced.sum) {
    out += StrFormat("%s\n  \"%s\": %.10g", sep, name.c_str(),
                     static_cast<double>(value) / static_cast<double>(traced.attempted));
    sep = ",";
  }
  out += "\n}}\n";
  return WriteFile(path, out);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload W --seed N --seconds S --trace 0|1 [--ops N]\n"
                 "                [--exact a,b] [--trace-out STEM] "
                 "[--wrong-expected]\n");
    return 2;
  }
  // The engine under test is the production one. These variables, read by
  // Machine's constructor, select another engine (the differential CI legs).
  for (const char* var : {"HEMLOCK_SLOW_INTERP", "HEMLOCK_JIT"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "e2ebench: refusing to run with %s set\n", var);
      return 2;
    }
  }
  Inputs inputs;
  inputs.seed = args.seed;
  inputs.wrong_expected = args.wrong_expected;
  std::unique_ptr<Workload> (*make)(const Inputs&) = nullptr;
  if (args.workload == "lazy_startup") {
    make = MakeLazyStartup;
  } else if (args.workload == "shared_compute") {
    make = MakeSharedCompute;
  } else if (args.workload == "two_node") {
    make = MakeTwoNode;
  } else {
    std::fprintf(stderr, "e2ebench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Set-up runs in kSetupRounds rounds, each anew; a round sets up once on
  // every CPU in turn (see CpuRotation: the vCPUs differ in speed, so a
  // median of single set-ups would flip between them). setup_s is the median
  // of the rounds' mean set-up times. Only the last set-up is kept (and
  // traced), so its spans feed lang.* and lds.*.
  constexpr int kSetupRounds = 7;
  SpanLog spans(args.trace);
  std::unique_ptr<Workload> workload;
  std::vector<double> round_s;
  CpuRotation cpus;
  for (int round = 0; round < kSetupRounds; ++round) {
    double sum_s = 0;
    for (size_t cpu = 0; cpu < cpus.size(); ++cpu) {
      workload.reset();
      SpanLog quiet(false);
      bool last = round + 1 == kSetupRounds && cpu + 1 == cpus.size();
      Status st = cpus.Next();
      auto t0 = std::chrono::steady_clock::now();
      if (st.ok()) {
        workload = make(inputs);
        st = workload->Setup(last ? spans : quiet);
      }
      sum_s += Seconds(t0, std::chrono::steady_clock::now());
      if (!st.ok()) {
        std::fprintf(stderr, "e2ebench: set-up failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    round_s.push_back(sum_s / static_cast<double>(cpus.size()));
  }
  if (Status st = cpus.Release(); !st.ok()) {
    std::fprintf(stderr, "e2ebench: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("set-up: %d rounds of %zu, round means %.6g..%.6g s\n", kSetupRounds,
              cpus.size(), *std::min_element(round_s.begin(), round_s.end()),
              *std::max_element(round_s.begin(), round_s.end()));

  int64_t next_op = 0;
  bool correct = true;
  // Warm-up, untimed and unchecked: lets host caches, the allocator and the
  // CPU frequency settle before the first timed op.
  spans.set_enabled(false);
  {
    Args warm = args;
    warm.max_ops = args.max_ops != 0 ? 2 : 0;
    RunPhase(*workload, spans, &next_op, warm, std::min(0.5, args.seconds / 10));
  }
  auto report_phase = [&](const char* label, const Phase& p) {
    if (p.failed != 0) {
      std::printf("%s: %llu of %llu ops failed; first: %s\n", label,
                  static_cast<unsigned long long>(p.failed),
                  static_cast<unsigned long long>(p.attempted), p.first_error.c_str());
      correct = false;
    }
    for (const std::string& name : p.varying) {
      std::printf("%s: exact counter %s moved between ops\n", label, name.c_str());
      correct = false;
    }
  };

  Phase untraced = RunPhase(*workload, spans, &next_op, args,
                            args.trace ? args.seconds / 2 : args.seconds);
  report_phase("untraced", untraced);
  std::vector<Metric> metrics;
  uint64_t attempted = untraced.attempted, failed = untraced.failed;
  if (args.trace) {
    spans.set_enabled(true);
    Phase traced = RunPhase(*workload, spans, &next_op, args, args.seconds / 2);
    report_phase("traced", traced);
    // Tracing must not move what it observes: every exact counter reads as
    // untraced, and so does the JIT's compiled-block count (within 25% where
    // SMP interleaving keeps it from repeating exactly).
    for (const auto& [name, value] : untraced.exact) {
      if (traced.exact[name] != value) {
        std::printf("exact counter %s: untraced %llu, traced %llu per op\n", name.c_str(),
                    static_cast<unsigned long long>(value),
                    static_cast<unsigned long long>(traced.exact[name]));
        correct = false;
      }
    }
    auto jit_per_op = [](const Phase& p) {
      auto it = p.sum.find("vm.jit.compiled_blocks");
      return it == p.sum.end() ? 0.0
                               : static_cast<double>(it->second) /
                                     static_cast<double>(std::max<uint64_t>(p.attempted, 1));
    };
    double jit_untraced = jit_per_op(untraced), jit_traced = jit_per_op(traced);
    if (std::fabs(jit_traced - jit_untraced) > 0.25 * std::max(jit_traced, jit_untraced)) {
      std::printf("vm.jit.compiled_blocks: untraced %.6g, traced %.6g per op\n", jit_untraced,
                  jit_traced);
      correct = false;
    }
    metrics = LayerMetrics(traced, untraced, spans);
    attempted += traced.attempted;
    failed += traced.failed;
    if (!args.trace_out.empty()) {
      for (Status st : {WriteFile(args.trace_out + ".json", spans.ChromeTraceJson()),
                        WriteCounters(args.trace_out + ".counters.json", args, traced)}) {
        if (!st.ok()) {
          std::fprintf(stderr, "e2ebench: %s\n", st.ToString().c_str());
          return 1;
        }
      }
    }
  } else {
    const std::vector<double>& lat = untraced.latency_ms;
    size_t n = lat.size();
    size_t p95_rank = static_cast<size_t>(std::ceil(0.95 * static_cast<double>(n)));
    std::printf("op latency: %zu samples, %zu beyond p95%s\n", n, n - p95_rank,
                n - p95_rank < 10 ? " (fewer than 10: p95 is not resolved)" : "");
    uint64_t ticks = 0;
    auto it = untraced.sum.find("vm.ticks");
    if (it != untraced.sum.end()) {
      ticks = it->second;
    }
    metrics = {
        {"setup_s", Median(round_s), "s"},
        {"op_p50_ms", Median(lat), "ms"},
        {"op_p95_ms", Percentile(lat, 0.95), "ms"},
        {"ops_per_s", Ratio(static_cast<double>(n), untraced.wall_s), "1/s"},
        {"guest_mips", Ratio(static_cast<double>(ticks), untraced.wall_s) / 1e6, "Mticks/s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    std::printf("error_rate = %.6g ratio (%llu of %llu ops failed)\n",
                Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += StrFormat(", \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const Metric& m : metrics) {
    std::printf("%s = %.10g %s\n", m.name.c_str(), m.value, m.unit);
    json += StrFormat("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", sep, m.name.c_str(),
                      m.value, m.unit);
    sep = ", ";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
