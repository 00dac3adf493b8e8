#!/usr/bin/env python3
"""Gate bench JSON runs against one table of floors, ceilings and tolerances.

Usage: bench_compare.py BASELINE.json BENCH.json...

Wall-clock numbers depend on the machine, so no gate reads one directly. Each
compares a ratio of two measurements taken in one process, or a deterministic
per-run counter. GATES below is the whole policy: ratio rows, whose cpus field
is the CPU-count relaxation, and a counter-tolerance row. Each row names the
bench binary whose rows it reads.

A run made with --benchmark_repetitions=N holds N rows per benchmark. A ratio is
then taken within each repetition, and the gate reads the median of the N
ratios, printed with their interquartile range (IQR); one slow repetition on a
shared host moves neither. Counters gate on their median too. Google
Benchmark's aggregate rows (_mean, _median, ...) are ignored.

  Ratio     NUM, or NUM over DEN, must stay at or above a floor (or at or below
            a ceiling); NUM and DEN each name a (benchmark, field).
            minus  a (benchmark, field) subtracted from NUM before dividing.
            needs  a counter of NUM's row that must be > 0, or the gate fails:
                   the run never exercised what the ratio measures.
            when   a counter of NUM's row that must be > 0 for the gate to
                   apply: at 0 the host cannot run the path, and the ratio is
                   recorded but not gated.
            cpus   the CPU-count relaxation: on a host with fewer CPUs than
                   this, the floor halves, and on 1 CPU the ratio is recorded
                   but not gated.
            A floor on a ratio the bench records itself (no DEN) also rises to
            the baseline's value less TOLERANCE.
  Counters  every deterministic counter that BASELINE.json records stays within
            TOLERANCE of it.

Each BENCH file's rows are pooled by the binary that wrote them (Google
Benchmark's context.executable), by name ("/real_time" and "/manual_time"
suffixes dropped) and by repetition index. A gate applies when its binary's run is among the inputs,
and then fails if its row is missing from that run. A row that a bench skipped
with an error (error_occurred) fails whether a gate reads it or not.

Exit codes: 0 every gate passes, 1 a regression, 2 an input unreadable.
"""

import argparse
import collections
import json
import os
import statistics
import sys

TOLERANCE = 0.20

# Counters whose values are properties of the workload, not the machine.
# (jit_arena_bytes is deliberately absent: emitted-code size shifts with every
# template tweak and is a property of the emitter, not the workload.)
DETERMINISTIC_COUNTERS = (
    "tlb_hits",
    "tlb_misses",
    "tlb_flushes",
    "icache_hits",
    "icache_misses",
    "icache_invalidations",
    "jit_compiled",
    "jit_chained",
    "jit_deopts",
    "jit_bailouts",
)

Ratio = collections.namedtuple(
    "Ratio", "name binary num den minus floor ceiling needs when cpus",
    defaults=(None, None, None, None, None, None, None))
Counters = collections.namedtuple("Counters", "name binary counters")

# bench_rwho_sim's host counts (EXPERIMENTS.md E1).
RWHO_HOSTS = (8, 32, 65, 128)
# bench_lazy_link.cpp's graph size M, kModules (EXPERIMENTS.md E5).
LAZY_MODULES = 32

GATES = (
    # The block-cache interpreter over the reference interpreter.
    Ratio("interp_speedup", "bench_interp", ("BM_InterpSpeedup", "speedup"), floor=3.0),
    # The JIT tier over the reference. A host that cannot run generated code
    # falls back to the block cache, which has its own gate above.
    Ratio("jit_speedup", "bench_interp", ("BM_JitSpeedup", "speedup"), floor=6.0,
          when="jit_compiled"),
    # Guest instructions per second at cores=4 over cores=1.
    Ratio("smp_scaling", "bench_contention", ("BM_SmpScaling/4", "items_per_second"),
          den=("BM_SmpScaling/1", "items_per_second"), floor=2.5, cpus=4),
    # Stable linking: warm-start resolution time over cold.
    Ratio("manifest_warm", "bench_manifest", ("BM_ManifestWarmStart", "warm_ns"),
          den=("BM_ManifestWarmStart", "cold_ns"), ceiling=0.10,
          needs="manifest_hits"),
    # Re-reading a resident remote segment over a local attach.
    Ratio("remote_cached", "bench_remote", ("BM_RemoteSegmentAccess", "cached_ns"),
          den=("BM_RemoteSegmentAccess", "local_ns"), ceiling=1.20,
          needs="pages_fetched"),
    Counters("counters", "bench_interp", DETERMINISTIC_COUNTERS),
    # The paper's claims (bench_paper); only simulated ticks, syscall and
    # relocation counts, which do not depend on the host. EXPERIMENTS.md E1,
    # rwho as a program: the file flavour opens, reads and closes one file per
    # host, and the shared flavour walks the database in place. So a query
    # saves at least those 3 syscalls per host...
    *(Ratio(f"rwho_syscalls_saved/{h}", "bench_paper",
            (f"SimRwho/files/{h}", "sim_query_syscalls"),
            minus=(f"SimRwho/shared_memory/{h}", "sim_query_syscalls"),
            den=(f"SimRwho/files/{h}", "hosts"), floor=3.0) for h in RWHO_HOSTS),
    # ...and the walk's only syscall is its exit.
    *(Ratio(f"rwho_walk_syscalls/{h}", "bench_paper",
            (f"SimRwho/shared_memory/{h}", "sim_query_syscalls"), ceiling=1.0)
      for h in RWHO_HOSTS),
    # Each syscall is billed 200 ticks (Machine::syscall_cost), so the file
    # query pays at least 600 ticks per host before running an instruction.
    # The walk is a load, an add, a compare and a branch per host, budgeted
    # at 60 ticks per host with its exec and exit spread over the paper's 65
    # hosts: at least 600 / 60 = 10x.
    Ratio("rwho_query_ticks", "bench_paper", ("SimRwho/files/65", "sim_query_ticks"),
          den=("SimRwho/shared_memory/65", "sim_query_ticks"), floor=10.0),
    # EXPERIMENTS.md E5: lazy linking does the touched fraction's work. The
    # LAZY_MODULES feature modules are alike, so a run that touches K of them
    # applies K/M of the relocations an eager run applies to all M. The
    # ceiling, 2·K/M at K = 1, leaves as much again for the program's own
    # references and the helper module both modes share; resolving the whole
    # graph at startup reads 1.
    Ratio("lazy_relocs", "bench_paper", ("LinkRun/lazy/1", "relocs_applied"),
          den=("LinkRun/eager/1", "relocs_applied"), ceiling=2 / LAZY_MODULES),
)


def read_json(path):
    """Reads |path| as JSON; exits 2 with a clear message when unreadable.

    Unreadable input (missing file, truncated JSON) is an infrastructure
    problem, not a measured regression; the distinct exit code tells the two
    apart in CI logs.
    """
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        print(f"error: cannot read {path}: {e.strerror or e}", file=sys.stderr)
        sys.exit(2)
    except json.JSONDecodeError as e:
        print(f"error: {path} is not valid JSON: {e}", file=sys.stderr)
        sys.exit(2)


def pool_rows(paths):
    """Binary name -> benchmark name -> repetition index -> row, each row
    tagged with host_cpus. Aggregate rows are left out."""
    runs = collections.defaultdict(lambda: collections.defaultdict(dict))
    for path in paths:
        data = read_json(path)
        context = data.get("context", {})
        rows = runs[os.path.basename(context.get("executable", path))]
        for b in data.get("benchmarks", []):
            if b.get("run_type") == "aggregate":
                continue
            name = b["name"].removesuffix("/manual_time").removesuffix("/real_time")
            rows[name][b.get("repetition_index", 0)] = dict(
                b, host_cpus=context.get("num_cpus", 1))
    return runs


def median_and_iqr(values):
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def report(verdict, name, message):
    print(f"{verdict:4} {name}: {message}")
    return [f"{name}: {message}"] if verdict == "FAIL" else []


def check_errors(runs):
    """Fails every row that its bench skipped with an error."""
    failures = []
    for binary, rows in sorted(runs.items()):
        for name, reps in rows.items():
            row = next((r for r in reps.values() if r.get("error_occurred")), {})
            if row.get("error_occurred"):
                failures += report("FAIL", "errors", f"{binary} {name}: "
                                   f"{row.get('error_message', 'no message')}")
    return failures


def check_ratio(gate, rows, base):
    operands = [gate.num] + [o for o in (gate.minus, gate.den) if o]
    missing = [f"{b}.{f}" for b, f in operands
               if not rows.get(b) or any(r.get(f) is None for r in rows[b].values())]
    if missing:
        return report("FAIL", gate.name,
                      f"{' and '.join(missing)} missing from the {gate.binary} run")
    reps = sorted(rows[gate.num[0]])
    values = []
    for rep in reps:
        operand = lambda o: rows[o[0]].get(rep, {}).get(o[1])  # noqa: E731
        value = operand(gate.num)
        if gate.minus:
            value -= operand(gate.minus)
        if gate.den:
            den = operand(gate.den)
            if den is None or den <= 0:
                return report("FAIL", gate.name, f"{gate.den[0]}.{gate.den[1]} is {den}; "
                              "nothing to compare against (throttled host or broken run?)")
            value /= den
        values.append(value)
    value, iqr = median_and_iqr(values)
    spread = f"median of {len(values)}, IQR {iqr:.2f}"
    num_rows = rows[gate.num[0]].values()
    if gate.needs and any(r.get(gate.needs, 0) <= 0 for r in num_rows):
        return report("FAIL", gate.name, f"{gate.needs}=0: "
                      "the run never exercised what this gate measures")
    if gate.when and any(r.get(gate.when, 0) <= 0 for r in num_rows):
        return report("skip", gate.name, f"{gate.when}=0 on this host; "
                      f"{value:.2f}x recorded, not gated ({spread})")
    if gate.ceiling is not None:
        ok = value <= gate.ceiling
        return report("ok" if ok else "FAIL", gate.name, f"{value:.2f}x "
                      f"{'within' if ok else 'exceeds'} ceiling {gate.ceiling:.2f}x "
                      f"({spread})")
    floor, cpus = gate.floor, rows[gate.num[0]][reps[0]]["host_cpus"]
    if gate.cpus and cpus < gate.cpus:
        if cpus < 2:
            return report("skip", gate.name, f"host has {cpus} cpu(s); "
                          f"{value:.2f}x recorded, not gated ({spread})")
        floor /= 2  # the host has at most half the cores the bench asks for
    base_value = base.get(gate.num[0], {}).get(gate.num[1])
    if gate.den is None and base_value is not None:
        floor = max(floor, base_value * (1.0 - TOLERANCE))
    ok = value >= floor
    return report("ok" if ok else "FAIL", gate.name, f"{value:.2f}x "
                  f"{'at or above' if ok else 'below'} floor {floor:.2f}x "
                  f"(host cpus {cpus}; {spread})")


def check_counters(gate, rows, base):
    failures = []
    for name, b in sorted(base.items()):
        if name not in rows:
            failures += report("FAIL", gate.name,
                               f"{name} missing from the {gate.binary} run")
            continue
        for counter in gate.counters:
            if counter not in b:
                continue
            old = b[counter]
            new, _ = median_and_iqr([r.get(counter, 0.0) for r in rows[name].values()])
            ok = abs(new - old) <= TOLERANCE * abs(old) if old else new == 0
            failures += report("ok" if ok else "FAIL", gate.name,
                               f"{name}.{counter} baseline={old:.1f} current={new:.1f}")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("bench", nargs="+")
    args = parser.parse_args()
    base = {b["name"]: b for b in read_json(args.baseline).get("benchmarks", [])
            if b.get("run_type") != "aggregate"}
    runs = pool_rows(args.bench)
    failures = check_errors(runs)
    if not any(gate.binary in runs for gate in GATES):
        failures += report("FAIL", "gates", "no input comes from a gated binary "
                           f"({', '.join(sorted(runs))})")
    for gate in GATES:
        if gate.binary not in runs:
            print(f"skip {gate.name}: no {gate.binary} run among the inputs")
            continue
        check = check_ratio if isinstance(gate, Ratio) else check_counters
        failures += check(gate, runs[gate.binary], base)
    sys.stdout.flush()
    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nevery gate passes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
