#!/usr/bin/env python3
"""Gate bench JSON runs against one table of floors, ceilings and tolerances.

Usage: bench_compare.py BASELINE.json BENCH.json...

Wall-clock numbers depend on the machine, so no gate reads one directly. Each
compares a ratio of two measurements taken in one process, or a deterministic
per-run counter. GATES below is the whole policy: ratio rows, whose cpus field
is the CPU-count relaxation, and a counter-tolerance row.

  Ratio     NUM, or NUM over DEN, must stay at or above a floor (or at or below
            a ceiling); NUM and DEN each name a (benchmark, field).
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

The benchmark rows of every BENCH file are pooled by name ("/real_time" and
"/manual_time" suffixes dropped). A gate whose row is in none of them fails.

Exit codes: 0 every gate passes, 1 a regression, 2 an input unreadable.
"""

import argparse
import collections
import json
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
    "Ratio", "name num den floor ceiling needs when cpus",
    defaults=(None, None, None, None, None, None))
Counters = collections.namedtuple("Counters", "name counters")

GATES = (
    # The block-cache interpreter over the reference interpreter (bench_interp).
    Ratio("interp_speedup", ("BM_InterpSpeedup", "speedup"), floor=3.0),
    # The JIT tier over the reference. A host that cannot run generated code
    # falls back to the block cache, which has its own gate above.
    Ratio("jit_speedup", ("BM_JitSpeedup", "speedup"), floor=6.0,
          when="jit_compiled"),
    # Guest instructions per second at cores=4 over cores=1 (bench_contention).
    Ratio("smp_scaling", ("BM_SmpScaling/4", "items_per_second"),
          den=("BM_SmpScaling/1", "items_per_second"), floor=2.5, cpus=4),
    # Stable linking: warm-start resolution time over cold (bench_manifest).
    Ratio("manifest_warm", ("BM_ManifestWarmStart", "warm_ns"),
          den=("BM_ManifestWarmStart", "cold_ns"), ceiling=0.10,
          needs="manifest_hits"),
    # Re-reading a resident remote segment over a local attach (bench_remote).
    Ratio("remote_cached", ("BM_RemoteSegmentAccess", "cached_ns"),
          den=("BM_RemoteSegmentAccess", "local_ns"), ceiling=1.20,
          needs="pages_fetched"),
    Counters("counters", DETERMINISTIC_COUNTERS),
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
    """Benchmark name -> row over every file, each row tagged with host_cpus."""
    rows = {}
    for path in paths:
        data = read_json(path)
        cpus = data.get("context", {}).get("num_cpus", 1)
        for b in data.get("benchmarks", []):
            name = b["name"].removesuffix("/manual_time").removesuffix("/real_time")
            rows[name] = dict(b, host_cpus=cpus)
    return rows


def report(verdict, gate, message):
    print(f"{verdict:4} {gate.name}: {message}")
    return [f"{gate.name}: {message}"] if verdict == "FAIL" else []


def check_ratio(gate, rows, base):
    operands = [gate.num] + ([gate.den] if gate.den else [])
    missing = [f"{b}.{f}" for b, f in operands if rows.get(b, {}).get(f) is None]
    if missing:
        return report("FAIL", gate, f"{' and '.join(missing)} missing from every input")
    row = rows[gate.num[0]]
    value = row[gate.num[1]]
    if gate.den:
        den = rows[gate.den[0]][gate.den[1]]
        if den <= 0:
            return report("FAIL", gate, f"{gate.den[0]}.{gate.den[1]} is {den}; "
                          "nothing to compare against (throttled host or broken run?)")
        value /= den
    if gate.needs and row.get(gate.needs, 0) <= 0:
        return report("FAIL", gate, f"{gate.needs}={row.get(gate.needs, 0)}: "
                      "the run never exercised what this gate measures")
    if gate.when and row.get(gate.when, 0) <= 0:
        return report("skip", gate, f"{gate.when}=0 on this host; "
                      f"{value:.2f}x recorded, not gated")
    if gate.ceiling is not None:
        ok = value <= gate.ceiling
        return report("ok" if ok else "FAIL", gate, f"{value:.2f}x "
                      f"{'within' if ok else 'exceeds'} ceiling {gate.ceiling:.2f}x")
    floor, cpus = gate.floor, row["host_cpus"]
    if gate.cpus and cpus < gate.cpus:
        if cpus < 2:
            return report("skip", gate, f"host has {cpus} cpu(s); "
                          f"{value:.2f}x recorded, not gated")
        floor /= 2  # the host has at most half the cores the bench asks for
    base_value = base.get(gate.num[0], {}).get(gate.num[1])
    if gate.den is None and base_value is not None:
        floor = max(floor, base_value * (1.0 - TOLERANCE))
    ok = value >= floor
    return report("ok" if ok else "FAIL", gate, f"{value:.2f}x "
                  f"{'at or above' if ok else 'below'} floor {floor:.2f}x "
                  f"(host cpus {cpus})")


def check_counters(gate, rows, base):
    failures = []
    for name, b in sorted(base.items()):
        if name not in rows:
            failures += report("FAIL", gate, f"{name} missing from every input")
            continue
        for counter in gate.counters:
            if counter not in b:
                continue
            old, new = b[counter], rows[name].get(counter, 0.0)
            ok = abs(new - old) <= TOLERANCE * abs(old) if old else new == 0
            failures += report("ok" if ok else "FAIL", gate,
                               f"{name}.{counter} baseline={old:.1f} current={new:.1f}")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("bench", nargs="+")
    args = parser.parse_args()
    base = {b["name"]: b for b in read_json(args.baseline).get("benchmarks", [])}
    rows = pool_rows(args.bench)
    failures = []
    for gate in GATES:
        check = check_ratio if isinstance(gate, Ratio) else check_counters
        failures += check(gate, rows, base)
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
