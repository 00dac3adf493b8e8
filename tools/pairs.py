#!/usr/bin/env python3
"""Run alternating e2ebench pairs of two builds and record every reading.

Usage: pairs.py PARENT_BIN CHANGE_BIN --workload W --seeds 1,9973 --pairs N
                --seconds S [--out FILE]

PARENT_BIN and CHANGE_BIN are two e2ebench binaries (each checkout's
.bench_build/e2ebench/e2ebench, built by `e2ebench/run.py`). For each seed,
pair i runs both binaries back to back, the parent first on even i and the
change first on odd i, so a host that drifts during a pair favours neither
side. Each run gets the workload's exact counters from e2ebench/claims.json,
the way run.py passes them, so a counter that moves fails the run.

Per seed the file records every pair (all of e2ebench's metrics for each side;
null for a side that printed no result) and, for every end-to-end metric that
BENCHMARK.json declares, over the pairs where both sides reported it: the pairs
the change won (by the metric's `better` direction; a tie is no win), both
medians, the parent's interquartile range and the median's relative change.
FILE defaults to bench/results/BENCH_<workload>.json. Before it overwrites FILE,
it prints per seed and metric the previous file's change median next to this
run's parent median: the same code measured on two occasions, so host drift
between them shows.

Exit codes: 0 every run was correct, 1 a run failed or printed no result
(the pair is still written, and the remaining pairs still run), 2 bad usage.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def die(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def run_once(binary, workload, seed, seconds, exact):
    """Runs one e2ebench process; returns its result JSON (None if it printed
    none) and whether the run was correct."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0", "--exact", ",".join(exact)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        print(f"error: {binary} seed {seed} exited {proc.returncode}, correct="
              f"{None if result is None else result.get('correct')}", file=sys.stderr)
        return result, False
    return result, True


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def value(result, metric):
    return result["metrics"].get(metric, {}).get("value")


def summarize(pairs, metric, better):
    """Summarizes |metric| over the pairs where both sides reported it."""
    both = [(value(p["parent"], metric), value(p["change"], metric)) for p in pairs
            if p["parent"] is not None and p["change"] is not None]
    both = [(p, c) for p, c in both if p is not None and c is not None]
    if not both:
        return {"better": better, "pairs": 0}
    parent = [p for p, _ in both]
    change = [c for _, c in both]
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    return {
        "better": better,
        "wins": sum(c < p if better == "lower" else c > p for p, c in both),
        "ties": sum(c == p for p, c in both),
        "pairs": len(both),
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_iqr": quartile_spread(parent),
        "delta": change_median / parent_median - 1 if parent_median else None,
    }


def print_drift(out, record):
    """Prints, per seed and metric, the change median recorded in |out| (the
    previous run) next to this run's parent median."""
    try:
        with open(out) as f:
            previous = json.load(f)
    except (OSError, json.JSONDecodeError):
        print(f"drift: no previous readings in {out}")
        return
    for seed, entry in record["seeds"].items():
        for metric, summary in entry["metrics"].items():
            before = (previous.get("seeds", {}).get(seed, {}).get("metrics", {})
                      .get(metric, {}).get("change_median"))
            now = summary.get("parent_median")
            if before is None or now is None:
                print(f"drift: seed {seed} {metric}: no previous change median to compare")
                continue
            shift = f" ({now / before - 1:+.1%})" if before else ""
            print(f"drift: seed {seed} {metric}: previous change median {before:.4g}, this "
                  f"run's parent median {now:.4g}{shift}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_bin")
    parser.add_argument("change_bin")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated, e.g. 1,9973")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "e2ebench", "claims.json")) as f:
        exact = json.load(f)["exact_counters"].get(args.workload)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = [(m["name"], m["better"]) for m in json.load(f)["end_to_end"]]
    if exact is None:
        die(f"no exact counters for workload {args.workload!r} in e2ebench/claims.json")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        die(f"bad --seeds {args.seeds!r}")
    if args.pairs < 1:
        die("--pairs must be at least 1")
    out = args.out or os.path.join(ROOT, "bench", "results", f"BENCH_{args.workload}.json")

    record = {
        "workload": args.workload,
        "metrics": [name for name, _ in metrics],
        "seconds": args.seconds,
        "parent_bin": args.parent_bin,
        "change_bin": args.change_bin,
        "seeds": {},
    }
    all_correct = True
    for seed in seeds:
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                binary = args.parent_bin if side == "parent" else args.change_bin
                result, ok = run_once(binary, args.workload, seed, args.seconds, exact)
                pair[side] = result
                all_correct = all_correct and ok
            pairs.append(pair)
            shown = {side: "none" if pair[side] is None else
                     " ".join(f"{name}={value(pair[side], name)}" for name, _ in metrics)
                     for side in order}
            print(f"seed {seed} pair {i + 1}/{args.pairs}: parent {shown['parent']}"
                  f"  change {shown['change']}", flush=True)
        entry = {"readings": pairs, "metrics": {}}
        for name, better in metrics:
            summary = summarize(pairs, name, better)
            entry["metrics"][name] = summary
            if summary["pairs"]:
                delta = "" if summary["delta"] is None else f" ({summary['delta']:+.1%})"
                print(f"seed {seed}: {name} median {summary['parent_median']:.4g} -> "
                      f"{summary['change_median']:.4g}{delta}, change better in "
                      f"{summary['wins']}/{summary['pairs']} ({better} is better, "
                      f"{summary['ties']} tied), parent IQR {summary['parent_iqr']:.4g}")
        record["seeds"][str(seed)] = entry

    print_drift(out, record)
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {out}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
