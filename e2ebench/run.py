#!/usr/bin/env python3
"""The repository's end-to-end benchmark: build, then run one workload.

    python3 e2ebench/run.py --workload lazy_startup --seed 1 --seconds 20 --trace 0

Run from the repository root. It builds e2ebench (CMake, Release) into
.bench_build/e2ebench, runs the requested workload in its own process, and
passes that process's output through: the last line of stdout is the JSON
result. --trace 1 also writes a Chrome trace (open it in Perfetto) and the
per-op counters to .bench_build/e2ebench/traces/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
WORKLOADS = ("lazy_startup", "shared_compute", "two_node")


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], stdout=sys.stderr, check=True)


def exact_counters(workload):
    with open(os.path.join(HERE, "claims.json")) as f:
        return json.load(f)["exact_counters"][workload]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="run exactly this many ops per phase instead of --seconds")
    parser.add_argument("--wrong-expected", action="store_true",
                        help="test hook: corrupt one expected value per op")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--exact", ",".join(exact_counters(args.workload))]
    if args.ops:
        cmd += ["--ops", str(args.ops)]
    if args.wrong_expected:
        cmd.append("--wrong-expected")
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: the workload did not finish within 170 s")
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
