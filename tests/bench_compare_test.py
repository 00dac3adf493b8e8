#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py over canned JSON.

Exercises every row kind of the gate table and the failure modes CI actually
hits: missing files, truncated JSON, a bench run missing one series, a zero
cores=1 rate on a throttled host, a gate whose benchmark is in no file, and
both sides of the warm-start and remote gates. Each case pins the exit code
(0 pass / 1 regression / 2 unreadable input) and the shape of the message.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SCRIPT = os.path.join(ROOT, "tools", "bench_compare.py")
BASELINE = os.path.join(ROOT, "bench", "baseline.json")
# Set by CTest to the built bench_interp; the live check below skips without it.
BENCH_INTERP = os.environ.get("BENCH_INTERP")


def run(*argv):
    return subprocess.run([sys.executable, SCRIPT, *argv],
                          capture_output=True, text=True)


def smp_json(rows, num_cpus=8):
    return {"context": {"num_cpus": num_cpus},
            "benchmarks": [{"name": n, "items_per_second": r} for n, r in rows]}


def manifest_json(**row):
    return {"benchmarks": [{"name": "BM_ManifestWarmStart/manual_time", **row}]}


def remote_json(**row):
    return {"benchmarks": [{"name": "BM_RemoteSegmentAccess/manual_time", **row}]}


def interp_json(iterations=16, jit_compiled=2.0, jit_speedup=20.0):
    return {"benchmarks": [
        {"name": "BM_InterpSpeedup", "speedup": 3.5},
        {"name": "BM_JitSpeedup", "iterations": iterations,
         "jit_compiled": jit_compiled, "speedup": jit_speedup}]}


# One BENCH file per bench binary, every gate passing; each case overrides or
# drops one file.
PASSING = {
    "interp": interp_json(),
    "contention": smp_json([("BM_SmpScaling/1/real_time", 1e7),
                            ("BM_SmpScaling/4/real_time", 3e7)]),
    "manifest": manifest_json(cold_ns=1e6, warm_ns=5e4, manifest_hits=3),
    "remote": remote_json(local_ns=1e5, cold_ns=5e6, cached_ns=1.1e5,
                          pages_fetched=64),
}


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, payload):
        path = os.path.join(self._dir.name, name)
        with open(path, "w") as f:
            if isinstance(payload, str):
                f.write(payload)
            else:
                json.dump(payload, f)
        return path

    def gate(self, base=None, drop=(), **files):
        """Runs the gates over PASSING with |files| replaced and |drop| left out."""
        payloads = {**PASSING, **files}
        paths = [self.write(f"BENCH_{k}.json", v)
                 for k, v in payloads.items() if k not in drop]
        return run(self.write("base.json", base or {"benchmarks": []}), *paths)

    def test_every_gate_passes_on_good_runs(self):
        p = self.gate()
        self.assertEqual(p.returncode, 0, p.stderr)
        for name in ("interp_speedup", "jit_speedup", "smp_scaling",
                     "manifest_warm", "remote_cached"):
            self.assertIn(f"ok   {name}:", p.stdout)

    # --- unreadable input is exit 2, not a crash or a fake regression ---

    def test_missing_file_is_exit_2(self):
        p = run(self.write("base.json", {"benchmarks": []}),
                os.path.join(self._dir.name, "nope.json"))
        self.assertEqual(p.returncode, 2, p.stderr)
        self.assertIn("cannot read", p.stderr)

    def test_truncated_json_is_exit_2(self):
        p = self.gate(contention='{"benchmarks": [{"na')
        self.assertEqual(p.returncode, 2, p.stderr)
        self.assertIn("not valid JSON", p.stderr)

    def test_missing_baseline_is_exit_2(self):
        current = self.write("current.json", {"benchmarks": []})
        p = run(os.path.join(self._dir.name, "nope.json"), current)
        self.assertEqual(p.returncode, 2, p.stderr)

    def test_gate_whose_benchmark_is_in_no_file_fails_by_name(self):
        p = self.gate(drop=("remote",))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("remote_cached: BM_RemoteSegmentAccess.cached_ns", p.stderr)
        self.assertIn("missing from every input", p.stderr)
        self.assertNotIn("manifest_warm", p.stderr)

    # --- SMP scaling: series/zero handling and the CPU-count relaxation ---

    def test_missing_cores4_series_names_the_series(self):
        p = self.gate(contention=smp_json([("BM_SmpScaling/1", 5e6)]))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("BM_SmpScaling/4", p.stderr)
        self.assertNotIn("BM_SmpScaling/1", p.stderr)

    def test_missing_both_series_names_both(self):
        p = self.gate(contention=smp_json([("BM_Other/1", 5e6)]))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("BM_SmpScaling/1", p.stderr)
        self.assertIn("BM_SmpScaling/4", p.stderr)

    def test_zero_cores1_rate_is_a_clear_failure(self):
        p = self.gate(contention=smp_json(
            [("BM_SmpScaling/1", 0.0), ("BM_SmpScaling/4", 2e7)]))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("BM_SmpScaling/1.items_per_second is 0", p.stderr)

    def test_good_scaling_passes(self):
        p = self.gate()
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("smp_scaling: 3.00x", p.stdout)

    def test_scaling_below_floor_fails(self):
        p = self.gate(contention=smp_json(
            [("BM_SmpScaling/1", 1e7), ("BM_SmpScaling/4", 2e7)]))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("smp_scaling: 2.00x below floor 2.50x", p.stderr)

    def test_two_cpu_host_halves_the_floor(self):
        p = self.gate(contention=smp_json(
            [("BM_SmpScaling/1", 1e7), ("BM_SmpScaling/4", 1.5e7)], num_cpus=2))
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("floor 1.25x", p.stdout)

    def test_single_cpu_host_records_but_does_not_gate(self):
        p = self.gate(contention=smp_json(
            [("BM_SmpScaling/1", 1e7), ("BM_SmpScaling/4", 1e7)], num_cpus=1))
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("not gated", p.stdout)

    # --- stable linking's warm start ---

    def test_warm_within_ceiling_passes(self):
        p = self.gate(manifest=manifest_json(cold_ns=1e6, warm_ns=5e4, manifest_hits=3))
        self.assertEqual(p.returncode, 0, p.stderr)

    def test_warm_above_ceiling_fails(self):
        p = self.gate(manifest=manifest_json(cold_ns=1e6, warm_ns=5e5, manifest_hits=3))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("manifest_warm: 0.50x exceeds ceiling 0.10x", p.stderr)

    def test_warm_run_without_hits_fails(self):
        p = self.gate(manifest=manifest_json(cold_ns=1e6, warm_ns=5e4, manifest_hits=0))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("manifest_hits=0", p.stderr)

    def test_missing_row_fails_clearly(self):
        p = self.gate(manifest={"benchmarks": []})
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("manifest_warm: BM_ManifestWarmStart.warm_ns", p.stderr)

    def test_zero_cold_fails_clearly(self):
        p = self.gate(manifest=manifest_json(cold_ns=0, warm_ns=0, manifest_hits=1))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("BM_ManifestWarmStart.cold_ns is 0", p.stderr)

    # --- remote attach ---

    def test_cached_within_ceiling_passes(self):
        p = self.gate(remote=remote_json(
            local_ns=1e5, cold_ns=5e6, cached_ns=1.1e5, pages_fetched=64))
        self.assertEqual(p.returncode, 0, p.stderr)

    def test_cached_above_ceiling_fails(self):
        p = self.gate(remote=remote_json(
            local_ns=1e5, cold_ns=5e6, cached_ns=2e5, pages_fetched=64))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("remote_cached: 2.00x exceeds ceiling 1.20x", p.stderr)

    def test_cold_pass_without_fetches_fails(self):
        p = self.gate(remote=remote_json(
            local_ns=1e5, cold_ns=5e6, cached_ns=1e5, pages_fetched=0))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("pages_fetched=0", p.stderr)

    def test_missing_remote_row_fails_clearly(self):
        p = self.gate(remote={"benchmarks": []})
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("remote_cached: BM_RemoteSegmentAccess.cached_ns", p.stderr)

    # --- the speedup floors ---

    def test_interp_speedup_below_floor_fails(self):
        p = self.gate(interp={"benchmarks": [
            {"name": "BM_InterpSpeedup", "speedup": 2.5},
            {"name": "BM_JitSpeedup", "jit_compiled": 2.0, "speedup": 20.0}]})
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("interp_speedup: 2.50x below floor 3.00x", p.stderr)

    def test_jit_floor_rises_to_the_baseline_less_tolerance(self):
        base = interp_json(jit_speedup=30.0)
        p = self.gate(base=base, interp=interp_json(jit_speedup=20.0))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("jit_speedup: 20.00x below floor 24.00x", p.stderr)

    def test_jit_speedup_without_compiled_blocks_is_not_gated(self):
        p = self.gate(interp=interp_json(jit_compiled=0.0, jit_speedup=1.5))
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("skip jit_speedup", p.stdout)

    # --- jit_compiled is a per-iteration value, so the counter gate does not
    # depend on how many iterations google-benchmark picks ---

    def test_same_per_iteration_jit_count_passes_at_any_iteration_count(self):
        p = self.gate(base=interp_json(16, 2.0), interp=interp_json(3, 2.0))
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("BM_JitSpeedup.jit_compiled", p.stdout)

    def test_counter_outside_tolerance_fails(self):
        p = self.gate(base=interp_json(16, 2.0), interp=interp_json(16, 3.0))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("counters: BM_JitSpeedup.jit_compiled baseline=2.0 current=3.0",
                      p.stderr)

    def test_committed_baseline_records_jit_compiled_per_iteration(self):
        with open(BASELINE) as f:
            rows = {b["name"]: b for b in json.load(f)["benchmarks"]}
        row = rows["BM_JitSpeedup"]
        # One timed loop compiles a couple of blocks; a cumulative total would
        # scale with the row's iteration count instead.
        self.assertGreater(row["jit_compiled"], 0)
        self.assertLess(row["jit_compiled"], row["iterations"])

    @unittest.skipUnless(BENCH_INTERP, "BENCH_INTERP not set")
    def test_bench_reports_the_same_jit_count_at_two_run_lengths(self):
        counts = []
        for min_time in ("0.01", "0.15"):
            out = os.path.join(self._dir.name, f"jit{min_time}.json")
            subprocess.run([BENCH_INTERP, "--benchmark_filter=BM_JitSpeedup$",
                            f"--benchmark_min_time={min_time}",
                            f"--benchmark_out={out}", "--benchmark_out_format=json"],
                           check=True, capture_output=True, timeout=120)
            with open(out) as f:
                row = json.load(f)["benchmarks"][0]
            counts.append((row["iterations"], row.get("jit_compiled", 0)))
        if counts[0][1] == 0:
            self.skipTest("the JIT compiled nothing on this host")
        self.assertNotEqual(counts[0][0], counts[1][0], counts)
        self.assertEqual(counts[0][1], counts[1][1], counts)


if __name__ == "__main__":
    unittest.main()
