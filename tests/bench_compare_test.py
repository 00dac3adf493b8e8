#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py over canned JSON.

Exercises the failure modes CI actually hits: missing files, truncated JSON,
a bench run missing one series, a zero cores=1 rate on a throttled host, and
both sides of the stable-linking warm-start gate. Each case pins the exit code
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

    def smp_json(self, rows, num_cpus=8):
        return {"context": {"num_cpus": num_cpus},
                "benchmarks": [{"name": n, "items_per_second": r}
                               for n, r in rows]}

    # --- unreadable input is exit 2, not a crash or a fake regression ---

    def test_missing_file_is_exit_2(self):
        p = run("--smp-scaling", os.path.join(self._dir.name, "nope.json"))
        self.assertEqual(p.returncode, 2, p.stderr)
        self.assertIn("cannot read", p.stderr)

    def test_truncated_json_is_exit_2(self):
        path = self.write("torn.json", '{"benchmarks": [{"na')
        p = run("--smp-scaling", path)
        self.assertEqual(p.returncode, 2, p.stderr)
        self.assertIn("not valid JSON", p.stderr)

    def test_missing_baseline_in_compare_mode_is_exit_2(self):
        current = self.write("current.json", {"benchmarks": []})
        p = run(os.path.join(self._dir.name, "nope.json"), current)
        self.assertEqual(p.returncode, 2, p.stderr)

    # --- --smp-scaling series/zero handling (used to KeyError/ZeroDivide) ---

    def test_missing_cores4_series_names_the_series(self):
        path = self.write("smp.json", self.smp_json([("BM_SmpScaling/1", 5e6)]))
        p = run("--smp-scaling", path)
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("cores=4", p.stderr)
        self.assertNotIn("cores=1 ", p.stderr)

    def test_missing_both_series_names_both(self):
        path = self.write("smp.json", self.smp_json([("BM_Other/1", 5e6)]))
        p = run("--smp-scaling", path)
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("cores=1", p.stderr)
        self.assertIn("cores=4", p.stderr)

    def test_zero_cores1_rate_is_a_clear_failure(self):
        path = self.write("smp.json", self.smp_json(
            [("BM_SmpScaling/1", 0.0), ("BM_SmpScaling/4", 2e7)]))
        p = run("--smp-scaling", path)
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("cores=1 throughput is 0", p.stderr)

    def test_good_scaling_passes(self):
        path = self.write("smp.json", self.smp_json(
            [("BM_SmpScaling/1", 1e7), ("BM_SmpScaling/4", 3e7)]))
        p = run("--smp-scaling", path)
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("3.00x", p.stdout)

    def test_single_cpu_host_records_but_does_not_gate(self):
        path = self.write("smp.json", self.smp_json(
            [("BM_SmpScaling/1", 1e7), ("BM_SmpScaling/4", 1e7)], num_cpus=1))
        p = run("--smp-scaling", path)
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("not gated", p.stdout)

    # --- --manifest-warm gate ---

    def manifest_json(self, **row):
        return {"benchmarks": [{"name": "BM_ManifestWarmStart", **row}]}

    def test_warm_within_ceiling_passes(self):
        path = self.write("m.json", self.manifest_json(
            cold_ns=1e6, warm_ns=5e4, manifest_hits=3))
        p = run("--manifest-warm", path)
        self.assertEqual(p.returncode, 0, p.stderr)

    def test_warm_above_ceiling_fails(self):
        path = self.write("m.json", self.manifest_json(
            cold_ns=1e6, warm_ns=5e5, manifest_hits=3))
        p = run("--manifest-warm", path)
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("exceeds", p.stderr)

    def test_warm_run_without_hits_fails(self):
        path = self.write("m.json", self.manifest_json(
            cold_ns=1e6, warm_ns=5e4, manifest_hits=0))
        p = run("--manifest-warm", path)
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("manifest_hits=0", p.stderr)

    def test_missing_row_fails_clearly(self):
        path = self.write("m.json", {"benchmarks": []})
        p = run("--manifest-warm", path)
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("row missing", p.stderr)

    def test_zero_cold_fails_clearly(self):
        path = self.write("m.json", self.manifest_json(
            cold_ns=0, warm_ns=0, manifest_hits=1))
        p = run("--manifest-warm", path)
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("cold_ns is 0", p.stderr)

    # --- --remote gate ---

    def remote_json(self, **row):
        return {"benchmarks": [{"name": "BM_RemoteSegmentAccess/manual_time",
                                **row}]}

    def test_cached_within_ceiling_passes(self):
        path = self.write("r.json", self.remote_json(
            local_ns=1e5, cold_ns=5e6, cached_ns=1.1e5, pages_fetched=64))
        p = run("--remote", path)
        self.assertEqual(p.returncode, 0, p.stderr)

    def test_cached_above_ceiling_fails(self):
        path = self.write("r.json", self.remote_json(
            local_ns=1e5, cold_ns=5e6, cached_ns=2e5, pages_fetched=64))
        p = run("--remote", path)
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("exceeds", p.stderr)

    def test_cold_pass_without_fetches_fails(self):
        path = self.write("r.json", self.remote_json(
            local_ns=1e5, cold_ns=5e6, cached_ns=1e5, pages_fetched=0))
        p = run("--remote", path)
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("pages_fetched=0", p.stderr)

    def test_missing_remote_row_fails_clearly(self):
        path = self.write("r.json", {"benchmarks": []})
        p = run("--remote", path)
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("row missing", p.stderr)

    # --- jit_compiled is a per-iteration value, so the counter gate does not
    # depend on how many iterations google-benchmark picks ---

    def jit_row(self, iterations, jit_compiled):
        return {"benchmarks": [
            {"name": "BM_InterpSpeedup", "speedup": 3.5},
            {"name": "BM_JitSpeedup", "iterations": iterations,
             "jit_compiled": jit_compiled, "speedup": 20.0}]}

    def test_same_per_iteration_jit_count_passes_at_any_iteration_count(self):
        base = self.write("base.json", self.jit_row(16, 2.0))
        cur = self.write("cur.json", self.jit_row(3, 2.0))
        p = run(base, cur)
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("BM_JitSpeedup.jit_compiled", p.stdout)

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
