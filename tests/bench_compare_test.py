#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py over canned JSON.

Exercises every row kind of the gate table and the failure modes CI actually
hits: missing files, truncated JSON, a bench run missing one series, a zero
cores=1 rate on a throttled host, a binary's run missing a gated row, a row
its bench skipped with an error, both sides of the warm-start and remote
gates, the paper's rwho and lazy-linking claims alone, and repeated runs gated
on the median. Each case pins the exit code
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


def bench_json(binary, rows=(), num_cpus=8):
    """A run of |binary| as Google Benchmark writes it: the path in context."""
    return {"context": {"executable": f"./build/bench/{binary}", "num_cpus": num_cpus},
            "benchmarks": list(rows)}


def smp_json(rows, num_cpus=8):
    return bench_json("bench_contention",
                      [{"name": n, "items_per_second": r} for n, r in rows], num_cpus)


def smp_reps_json(ratios, num_cpus=8):
    """bench_contention run with --benchmark_repetitions=len(ratios): one
    cores=1/cores=4 row pair per repetition at the given ratio, followed by the
    aggregate rows Google Benchmark appends (a _median that would pass alone)."""
    rows = []
    for i, ratio in enumerate(ratios):
        rows += [{"name": "BM_SmpScaling/1/real_time", "run_type": "iteration",
                  "repetition_index": i, "items_per_second": 1e7},
                 {"name": "BM_SmpScaling/4/real_time", "run_type": "iteration",
                  "repetition_index": i, "items_per_second": ratio * 1e7}]
    rows += [{"name": f"BM_SmpScaling/{c}/real_time_median", "run_type": "aggregate",
              "aggregate_name": "median", "items_per_second": 9e9} for c in (1, 4)]
    return bench_json("bench_contention", rows, num_cpus)


def manifest_json(**row):
    return bench_json("bench_manifest", [{"name": "BM_ManifestWarmStart/manual_time", **row}])


def remote_json(**row):
    return bench_json("bench_remote", [{"name": "BM_RemoteSegmentAccess/manual_time", **row}])


def interp_json(iterations=16, jit_compiled=2.0, jit_speedup=20.0, speedup=3.5):
    return bench_json("bench_interp", [
        {"name": "BM_InterpSpeedup", "speedup": speedup},
        {"name": "BM_JitSpeedup", "iterations": iterations,
         "jit_compiled": jit_compiled, "speedup": jit_speedup}])


def paper_json(walk_syscalls=lambda hosts: 1, walk_ticks=3697, lazy_relocs=4, rows=()):
    """bench_paper's gated rows, then |rows|: rwho's (3 syscalls per host plus
    exit for the files) and lazy linking's at one of 32 modules touched."""
    rows = list(rows)
    for h in (8, 32, 65, 128):
        rows += [{"name": f"SimRwho/files/{h}", "hosts": h,
                  "sim_query_syscalls": 3 * h + 1, "sim_query_ticks": 1672 * h},
                 {"name": f"SimRwho/shared_memory/{h}", "hosts": h,
                  "sim_query_syscalls": walk_syscalls(h), "sim_query_ticks": walk_ticks}]
    rows += [{"name": "LinkRun/lazy/1/manual_time", "relocs_applied": lazy_relocs},
             {"name": "LinkRun/eager/1/manual_time", "relocs_applied": 130}]
    return bench_json("bench_paper", rows)


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
        self.assertIn("smp_scaling: 3.00x", p.stdout)

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

    # --- gates apply by binary; a skipped row fails ---

    def test_gate_whose_binary_ran_without_its_row_fails_by_name(self):
        p = self.gate(remote=bench_json("bench_remote"))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("remote_cached: BM_RemoteSegmentAccess.cached_ns", p.stderr)
        self.assertIn("missing from the bench_remote run", p.stderr)
        self.assertNotIn("manifest_warm", p.stderr)

    def test_gates_of_a_binary_not_among_the_inputs_do_not_apply(self):
        p = self.gate(drop=("remote",))
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("skip remote_cached: no bench_remote run among the inputs", p.stdout)

    def test_inputs_from_no_gated_binary_fail(self):
        p = run(self.write("base.json", {"benchmarks": []}),
                self.write("other.json", bench_json("bench_other", [{"name": "BM_X"}])))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("no input comes from a gated binary (bench_other)", p.stderr)

    def test_row_skipped_with_an_error_fails_by_name(self):
        # F2's check: a flat namespace binds every leaf_fn to the first leaf.
        errored = paper_json(rows=[
            {"name": "ResolveDag/duplicate_symbols/2/1/manual_time", "iterations": 1},
            {"name": "ResolveDag/duplicate_symbols/2/2/manual_time", "error_occurred": True,
             "error_message": "exit 4, scoped resolution gives 8"}])
        p = self.gate(paper=errored)
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("errors: bench_paper ResolveDag/duplicate_symbols/2/2: "
                      "exit 4, scoped resolution gives 8", p.stderr)
        self.assertNotIn("ResolveDag/duplicate_symbols/2/1", p.stderr)
        self.assertIn("ok   rwho_query_ticks:", p.stdout)

    # --- the paper's claims (bench_paper) ---

    def test_paper_run_alone_applies_only_the_paper_gates(self):
        p = run(BASELINE, self.write("paper.json", paper_json()))
        self.assertEqual(p.returncode, 0, p.stderr)
        for name in ("rwho_syscalls_saved/65", "rwho_walk_syscalls/128",
                     "rwho_query_ticks", "lazy_relocs"):
            self.assertIn(f"ok   {name}:", p.stdout)
        for name in ("interp_speedup", "smp_scaling", "counters"):
            self.assertIn(f"skip {name}: no ", p.stdout)

    def test_walk_issuing_a_syscall_per_host_fails(self):
        p = run(BASELINE, self.write("paper.json", paper_json(
            walk_syscalls=lambda hosts: hosts + 1, walk_ticks=3697 + 200 * 65)))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("rwho_syscalls_saved/65: 2.00x below floor 3.00x", p.stderr)
        self.assertIn("rwho_walk_syscalls/65: 66.00x exceeds ceiling 1.00x", p.stderr)
        self.assertIn("rwho_query_ticks: 6.51x below floor 10.00x", p.stderr)

    def test_lazy_run_resolving_the_whole_graph_fails(self):
        p = run(BASELINE, self.write("paper.json", paper_json(lazy_relocs=130)))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("lazy_relocs: 1.00x exceeds ceiling 0.06x", p.stderr)
        p = run(BASELINE, self.write("paper.json", paper_json(lazy_relocs=9)))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("lazy_relocs: 0.07x exceeds ceiling 0.06x", p.stderr)

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

    # --- repetitions: the gate reads the median and prints the IQR ---

    def test_one_slow_repetition_does_not_fail_the_median(self):
        p = self.gate(contention=smp_reps_json([3.0, 2.9, 1.5, 3.1, 3.0]))
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("smp_scaling: 3.00x at or above floor 2.50x", p.stdout)
        self.assertIn("median of 5, IQR 0.10", p.stdout)
        # The slow repetition alone would have failed the floor.
        alone = self.gate(contention=smp_reps_json([1.5]))
        self.assertEqual(alone.returncode, 1, alone.stderr)
        self.assertIn("smp_scaling: 1.50x below floor 2.50x", alone.stderr)

    def test_median_below_the_floor_fails(self):
        p = self.gate(contention=smp_reps_json([2.0, 2.4, 3.4, 2.2, 2.6]))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("smp_scaling: 2.40x below floor 2.50x", p.stderr)
        self.assertIn("median of 5, IQR 0.40", p.stderr)

    def test_a_repetition_missing_its_denominator_fails(self):
        rows = smp_reps_json([3.0, 3.0])
        rows["benchmarks"] = [r for r in rows["benchmarks"]
                              if not (r["name"] == "BM_SmpScaling/1/real_time"
                                      and r.get("repetition_index") == 1)]
        p = self.gate(contention=rows)
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("BM_SmpScaling/1.items_per_second is None", p.stderr)

    # --- stable linking's warm start ---

    def test_warm_above_ceiling_fails(self):
        p = self.gate(manifest=manifest_json(cold_ns=1e6, warm_ns=5e5, manifest_hits=3))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("manifest_warm: 0.50x exceeds ceiling 0.10x", p.stderr)

    def test_warm_run_without_hits_fails(self):
        p = self.gate(manifest=manifest_json(cold_ns=1e6, warm_ns=5e4, manifest_hits=0))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("manifest_hits=0", p.stderr)

    def test_missing_row_fails_clearly(self):
        p = self.gate(manifest=bench_json("bench_manifest"))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("manifest_warm: BM_ManifestWarmStart.warm_ns", p.stderr)

    def test_zero_cold_fails_clearly(self):
        p = self.gate(manifest=manifest_json(cold_ns=0, warm_ns=0, manifest_hits=1))
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertIn("BM_ManifestWarmStart.cold_ns is 0", p.stderr)

    # --- remote attach ---

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

    # --- the speedup floors ---

    def test_interp_speedup_below_floor_fails(self):
        p = self.gate(interp=interp_json(speedup=2.5))
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

    def run_jit_bench(self, min_time):
        out = os.path.join(self._dir.name, f"jit{min_time}.json")
        subprocess.run([BENCH_INTERP, "--benchmark_filter=BM_JitSpeedup$",
                        f"--benchmark_min_time={min_time}",
                        f"--benchmark_out={out}", "--benchmark_out_format=json"],
                       check=True, capture_output=True, timeout=120)
        with open(out) as f:
            return json.load(f)["benchmarks"][0]

    @unittest.skipUnless(BENCH_INTERP, "BENCH_INTERP not set")
    def test_bench_reports_the_same_jit_count_at_two_run_lengths(self):
        # A min_time of 0 runs exactly one iteration. Google Benchmark stops
        # once an iteration batch's CPU time reaches min_time, so asking for
        # five times that iteration's CPU time needs two or more on any build.
        one = self.run_jit_bench("0")
        seconds = one["cpu_time"] * {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}[
            one["time_unit"]]
        more = self.run_jit_bench(f"{5 * seconds:.6f}")
        if one.get("jit_compiled", 0) == 0:
            self.skipTest("the JIT compiled nothing on this host")
        self.assertEqual(one["iterations"], 1)
        self.assertGreaterEqual(more["iterations"], 2)
        self.assertEqual(one["jit_compiled"], more["jit_compiled"])


if __name__ == "__main__":
    unittest.main()
