#!/usr/bin/env python3
"""The benchmark's own test: checks that can fail, per-op counters, the trace.

    python3 e2ebench/test_e2ebench.py      (from the repository root)

Each case runs e2ebench/run.py with a fixed op count (--ops), so the whole
file takes well under a minute once the benchmark is built.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACES = os.path.join(ROOT, ".bench_build", "e2ebench", "traces")
WORKLOADS = {"lazy_startup": 4, "shared_compute": 2, "two_node": 4}  # ops per phase
SPAN_CHILDREN = {"sfs.boot", "loader.exec", "vm.run", "net.connect", "net.disconnect",
                 "net.observer_run", "check"}

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
with open(os.path.join(HERE, "claims.json")) as f:
    CLAIMS = json.load(f)


def run(workload, seed=1, ops=2, trace=0, extra=(), env=None):
    """Runs one workload; returns (exit code, stdout lines, parsed last line)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--ops", str(ops)]
    proc = subprocess.run(cmd + list(extra), cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc.returncode, lines, result


def per_op_counters(workload, seed, ops):
    code, _, result = run(workload, seed=seed, ops=ops, trace=1)
    assert code == 0 and result["correct"], result
    with open(os.path.join(TRACES, f"{workload}-seed{seed}.counters.json")) as f:
        counters = json.load(f)
    assert counters["ops"] == ops, counters["ops"]
    exact = CLAIMS["exact_counters"][workload]
    return {name: counters["per_op"].get(name, 0) for name in exact}


class PerOpCountersTest(unittest.TestCase):
    def test_exact_counters_are_per_op_and_repeat_for_a_seed(self):
        for workload, ops in WORKLOADS.items():
            with self.subTest(workload=workload):
                once = per_op_counters(workload, 5, ops)
                twice = per_op_counters(workload, 5, 2 * ops)
                again = per_op_counters(workload, 5, ops)
                self.assertEqual(once, twice)  # N ops and 2N ops: per op, not totals
                self.assertEqual(once, again)  # same seed, same counts
                self.assertTrue(any(once.values()))

    def test_seed_drives_the_inputs(self):
        # lazy_startup's DAG shape comes from the seed, and so do its relocations.
        a = per_op_counters("lazy_startup", 1, 2)
        b = per_op_counters("lazy_startup", 2, 2)
        self.assertNotEqual(a["ldl.relocs_applied"], b["ldl.relocs_applied"])


class ChecksCanFailTest(unittest.TestCase):
    def test_wrong_expected_value_fails_every_op(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = run(workload, ops=3, extra=["--wrong-expected"])
                self.assertEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["attempted"], 3)
                self.assertEqual(result["failed"], 3)
                self.assertIn("error_rate = 1 ratio (3 of 3 ops failed)", lines)

    def test_refuses_another_engine(self):
        for var in ("HEMLOCK_JIT", "HEMLOCK_SLOW_INTERP"):
            with self.subTest(var=var):
                env = dict(os.environ)
                env[var] = "0"
                code, lines, _ = run("lazy_startup", env=env)
                self.assertNotEqual(code, 0)
                self.assertFalse(any(line.startswith("{") for line in lines))


class OutputTest(unittest.TestCase):
    def check_metrics(self, result, lines, declared):
        self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
        for m in declared:
            value = result["metrics"][m["name"]]
            self.assertEqual(value["unit"], m["unit"], m["name"])
            self.assertIsInstance(value["value"], (int, float))
            # Also printed for a reader, by name and with its unit.
            self.assertTrue(any(line.startswith(f"{m['name']} = ") and
                                line.endswith(f" {m['unit']}") for line in lines), m["name"])

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = run(workload)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.check_metrics(result, lines, BENCH["end_to_end"])
                for m in BENCH["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])
                code, lines, result = run(workload, trace=1)
                self.assertEqual(code, 0)
                self.check_metrics(result, lines, BENCH["per_layer"])

    def test_trace_is_well_formed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, _, result = run(workload, seed=7, trace=1)
                self.assertEqual(code, 0)
                with open(os.path.join(TRACES, f"{workload}-seed7.json")) as f:
                    events = json.load(f)["traceEvents"]
                by_id = {}
                for e in events:
                    self.assertEqual(e["ph"], "X")
                    for key in ("name", "ts", "dur", "pid", "tid", "args"):
                        self.assertIn(key, e)
                    self.assertGreaterEqual(e["dur"], 0)
                    self.assertNotIn(e["args"]["id"], by_id)
                    by_id[e["args"]["id"]] = e
                ops = [e for e in events if e["name"] == "op"]
                self.assertEqual(len(ops), 2)  # the traced phase's ops only
                for e in events:
                    parent = e["args"]["parent"]
                    if parent == -1:
                        continue
                    self.assertIn(parent, by_id)  # every parent id resolves
                    p = by_id[parent]
                    self.assertEqual(p["args"]["op"], e["args"]["op"])
                    self.assertGreaterEqual(e["ts"] + 1e-3, p["ts"])
                    self.assertLessEqual(e["ts"] + e["dur"], p["ts"] + p["dur"] + 1e-3)
                    if p["name"] == "op":
                        self.assertIn(e["name"], SPAN_CHILDREN)


if __name__ == "__main__":
    unittest.main()
