#!/usr/bin/env python3
"""Unit tests for tools/pairs.py over canned e2ebench readings.

Two stand-in "binaries" print readings from a canned list, one per run, and log
the arguments they were given. The cases pin what pairs.py records (every
reading and, per end-to-end metric of BENCHMARK.json, wins by the metric's
direction, ties, medians, the parent's IQR), the alternating run order, the
--exact list it passes from e2ebench/claims.json, a failed run's exit code, a
run that prints no result, an unknown workload, and the drift line it prints
against the file it is about to overwrite (with and without one).
"""

import json
import os
import stat
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SCRIPT = os.path.join(ROOT, "tools", "pairs.py")

# Pops the next reading from READINGS (a JSON list beside the script), appends
# its own argv to LOG, and prints a result line the way e2ebench does; a reading
# of null ops prints nothing, as a crashed run would. A third item in a reading
# is its peak_rss_mb.
FAKE = """#!{python}
import json, sys
readings_path, log_path = {readings!r}, {log!r}
with open(readings_path) as f:
    readings = json.load(f)
ops, correct, *rss = readings.pop(0)
with open(readings_path, "w") as f:
    json.dump(readings, f)
with open(log_path, "a") as f:
    f.write(json.dumps([{name!r}] + sys.argv[1:]) + "\\n")
print("some human-readable lines first")
if ops is None:
    sys.exit(1)
metrics = {{"ops_per_s": {{"value": ops, "unit": "1/s"}},
            "op_p50_ms": {{"value": 1000.0 / ops, "unit": "ms"}}}}
if rss:
    metrics["peak_rss_mb"] = {{"value": rss[0], "unit": "MB"}}
print(json.dumps({{"correct": correct, "attempted": 10, "failed": 0 if correct else 10,
                  "metrics": metrics}}))
sys.exit(0 if correct else 1)
"""


class PairsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.log = os.path.join(self.tmp.name, "log")

    def tearDown(self):
        self.tmp.cleanup()

    def fake(self, name, readings):
        readings_path = os.path.join(self.tmp.name, name + ".json")
        with open(readings_path, "w") as f:
            json.dump(readings, f)
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            f.write(FAKE.format(python=sys.executable, readings=readings_path, log=self.log,
                                name=name))
        os.chmod(path, os.stat(path).st_mode | stat.S_IEXEC)
        return path

    def run_pairs(self, parent, change, *extra):
        out = self.out_path()
        proc = subprocess.run([sys.executable, SCRIPT, parent, change, "--workload",
                               "lazy_startup", "--seconds", "2", "--out", out, *extra],
                              capture_output=True, text=True)
        record = None
        if os.path.exists(out):
            with open(out) as f:
                record = json.load(f)
        return proc, record

    def out_path(self):
        return os.path.join(self.tmp.name, "BENCH_lazy_startup.json")

    def logged(self):
        with open(self.log) as f:
            return [json.loads(line) for line in f]

    def test_records_readings_wins_medians_and_parent_iqr(self):
        parent = self.fake("parent", [[100, True], [104, True], [90, True], [110, True],
                                      [50, True]])
        change = self.fake("change", [[120, True], [100, True], [118, True], [130, True],
                                      [40, True]])
        proc, record = self.run_pairs(parent, change, "--seeds", "1", "--pairs", "5")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        readings = record["seeds"]["1"]["readings"]
        ops = record["seeds"]["1"]["metrics"]["ops_per_s"]
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [m["name"] for m in json.load(f)["end_to_end"]]
        self.assertEqual(record["metrics"], names)
        self.assertEqual(len(readings), 5)
        self.assertEqual([p["parent"]["metrics"]["ops_per_s"]["value"] for p in readings],
                         [100, 104, 90, 110, 50])
        self.assertEqual(ops["better"], "higher")
        self.assertEqual(ops["wins"], 3)  # 120>100, 118>90, 130>110
        self.assertEqual(ops["pairs"], 5)
        self.assertEqual(ops["parent_median"], 100)
        self.assertEqual(ops["change_median"], 118)
        self.assertAlmostEqual(ops["delta"], 0.18)
        # Inclusive quartiles of 50, 90, 100, 104, 110: 90 and 104.
        self.assertEqual(ops["parent_iqr"], 14)
        self.assertIn("ops_per_s median 100 -> 118 (+18.0%), change better in 3/5", proc.stdout)

    def test_lower_is_better_metrics_count_wins_downward_and_ties_as_no_win(self):
        parent = self.fake("parent", [[100, True, 30.0], [100, True, 29.5], [100, True, 30.5]])
        change = self.fake("change", [[100, True, 10.0], [90, True, 29.5], [125, True, 31.0]])
        proc, record = self.run_pairs(parent, change, "--seeds", "1", "--pairs", "3")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        metrics = record["seeds"]["1"]["metrics"]
        rss = metrics["peak_rss_mb"]
        self.assertEqual(rss["better"], "lower")
        self.assertEqual((rss["wins"], rss["ties"], rss["pairs"]), (1, 1, 3))  # 10<30; 29.5
        self.assertEqual(rss["parent_median"], 30.0)
        self.assertEqual(rss["change_median"], 29.5)
        self.assertEqual(rss["parent_iqr"], 0.5)
        # op_p50_ms is 1000/ops: lower wins where ops rose (8 < 10), the tie is no win.
        p50 = metrics["op_p50_ms"]
        self.assertEqual((p50["better"], p50["wins"], p50["ties"]), ("lower", 1, 1))
        ops = metrics["ops_per_s"]
        self.assertEqual((ops["wins"], ops["ties"]), (1, 1))
        # A metric no run reported is summarized over no pairs.
        self.assertEqual(metrics["setup_s"], {"better": "lower", "pairs": 0})
        self.assertIn("peak_rss_mb median 30 -> 29.5 (-1.7%), change better in 1/3 (lower is "
                      "better, 1 tied)", proc.stdout)

    def test_alternates_order_and_passes_exact_counters(self):
        parent = self.fake("parent", [[100, True]] * 4)
        change = self.fake("change", [[110, True]] * 4)
        proc, record = self.run_pairs(parent, change, "--seeds", "1,9973", "--pairs", "2")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        runs = self.logged()
        self.assertEqual([r[0] for r in runs], ["parent", "change", "change", "parent"] * 2)
        with open(os.path.join(ROOT, "e2ebench", "claims.json")) as f:
            exact = json.load(f)["exact_counters"]["lazy_startup"]
        for argv in runs:
            self.assertEqual(argv[argv.index("--exact") + 1], ",".join(exact))
            self.assertEqual(argv[argv.index("--trace") + 1], "0")
        self.assertEqual([r[r.index("--seed") + 1] for r in runs], ["1"] * 4 + ["9973"] * 4)
        self.assertEqual(sorted(record["seeds"]), ["1", "9973"])
        self.assertEqual([p["first"] for p in record["seeds"]["9973"]["readings"]],
                         ["parent", "change"])

    def test_incorrect_run_fails_but_is_recorded(self):
        parent = self.fake("parent", [[100, True], [100, True]])
        change = self.fake("change", [[110, True], [110, False]])
        proc, record = self.run_pairs(parent, change, "--seeds", "1", "--pairs", "2")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("correct=False", proc.stderr)
        self.assertFalse(record["seeds"]["1"]["readings"][1]["change"]["correct"])

    def test_run_without_result_keeps_its_pair_and_the_rest(self):
        parent = self.fake("parent", [[100, True], [100, True], [100, True]])
        change = self.fake("change", [[120, True], [None, False], [90, True]])
        proc, record = self.run_pairs(parent, change, "--seeds", "1", "--pairs", "3")
        self.assertEqual(proc.returncode, 1)
        seed = record["seeds"]["1"]
        readings = seed["readings"]
        self.assertEqual(len(readings), 3)  # the later pair still ran
        self.assertIsNone(readings[1]["change"])
        self.assertEqual(readings[1]["parent"]["metrics"]["ops_per_s"]["value"], 100)
        # Only the two complete pairs are summarized.
        ops = seed["metrics"]["ops_per_s"]
        self.assertEqual(ops["pairs"], 2)
        self.assertEqual(ops["wins"], 1)
        self.assertEqual(ops["change_median"], 105)
        self.assertIn("change none", proc.stdout)

    def test_prints_drift_against_the_previous_file_before_overwriting_it(self):
        # The previous file is one this script wrote, for seed 1 only, with
        # change medians of 125 ops/s and 10 MB.
        parent = self.fake("parent", [[100, True, 30.0]])
        change = self.fake("change", [[125, True, 10.0]])
        proc, _ = self.run_pairs(parent, change, "--seeds", "1", "--pairs", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        parent = self.fake("parent", [[100, True, 12.5]] * 2)
        change = self.fake("change", [[110, True, 10.0]] * 2)
        proc, record = self.run_pairs(parent, change, "--seeds", "1,9973", "--pairs", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        # The previous change medians against this run's parent medians.
        self.assertIn("drift: seed 1 ops_per_s: previous change median 125, this run's parent "
                      "median 100 (-20.0%)", proc.stdout)
        self.assertIn("drift: seed 1 peak_rss_mb: previous change median 10, this run's parent "
                      "median 12.5 (+25.0%)", proc.stdout)
        self.assertIn("drift: seed 1 setup_s: no previous change median", proc.stdout)
        self.assertIn("drift: seed 9973 ops_per_s: no previous change median", proc.stdout)
        self.assertLess(proc.stdout.index("drift: seed 1"), proc.stdout.index("wrote "))
        self.assertEqual(record["seeds"]["1"]["metrics"]["ops_per_s"]["parent_median"], 100)

    def test_prints_that_there_is_no_previous_file(self):
        parent = self.fake("parent", [[100, True]])
        change = self.fake("change", [[110, True]])
        proc, record = self.run_pairs(parent, change, "--seeds", "1", "--pairs", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("drift: no previous readings in " + self.out_path(), proc.stdout)
        self.assertEqual(record["seeds"]["1"]["metrics"]["ops_per_s"]["change_median"], 110)

    def test_unknown_workload_is_usage_error(self):
        parent = self.fake("parent", [])
        proc = subprocess.run([sys.executable, SCRIPT, parent, parent, "--workload", "nope",
                               "--seeds", "1", "--pairs", "1", "--seconds", "1"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("no exact counters", proc.stderr)
        self.assertFalse(os.path.exists(self.log))  # nothing ran


if __name__ == "__main__":
    unittest.main()
