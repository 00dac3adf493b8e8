#!/usr/bin/env python3
"""Unit tests for tools/differential.py.

Pins what every seed sweep relies on: a non-zero guest exit is compared in-band
rather than aborting the sweep, a divergence fails with exit 1 and names the
seed, --expect-exit catches a program that agrees with itself but exits wrong,
and a server binary that cannot start is exit 2, not a fake divergence.
"""

import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SCRIPT = os.path.join(ROOT, "tools", "differential.py")
PROGRAMS = os.path.join(ROOT, "tests", "programs")
# Set by CTest to the built tools; the cases that run guests skip without them.
HEMRUN = os.environ.get("HEMRUN")
HEMSERVE = os.environ.get("HEMSERVE")


def run(*argv):
    return subprocess.run([sys.executable, SCRIPT, *argv],
                          capture_output=True, text=True, timeout=60)


def program(name):
    return os.path.join(PROGRAMS, name)


class DifferentialTest(unittest.TestCase):
    @unittest.skipUnless(HEMRUN, "HEMRUN not set")
    def test_agreeing_legs_compare_a_nonzero_exit_in_band(self):
        loop = program("loop.hc")
        p = run("4",
                f"{HEMRUN} --slow-interp --procs 2 --quantum 64 --sched random:{{seed}} {loop}",
                f"{HEMRUN} --jit --jit-threshold 1 --procs 2 --quantum 64 "
                f"--sched random:{{seed}} {loop}")
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        for seed in range(1, 5):
            self.assertIn(f"seed {seed}: 2 legs agree, exit=28", p.stdout)

    def test_disagreeing_legs_fail_and_name_the_seed(self):
        p = run("3", "echo {seed}", "echo 1")
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)
        self.assertIn("seed 1: 2 legs agree", p.stdout)
        self.assertIn("seed 2: leg 2 diverged from leg 1", p.stdout)
        self.assertIn("-2\n+1\n", p.stdout)
        self.assertIn("2 of 3 seed(s) failed: 2, 3", p.stderr)

    def test_differing_exit_status_is_a_divergence(self):
        p = run("1", "true", "false")
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)
        self.assertIn("-exit=0\n+exit=1\n", p.stdout)

    @unittest.skipUnless(HEMRUN, "HEMRUN not set")
    def test_expect_exit_fails_a_racy_program_that_agrees_with_itself(self):
        racy = (f"{HEMRUN} --procs 2 --quantum 64 --sched random:{{seed}} --race "
                f"--public {program('counter.hc')} {program('racy.hc')}")
        p = run("--expect-exit", "0", "2", racy, racy)
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)
        self.assertIn("seed 1: leg 1 exited 5, expected 0", p.stdout)
        self.assertIn("[race]", p.stdout)

    @unittest.skipUnless(HEMSERVE, "HEMSERVE not set")
    def test_serve_fills_addr_from_a_fresh_server_per_seed(self):
        p = run("--serve", HEMSERVE, "2", "echo {addr} | cut -d: -f1", "echo 127.0.0.1")
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("seed 2: 2 legs agree, exit=0", p.stdout)

    def test_missing_server_binary_is_exit_2(self):
        with tempfile.TemporaryDirectory() as d:
            p = run("--serve", os.path.join(d, "no-such-hemserve"), "1",
                    "echo {addr}", "echo {addr}")
        self.assertEqual(p.returncode, 2, p.stdout + p.stderr)
        self.assertIn("cannot start", p.stderr)

    def test_one_leg_is_a_usage_error(self):
        p = run("1", "true")
        self.assertEqual(p.returncode, 2, p.stdout + p.stderr)


if __name__ == "__main__":
    unittest.main()
