#!/usr/bin/env python3
"""Unit tests for scripts/check_bench.py — the CI bench-regression gate.

The differ IS the gate: a bug that makes it accept everything would let
perf regressions ship behind green CI, so it gets its own tests, run under
ctest (CMake registers this file as `check_bench_selftest`).  Each case
invokes the script as a subprocess — argument parsing, exit codes, and
output all exercised exactly the way the workflow uses them.

Only the Python standard library is used.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "check_bench.py")


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, payload):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            if isinstance(payload, str):
                f.write(payload)
            else:
                json.dump(payload, f)
        return path

    def run_check(self, baseline, candidate, *extra):
        return subprocess.run(
            [sys.executable, SCRIPT, baseline, candidate, *extra],
            capture_output=True,
            text=True,
        )

    def test_identical_passes(self):
        base = self.write("base.json", {"rps": 1000.0, "policy": "affinity"})
        cand = self.write("cand.json", {"rps": 1000.0, "policy": "affinity"})
        result = self.run_check(base, cand)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("OK", result.stdout)

    def test_numeric_drift_within_tolerance_passes(self):
        base = self.write("base.json", {"rps": 1000.0})
        cand = self.write("cand.json", {"rps": 1010.0})  # +1% < default 2%
        self.assertEqual(self.run_check(base, cand).returncode, 0)

    def test_numeric_drift_beyond_tolerance_fails(self):
        base = self.write("base.json", {"rps": 1000.0})
        cand = self.write("cand.json", {"rps": 1100.0})  # +10%
        result = self.run_check(base, cand)
        self.assertEqual(result.returncode, 1)
        self.assertIn("rps", result.stdout)

    def test_rel_tol_flag_widens_the_gate(self):
        base = self.write("base.json", {"rps": 1000.0})
        cand = self.write("cand.json", {"rps": 1100.0})
        self.assertEqual(
            self.run_check(base, cand, "--rel-tol", "0.15").returncode, 0
        )

    def test_abs_tol_covers_near_zero_metrics(self):
        base = self.write("base.json", {"wait": 0.0})
        cand = self.write("cand.json", {"wait": 1e-12})
        self.assertEqual(self.run_check(base, cand).returncode, 0)

    def test_string_mismatch_fails(self):
        base = self.write("base.json", {"policy": "affinity"})
        cand = self.write("cand.json", {"policy": "round-robin"})
        self.assertEqual(self.run_check(base, cand).returncode, 1)

    def test_missing_metric_fails(self):
        base = self.write("base.json", {"rps": 1.0, "hit": 0.5})
        cand = self.write("cand.json", {"rps": 1.0})
        result = self.run_check(base, cand)
        self.assertEqual(result.returncode, 1)
        self.assertIn("disappeared", result.stdout)

    def test_new_metric_fails(self):
        base = self.write("base.json", {"rps": 1.0})
        cand = self.write("cand.json", {"rps": 1.0, "extra": 2.0})
        result = self.run_check(base, cand)
        self.assertEqual(result.returncode, 1)
        self.assertIn("new metric", result.stdout)

    def test_unreadable_or_malformed_input_exits_2(self):
        base = self.write("base.json", {"rps": 1.0})
        self.assertEqual(
            self.run_check(base, os.path.join(self.tmp.name, "nope.json")).returncode,
            2,
        )
        broken = self.write("broken.json", "{not json")
        self.assertEqual(self.run_check(base, broken).returncode, 2)
        array = self.write("array.json", [1, 2, 3])
        self.assertEqual(self.run_check(base, array).returncode, 2)

    def test_integer_metric_off_by_one_fails(self):
        # Integers (counts, digests) never pass through libm, so the float
        # tolerance does not apply: 1001 vs 1000 is within 2% but fails.
        base = self.write("base.json", {"completed": 1000})
        cand = self.write("cand.json", {"completed": 1001})
        result = self.run_check(base, cand)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("completed", result.stdout)


if __name__ == "__main__":
    unittest.main()
