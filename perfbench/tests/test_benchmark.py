#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/tests/test_benchmark.py

Checks that BENCHMARK.json parses and keeps the declared limits (names made
of [A-Za-z0-9_.-], at most 16 end-to-end and 128 per-layer metrics, bounds
at most 0.25, a setup_s metric), and runs every workload once untraced and
once traced to check that each declared metric is printed with its unit and
that the run is correct.  The runs build the benchmark first, so the first
one takes a while.
"""

import json
import re
import subprocess
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


def run_benchmark(spec, workload, trace, seconds=1, seed=7):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=1200)


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec()

    def test_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertLessEqual(SPEC_PATH.stat().st_size, 64 * 1024)

    def test_command_and_paths(self):
        command = self.spec["command"]
        self.assertTrue(1 <= len(command) <= 32)
        for arg in command:
            self.assertIsInstance(arg, str)
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/"))
            self.assertNotIn("..", arg.split("/"))
        paths = self.spec["paths"]
        self.assertTrue(1 <= len(paths) <= 16)
        for p in paths:
            self.assertRegex(p, PATH)
            self.assertNotIn("..", p.split("/"))
            self.assertTrue((ROOT / p).is_dir(), p)

    def test_run_seconds(self):
        seconds = self.spec["run_seconds"]
        self.assertIsInstance(seconds, int)
        self.assertTrue(1 <= seconds <= 60)

    def test_workloads(self):
        workloads = self.spec["workloads"]
        self.assertTrue(2 <= len(workloads) <= 8)
        for w in workloads:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metrics(self):
        e2e, layers = self.spec["end_to_end"], self.spec["per_layer"]
        self.assertTrue(1 <= len(e2e) <= 16)
        self.assertTrue(1 <= len(layers) <= 128)
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in layers:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in e2e + layers:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        names = [m["name"] for m in e2e + layers]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        setup = [m for m in e2e if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in e2e))


class RunTest(unittest.TestCase):
    """Every declared metric is printed, with its unit, on every workload."""

    def setUp(self):
        self.spec = load_spec()

    def check_run(self, workload, trace, declared):
        done = run_benchmark(self.spec, workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-4000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        printed = result["metrics"]
        self.assertEqual(set(printed), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(printed[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(printed[m["name"]]["value"], (int, float))
        return printed

    def test_every_workload(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                printed = self.check_run(w["name"], 0, self.spec["end_to_end"])
                self.assertGreater(printed["setup_s"]["value"], 0)
                self.assertGreater(printed["host_rps"]["value"], 0)
            with self.subTest(workload=w["name"], trace=1):
                self.check_run(w["name"], 1, self.spec["per_layer"])

    def test_bad_arguments_fail_without_a_result(self):
        for args in (["--workload", "no_such_workload"],
                     ["--seconds", "abc"]):
            cmd = {"--workload": "agile_mix", "--seed": "1",
                   "--seconds": "1", "--trace": "0"}
            cmd.update(dict(zip(args[::2], args[1::2])))
            flat = [x for kv in cmd.items() for x in kv]
            done = subprocess.run(self.spec["command"] + flat, cwd=ROOT,
                                  capture_output=True, text=True, timeout=1200)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
