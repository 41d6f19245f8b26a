#!/usr/bin/env python3
"""Self-tests of the scimpi benchmark.

    python3 perfbench/tests/run_tests.py

Builds the driver and its C++ self-test (span self-time arithmetic,
percentiles, stratified draws), checks that BENCHMARK.json's metric names
are well formed, and runs the short mode of every workload in both modes:
each must be correct and print exactly the metrics BENCHMARK.json names,
with their units.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(BENCH, "run.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


RUN = load_run_module()


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def short_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--short"],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


class SelfTest(unittest.TestCase):
    def test_span_arithmetic(self):
        RUN.build(("perfbench_selftest",))
        proc = subprocess.run([os.path.join(RUN.BUILD, "perfbench_selftest")],
                              capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stderr)


class MetricNames(unittest.TestCase):
    def test_names_and_units(self):
        bench = benchmark_json()
        names = []
        for group in ("end_to_end", "per_layer"):
            for m in bench[group]:
                self.assertRegex(m["name"], NAME_RE)
                self.assertRegex(m["unit"], UNIT_RE)
                self.assertIn(m["better"], ("lower", "higher"))
                names.append(m["name"])
        for w in bench["workloads"]:
            self.assertRegex(w["name"], NAME_RE)
            names.append(w["name"])
        self.assertEqual(len(names), len(set(names)), "a name is used twice")

    def test_workloads_match_driver(self):
        self.assertEqual([w["name"] for w in benchmark_json()["workloads"]],
                         list(RUN.WORKLOADS))


class ShortMode(unittest.TestCase):
    """Every workload, both modes: correct, and every named metric printed."""

    def check(self, workload, trace):
        bench = benchmark_json()
        want = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
        code, result, err = short_run(workload, trace)
        self.assertEqual(code, 0, err)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], err)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, v in result["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), name)


for _w in RUN.WORKLOADS:
    for _t in (0, 1):
        setattr(ShortMode, f"test_{_w}_trace{_t}",
                lambda self, w=_w, t=_t: self.check(w, t))


if __name__ == "__main__":
    unittest.main(verbosity=2)
