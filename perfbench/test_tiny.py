#!/usr/bin/env python3
"""Tiny-size runs of every workload: each must pass the correctness gate and
emit every metric BENCHMARK.json names, with its unit.

    python3 perfbench/test_tiny.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

# range_d1 is runnable but not in BENCHMARK.json (see README.md).
WORKLOADS = [w["name"] for w in BENCH["workloads"]] + ["range_d1"]


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    return proc


class TinyRuns(unittest.TestCase):
    def check(self, workload, trace, expected):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in expected})
        for m in expected:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))
            # Every metric is also printed by name with its unit.
            self.assertTrue(
                any(l.startswith(f"metric {m['name']} = ") and f" {m['unit']} (" in l
                    for l in lines),
                m["name"],
            )
        self.assertTrue(any(l.startswith("provenance ") for l in lines))
        return metrics

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                metrics = self.check(w, 0, BENCH["end_to_end"])
                for m in BENCH["end_to_end"]:
                    self.assertGreater(metrics[m["name"]]["value"], 0, m["name"])

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 1, BENCH["per_layer"])

    def test_unknown_workload_fails_without_a_result(self):
        proc = run("no_such_workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(proc.stdout.strip().startswith("{"))


if __name__ == "__main__":
    unittest.main()
