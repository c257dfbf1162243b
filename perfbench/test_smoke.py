#!/usr/bin/env python3
"""Smoke test for the benchmark at tiny sizes.

    python3 perfbench/test_smoke.py

Runs every workload in BENCHMARK.json through run.py with --tiny, untraced
and traced, and asserts that the run exits 0, prints every metric named in
BENCHMARK.json (on its own line with its unit, and in the result line), and
passes every check.
"""

import json
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class SmokeTest(unittest.TestCase):
    def run_bench(self, workload, trace):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace),
               "--tiny"]
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=600)
        self.assertEqual(p.returncode, 0, p.stderr)
        lines = p.stdout.strip().splitlines()
        return lines, json.loads(lines[-1])

    def check(self, workload, trace):
        lines, result = self.run_bench(workload, trace)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        specs = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertTrue(any(line.split()[:2] == ["metric", m["name"]]
                                and line.split()[-1] == m["unit"]
                                for line in lines), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        self.assertTrue(any(line.startswith("fingerprint ") for line in lines))

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)


if __name__ == "__main__":
    unittest.main()
