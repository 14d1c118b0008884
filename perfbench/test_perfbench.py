#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does), runs the C++ self-test (tail
percentile rule, open-loop timing from due time under an injected generator
stall, seed determinism of every input) and checks that the metric names the
program declares and emits are exactly those in BENCHMARK.json.
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py)


def declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(["csq_perfbench", "csq_perfbench_selftest"])
        cls.binary = os.path.join(run.BUILD, "csq_perfbench")

    def test_selftest(self):
        out = subprocess.run([os.path.join(run.BUILD, "csq_perfbench_selftest")],
                             capture_output=True, text=True, timeout=120)
        sys.stdout.write(out.stdout)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)

    def test_declared_names_match_benchmark_json(self):
        out = subprocess.run([self.binary, "list-metrics"], capture_output=True,
                             text=True, check=True).stdout.split("\n")
        e2e = {line.split()[1] for line in out if line.startswith("end_to_end ")}
        layer = {line.split()[1] for line in out if line.startswith("per_layer ")}
        want_e2e, want_layer, workloads = declared()
        self.assertEqual(e2e, set(want_e2e))
        self.assertEqual(layer, set(want_layer))
        self.assertEqual(set(workloads), set(run.WORKLOADS))

    def test_emitted_names_and_units_match_benchmark_json(self):
        want_e2e, want_layer, _ = declared()
        for trace, want in ((0, want_e2e), (1, want_layer)):
            out = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
                 "infer_batch", "--seed", "1", "--seconds", "2", "--trace",
                 str(trace)], cwd=run.ROOT, capture_output=True, text=True,
                timeout=170)
            self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, want)


if __name__ == "__main__":
    unittest.main()
