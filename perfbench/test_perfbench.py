#!/usr/bin/env python3
"""The benchmark's own test, on the smoke sizes.

    python3 perfbench/test_perfbench.py

Run from the repository root.  Checks that every metric BENCHMARK.json
names is printed with its unit on every workload, that two simulated runs
with the same seed give identical virtual-time metrics and counts, and that
another seed changes the multitenant arrivals.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# End-to-end metrics that are functions of the seed alone (virtual time).
VIRTUAL_END_TO_END = {
    "paper_nbody": ("tail_ms", "speedup_x", "rate_per_s"),
    "multitenant": ("op_p50_us", "tail_ms", "speedup_x", "rate_per_s"),
}


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


class PerfbenchTest(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    result = run(w["name"], 1, trace)
                    self.assertIs(result["correct"], True)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for name, v in result["metrics"].items():
                            self.assertGreater(v["value"], 0, name)

    def test_simulated_runs_repeat_for_a_seed(self):
        for workload, virtual in VIRTUAL_END_TO_END.items():
            with self.subTest(workload=workload):
                a, b = run(workload, 7, 0), run(workload, 7, 0)
                for name in virtual:
                    self.assertEqual(a["metrics"][name], b["metrics"][name], name)
                ta, tb = run(workload, 7, 1), run(workload, 7, 1)
                self.assertEqual(counts(ta), counts(tb))
                for name in ("sim.events", "kern.alloc_decisions", "core.upcalls"):
                    self.assertIn(name, counts(ta))
                self.assertGreater(counts(ta)["sim.events"], 0)

    def test_seed_changes_multitenant_arrivals(self):
        a = counts(run("multitenant", 7, 1))["traffic.arrivals"]
        b = counts(run("multitenant", 8, 1))["traffic.arrivals"]
        self.assertGreater(a, 0)
        self.assertNotEqual(a, b)


if __name__ == "__main__":
    unittest.main()
