#!/usr/bin/env python3
"""Tests of the repository benchmark (perfbench/run.py).

    python3 perfbench/test_perfbench.py

Runs the tiny mode of every workload through the real entry point and
checks that the last output line parses, that its metric names and
units are exactly those BENCHMARK.json lists, that every leg passes its
checks, and that the simulated outputs are deterministic for a seed.
Builds the benchmark on first use, like run.py itself.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# Every workload the measuring program offers: BENCHMARK.json's, plus
# the two colocated ones, which stay runnable by hand (see README.md).
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + [
    "colocated", "colocated_hashed"]

# Per-layer metrics that are exact functions of the simulated run (stat
# registry counts and model outputs), so they must repeat bit for bit.
EXACT = [m["name"] for m in SPEC["per_layer"]
         if m["name"].startswith(("model.", "tlb.l1", "tlb.l2", "tlb.pwc",
                                  "tlb.nested", "mmu.walks",
                                  "mmu.host_walks", "cache.l1",
                                  "cache.memory", "cache.accesses",
                                  "mem.buddy_calls", "mem.failed",
                                  "core.part_hit", "vm.faults",
                                  "vm.write_faults", "host.", "obs.",
                                  "sim.batched"))]

# alloc_sweep touches its pages in order and stress-ng's allocate/touch/
# free cycle draws nothing random, so every seed gives the same run.
SEED_FREE = {"fault_storm"}


def run(workload, seed, trace, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed",
         str(seed), "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


def result_of(proc):
    lines = proc.stdout.strip().split("\n")
    return json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    def check_result(self, result, trace):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 3)  # reference + pair
        key = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, 5, 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.check_result(result, 0)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0.0, name)

    def test_traced_metrics_are_deterministic(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = result_of(run(workload, 7, 1))
                second = result_of(run(workload, 7, 1))
                self.check_result(first, 1)
                self.check_result(second, 1)
                for name in EXACT:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)
                other = result_of(run(workload, 8, 1))
                digest = "model.snapshot_digest"
                if workload in SEED_FREE:
                    self.assertEqual(first["metrics"][digest]["value"],
                                     other["metrics"][digest]["value"])
                else:
                    self.assertNotEqual(first["metrics"][digest]["value"],
                                        other["metrics"][digest]["value"],
                                        "the seed must change the inputs")

    def test_unknown_workload_fails_without_result(self):
        proc = run("no_such_workload", 1, 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_bare_directory_fails_without_result(self):
        # Only BENCHMARK.json and perfbench/: no sources to build.
        bare = os.path.join(ROOT, ".bench_build", "bare-test")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(WORKLOADS[0], 1, 0, cwd=bare,
                       script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
