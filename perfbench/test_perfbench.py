#!/usr/bin/env python3
"""Self-tests of the campaign benchmark, on the reduced "small" mix.

    python3 perfbench/test_perfbench.py

Checks that every metric named in BENCHMARK.json prints with its unit on
every workload, that seed 0 reproduces the shipped kernel set, that a
corrupted output or a flipped result bit makes the command exit nonzero,
and that the command refuses to run without the nfpkit sources.
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
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "nfp_perfbench")
WORKLOADS = ("campaign", "estimate_only", "service_sliced")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, seed=5, inject=None, cwd=ROOT, run=RUN):
    cmd = [sys.executable, run, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--mix", "small"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, lines


class Metrics(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            for trace in (0, 1):
                code, result, _ = bench(workload, trace)
                cls.results[workload, trace] = (code, result)

    def test_every_metric_prints_with_its_unit(self):
        for (workload, trace), (code, result) in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(code, 0)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                spec = SPEC["per_layer" if trace else "end_to_end"]
                want = {m["name"]: m["unit"] for m in spec}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)

    def test_end_to_end_metrics_are_nonzero(self):
        for workload in WORKLOADS:
            metrics = self.results[workload, 0][1]["metrics"]
            for name, m in metrics.items():
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(m["value"], 0)

    def test_layer_shares(self):
        layer = {w: {k: v["value"] for k, v in
                     self.results[w, 1][1]["metrics"].items()}
                 for w in WORKLOADS}
        campaign = layer["campaign"]
        self.assertGreater(campaign["board.share"], campaign["iss.share"])
        self.assertEqual(layer["estimate_only"]["board.s"], 0)
        for w in WORKLOADS:
            for name in ("checkpoint.saves", "checkpoint.bytes",
                         "checkpoint.save_s", "checkpoint.restore_s"):
                with self.subTest(workload=w, metric=name):
                    if w == "service_sliced":
                        self.assertGreater(layer[w][name], 0)
                    else:
                        self.assertEqual(layer[w][name], 0)


class Correctness(unittest.TestCase):
    def test_seed0_reproduces_the_shipped_jobs(self):
        self.assertEqual(bench("estimate_only", 0)[0], 0)  # builds
        proc = subprocess.run([BINARY, "--check-seed0"], capture_output=True,
                              text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("120 of 120", proc.stdout)

    def test_injected_faults_fail_the_run(self):
        for workload, trace, inject in [
                ("campaign", 1, "corrupt-output"),
                ("service_sliced", 1, "flip-record"),
                ("campaign", 0, "flip-record"),
                ("estimate_only", 0, "corrupt-output")]:
            with self.subTest(workload=workload, trace=trace, inject=inject):
                code, result, _ = bench(workload, trace, inject=inject)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])

    def test_accuracy_repeats_exactly_for_one_seed(self):
        names = [m["name"] for m in SPEC["end_to_end"] if "_err_" in m["name"]]
        runs = [bench("estimate_only", 0, seed=9)[1]["metrics"]
                for _ in range(2)]
        for name in names:
            self.assertEqual(runs[0][name]["value"], runs[1][name]["value"])

    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, result, lines = bench(
                "campaign", 0, cwd=bare,
                run=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(code, 0)
            self.assertEqual(lines, [])
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
