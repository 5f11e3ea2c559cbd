#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of arbiter).

    python3 perfbench/tests/test_perfbench.py

Builds the driver like run.py does, then checks that
  * one seed always produces byte-identical request streams (and another
    seed a different one),
  * the replay check rejects a deliberately corrupted reply, and a run
    against a belief_serve whose result cache holds one wrong value,
  * quick mode runs every workload, end to end and traced, in seconds,
    printing every metric BENCHMARK.json names with its unit,
  * the comparison tool flags a regression and passes identical runs.
"""

import json
import os
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
DRIVER, SERVER = run.build()


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py")] + list(args),
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def run_driver(server, *args):
    """A quick one-second hot_repeat end-to-end run of the driver itself,
    for the self-test's fault-injection options."""
    proc = subprocess.run(
        [DRIVER, "--server", server, "--workload", "hot_repeat", "--quick",
         "--seconds", "1", "--socket-dir",
         os.path.relpath(run.BUILD_DIR, ROOT)] + list(args),
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def stream(workload, seed):
    return subprocess.run(
        [DRIVER, "--mode", "stream", "--workload", workload, "--seed",
         str(seed), "--count", "200"],
        capture_output=True, check=True, timeout=60).stdout


class StreamDeterminism(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = stream(workload, 7)
                self.assertGreater(len(first), 1000)
                self.assertEqual(first, stream(workload, 7))
                self.assertNotEqual(first, stream(workload, 8))


class ReplayCheck(unittest.TestCase):
    def test_clean_run_passes(self):
        code, lines = run_driver(SERVER)
        self.assertEqual(code, 0)
        self.assertTrue(json.loads(lines[-1])["correct"])

    def test_corrupted_reply_is_rejected(self):
        code, lines = run_driver(SERVER, "--corrupt-seq", "3")
        self.assertNotEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        check = json.loads(lines[-2])["check"]
        self.assertEqual(check["mismatches"], 1)

    def test_wrong_cached_result_is_rejected(self):
        # The replay runs without a cache, so a wrong value the server's
        # cache serves cannot be reproduced by the check.
        subprocess.run(["cmake", "--build", run.BUILD_DIR, "--target",
                        "belief_serve_poisoned"], stdout=subprocess.DEVNULL,
                       check=True, timeout=600)
        poisoned = os.path.join(run.BUILD_DIR, "belief_serve_poisoned")
        code, lines = run_driver(poisoned)
        self.assertNotEqual(code, 0)
        self.assertFalse(json.loads(lines[-1])["correct"])
        self.assertGreater(json.loads(lines[-2])["check"]["mismatches"], 0)


class QuickMode(unittest.TestCase):
    def check_result(self, lines, metrics):
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            value = result["metrics"][m["name"]]
            self.assertEqual(value["unit"], m["unit"], m["name"])
            self.assertIsInstance(value["value"], (int, float), m["name"])
        context = json.loads(lines[-2])["context"]
        for key in ("commit", "build_type", "nproc", "lock_rank_enabled",
                    "sanitizer", "arbiter_threads", "cache_capacity", "seed",
                    "clients_per_workload", "comparable"):
            self.assertIn(key, context)

    def test_every_workload_end_to_end_and_traced(self):
        start = time.monotonic()
        for workload in run.WORKLOADS:
            for trace, metrics in (("0", SPEC["end_to_end"]),
                                   ("1", SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, lines = run_bench("--workload", workload, "--quick",
                                            "--seconds", "1", "--trace", trace)
                    self.assertEqual(code, 0)
                    self.check_result(lines, metrics)
                    if trace == "0":  # end-to-end metrics are never 0
                        for m in metrics:
                            self.assertGreater(
                                json.loads(lines[-1])["metrics"][m["name"]]["value"], 0)
        self.assertLess(time.monotonic() - start, 120)

    def test_traced_run_accounts_for_pass2_wall_time(self):
        code, lines = run_bench("--workload", "cold_solve", "--quick",
                                "--seconds", "1", "--trace", "1")
        self.assertEqual(code, 0)
        detail = json.loads(lines[-2])
        check = detail["check"]
        self.assertEqual(check["mismatches"], 0)
        self.assertEqual(check["apply_cache_misses"], 0)
        metrics = json.loads(lines[-1])["metrics"]
        wall = metrics["trace.pass2_wall_ms"]["value"]
        total = sum(detail["pass2_self_ms"].values())
        self.assertAlmostEqual(total, wall, delta=1e-6 * wall)
        # The spans, not the remainder, account for the time.
        self.assertLess(detail["pass2_self_ms"]["unattributed"], 0.1 * wall)
        self.assertGreater(metrics["change.backend_ms"]["value"], 0)


class Compare(unittest.TestCase):
    def write_runs(self, directory, values):
        os.makedirs(directory)
        for seed, value in enumerate(values):
            metrics = {m["name"]: {"value": value, "unit": m["unit"]}
                       for m in SPEC["end_to_end"]}
            context = {"context": {"workload": "hot_repeat", "mode": "e2e",
                                   "seed": seed, "comparable": True}}
            with open(os.path.join(directory, "run%d.out" % seed), "w") as fh:
                fh.write(json.dumps(context) + "\n")
                fh.write(json.dumps({"correct": True, "attempted": 1,
                                     "failed": 0, "metrics": metrics}) + "\n")

    def test_identical_runs_pass_and_regression_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
            self.write_runs(os.path.join(tmp, "parent"), base)
            self.write_runs(os.path.join(tmp, "same"), base)
            self.write_runs(os.path.join(tmp, "worse"), [v * 2 for v in base])
            same = compare.compare(os.path.join(tmp, "parent"),
                                   os.path.join(tmp, "same"), SPEC)
            self.assertFalse(any(r["verdict"] == "regressed" for r in same))
            worse = compare.compare(os.path.join(tmp, "parent"),
                                    os.path.join(tmp, "worse"), SPEC)
            verdicts = {r["metric"]: r["verdict"] for r in worse}
            # Doubling a lower-is-better time regresses it; doubling a
            # higher-is-better rate improves it.
            self.assertEqual(verdicts["read_p50_ms"], "regressed")
            self.assertEqual(verdicts["throughput_rps"], "improved")


if __name__ == "__main__":
    unittest.main(verbosity=2)
