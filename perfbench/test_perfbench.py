"""Tests of the benchmark itself, at smoke size.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root; the first test builds the benchmark.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["replay_demcom", "replay_ramcom", "serve_open", "offline_bound"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace=0, *extra, seed=2020, cwd=ROOT):
    """Runs one smoke-size workload; returns (exit code, result, stdout)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
         "--trace", str(trace), "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stdout


def metric(result, name):
    return result["metrics"][name]["value"]


class SmokeTest(unittest.TestCase):
    def test_every_workload_passes_its_checks_and_prints_every_metric(self):
        for workload in WORKLOADS:
            for trace, table in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, out = run(workload, trace)
                    self.assertEqual(code, 0, out)
                    self.assertTrue(result["correct"], out)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    spec = {m["name"]: m["unit"] for m in SPEC[table]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, spec)
                    if trace == 0:
                        for name in spec:
                            self.assertGreater(metric(result, name), 0, name)

    def test_one_command_runs_every_workload(self):
        code, _, out = run("all")
        self.assertEqual(code, 0, out)
        results = [json.loads(line) for line in out.splitlines()
                   if line.startswith("{")]
        self.assertEqual(len(results), len(WORKLOADS))
        self.assertTrue(all(r["correct"] for r in results), out)

    def test_traced_revenue_is_bit_equal_to_untraced(self):
        for workload in ["replay_demcom", "replay_ramcom"]:
            with self.subTest(workload=workload):
                code, _, out = run(workload, 1)
                self.assertEqual(code, 0, out)
                self.assertIn("check ok: traced revenue", out)


class PinnedRevenueTest(unittest.TestCase):
    def test_wrong_pinned_revenue_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, out = run(workload, 0, "--expect-revenue", "1.5")
                self.assertEqual(code, 1, out)
                self.assertFalse(result["correct"])
                self.assertIn("check FAILED", out)

    def test_unpinned_seed_still_checks_outputs(self):
        code, result, out = run("replay_demcom", 0, seed=7)
        self.assertEqual(code, 0, out)
        self.assertTrue(result["correct"])
        self.assertIn("check ok: AuditSimResult", out)


class OpenLoopTest(unittest.TestCase):
    def test_generator_stall_is_charged_from_the_due_time(self):
        _, calm, out = run("serve_open", 1)
        _, stalled, out_stalled = run("serve_open", 1, "--gen-stall-ms", "300")
        self.assertTrue(calm["correct"], out)
        self.assertTrue(stalled["correct"], out_stalled)
        # Half the reporting rung is due during the stall, so the client p99
        # carries most of the 300 ms the generator slept, and so does the
        # generator's own lateness.
        for name in ["serve.client_p99_us", "serve.gen_late_p99_us"]:
            self.assertLess(metric(calm, name), 100_000, name)
            self.assertGreater(metric(stalled, name), 200_000, name)


class BareCheckoutTest(unittest.TestCase):
    def test_fails_without_the_repository_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result, out = run("replay_demcom", 0, cwd=tmp)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result, out)


if __name__ == "__main__":
    unittest.main()
