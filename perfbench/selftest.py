"""Toy-size self-check of the benchmark harness, with no timing bounds.

    python3 perfbench/selftest.py

Run from the root of an fllp checkout.  It runs a handful of small jobs
through the same code the benchmark uses and checks the result line's
schema against ``BENCHMARK.json``, that the checker rejects a corrupted
expected output, that the traced run yields every per-layer metric with
linked spans, and that the benchmark refuses to run outside a checkout.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _toy_jobs(work: Path) -> list:
    """Two small jobs of each of the bottomup and topdown workloads."""
    picks = {"model-randprog": 1, "model-randprog-delta": 1, "oneshot-strat": 1, "repl-chain": 1}
    jobs = []
    for workload in ("bottomup", "topdown"):
        for job in workloads.build(workload, 1, work, ROOT):
            if picks.get(job.cls) and (job.cls != "repl-chain" or "chain10" in job.key):
                picks[job.cls] -= 1
                jobs.append(job)
    return jobs


class HarnessSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.work = BENCH / "results" / f"selftest-{os.getpid()}"
        cls.work.mkdir(parents=True)
        cls.jobs = _toy_jobs(cls.work)
        cls.expected = harness.load_expected(BENCH / "expected.json")
        cls.env = harness.child_env(ROOT)
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def run_jobs(self, expected):
        return [harness.run_job(j, self.env, self.work, expected, 30.0) for j in self.jobs]

    def test_result_line_matches_the_declared_end_to_end_metrics(self):
        samples = self.run_jobs(self.expected)
        self.assertEqual([s.status for s in samples], ["ok"] * len(self.jobs))
        refs = [harness.spawn(harness.REFERENCE_ARGV, self.env, self.work / "ref.out")[:2]
                for _ in range(len(samples) + 1)]
        metrics = harness.summarise(harness.at_reference_speed(samples, refs), 0.01, 50.0)
        line = json.loads(harness.result_line(harness.correct(samples), len(samples), 0, metrics))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(line["correct"], True)
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in line["metrics"].items()}, declared)
        self.assertTrue(all(v["value"] > 0 for v in line["metrics"].values()))

    def test_checker_rejects_a_corrupted_expected_output(self):
        corrupted = dict(self.expected)
        corrupted[self.jobs[0].key] = "0" * 20
        samples = self.run_jobs(corrupted)
        self.assertEqual(samples[0].status, "wrong output")
        self.assertFalse(harness.correct(samples))
        del corrupted[self.jobs[0].key]
        self.assertEqual(self.run_jobs(corrupted)[0].status, "no expected output")

    def test_only_known_non_terminating_classes_may_time_out(self):
        hung = [harness.Sample("k", cls, 2.0, 2.0, 1, "timeout")
                for cls in ("query-default", "model-chain")]
        self.assertTrue(harness.correct(hung[:1], workloads.NON_TERMINATING))
        self.assertFalse(harness.correct(hung[1:], workloads.NON_TERMINATING))

    def test_traced_run_reports_every_per_layer_metric(self):
        tr, counts, failed = tracing.traced_pass(self.jobs, self.expected)
        self.assertEqual(failed, [])
        self.assertEqual({s["job"] for s in tr.spans}, set(range(len(self.jobs))))
        ids = {s["id"] for s in tr.spans}
        for span in tr.spans:
            self.assertTrue(span["parent"] is None or span["parent"] in ids)
            self.assertGreaterEqual(tracing.self_ns(span), 0)
        probes = {"interpreter_ms": 1.0, "import_ms": 1.0}
        metrics = tracing.per_layer_metrics([(tr, counts, failed)],
                                            [tracing.untraced_pass(self.jobs)], probes, 0)
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual({k: u for k, (_, u) in metrics.items()}, declared)
        self.assertGreater(metrics["solver.steps"][0], 0)
        self.assertGreater(metrics["fixpoint.instances"][0], 0)

    def test_refuses_to_run_outside_a_checkout(self):
        bare = self.work / "bare"
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "wide", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn("{", out.stdout)


if __name__ == "__main__":
    unittest.main()
