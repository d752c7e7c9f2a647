#!/usr/bin/env python3
"""Tests of the benchmark's own rules.

    python3 perfbench/test_perfbench.py

Covers the percentile-sample rule, failure accounting, CLI hygiene,
BENCHMARK.json's agreement with what the driver reports, and — by
running the real driver — that a deliberately corrupted expected oracle
digest counts as a failed operation and makes the command exit
non-zero. The driver test builds the benchmark on first use.
"""

import importlib.util
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

_spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def invoke(*args):
    return subprocess.run([sys.executable, RUN, *args], capture_output=True,
                          text=True, cwd=ROOT, timeout=900)


class PercentileSampleRule(unittest.TestCase):
    def test_minimum_counts(self):
        self.assertEqual(run.min_samples(0.5), 20)
        self.assertEqual(run.min_samples(0.9), 100)
        self.assertEqual(run.min_samples(0.99), 1000)

    def test_refuses_short_series(self):
        self.assertIsNone(run.percentile(list(range(999)), 0.99))
        self.assertIsNone(run.percentile(list(range(99)), 0.9))
        self.assertIsNone(run.percentile(list(range(19)), 0.5))

    def test_values_at_threshold(self):
        self.assertEqual(run.percentile(list(range(1, 21)), 0.5), 10.5)
        self.assertAlmostEqual(run.percentile(list(range(1000)), 0.99),
                               989.01, places=6)
        self.assertAlmostEqual(run.percentile(list(range(100)), 0.9),
                               89.1, places=6)

    def test_short_series_fails_the_run(self):
        doc = {"attempted": 5, "failed": 0,
               "series": {"setup_s": [1.0], "op_us": [1.0] * 999},
               "values": {"peak_rss_mb": 1.0, "app_mips": 1.0}}
        res = run.summarize(doc, SPEC, "served", 0)
        self.assertFalse(res.correct)
        self.assertEqual(res.failed, 1)
        self.assertIn("verb_p99_us", res.failures[0])
        lat = dict((n, v) for n, v, _, _ in run.latencies(doc, "served"))
        self.assertIsNone(lat["verb_p99_us"])
        self.assertEqual(lat["verb_p50_us"], 1.0)


class FailureAccounting(unittest.TestCase):
    def doc(self, **kw):
        d = {"attempted": 10, "failed": 0, "failures": [],
             "series": {"setup_s": [0.5, 0.6, 0.7],
                        "op_us": [float(i + 1) for i in range(2000)]},
             "values": {"peak_rss_mb": 10.0, "app_mips": 3.0}}
        d.update(kw)
        return d

    def test_clean_run(self):
        res = run.summarize(self.doc(), SPEC, "served", 0)
        self.assertTrue(res.correct)
        self.assertEqual((res.attempted, res.failed), (10, 0))
        self.assertEqual(set(res.metrics),
                         {m["name"] for m in SPEC["end_to_end"]})
        line = json.loads(res.line())
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})

    def test_driver_failures_propagate(self):
        res = run.summarize(self.doc(failed=2, failures=["a", "b"]), SPEC,
                            "served", 0)
        self.assertFalse(res.correct)
        self.assertEqual((res.attempted, res.failed), (10, 2))

    def test_missing_metric_counts_as_failed(self):
        d = self.doc()
        del d["values"]["app_mips"]
        res = run.summarize(d, SPEC, "served", 0)
        self.assertFalse(res.correct)
        self.assertEqual((res.attempted, res.failed), (11, 1))

    def test_zero_metric_counts_as_failed(self):
        d = self.doc()
        d["values"]["app_mips"] = 0.0
        self.assertFalse(run.summarize(d, SPEC, "served", 0).correct)

    def test_missing_per_layer_metric(self):
        values = {m["name"]: 1.0 for m in SPEC["per_layer"]}
        self.assertTrue(run.summarize({"attempted": 1, "values": values},
                                      SPEC, "served", 1).correct)
        del values["ladder.total_ns"]
        self.assertFalse(run.summarize({"attempted": 1, "values": values},
                                       SPEC, "served", 1).correct)

    def test_nothing_attempted_is_not_correct(self):
        self.assertFalse(run.Result().correct)


class CommandLine(unittest.TestCase):
    def test_help(self):
        p = invoke("--help")
        self.assertEqual(p.returncode, 0)
        self.assertIn("usage:", p.stdout)

    def test_bad_flags_are_one_line_errors(self):
        for args in (["--bogus"], ["--workload", "nope", "--seed", "1",
                                   "--seconds", "1"],
                     ["--workload", "served", "--seed", "x",
                      "--seconds", "1"],
                     ["--workload", "served", "--seed", "1"],
                     ["--workload", "served", "--seed", "1",
                      "--seconds", "31"],
                     ["--workload", "served", "--seed", "1", "--seconds",
                      "1", "--trace", "2"]):
            p = invoke(*args)
            self.assertNotEqual(p.returncode, 0, args)
            self.assertEqual(p.stdout, "", args)
            self.assertEqual(len(p.stderr.strip().splitlines()), 1, args)


class Spec(unittest.TestCase):
    def test_keys_and_names(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual(set(run.LATENCIES), set(run.WORKLOADS))
        names = [m["name"] for k in ("end_to_end", "per_layer")
                 for m in SPEC[k]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", names)
        self.assertEqual(set(run.end_to_end({})),
                         {m["name"] for m in SPEC["end_to_end"]})


class Oracle(unittest.TestCase):
    def test_corrupted_expected_digest_fails(self):
        p = invoke("--workload", "served", "--seed", "3", "--seconds", "1",
                   "--corrupt-digest")
        self.assertNotEqual(p.returncode, 0)
        line = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertFalse(line["correct"])
        self.assertGreaterEqual(line["failed"], 1)
        self.assertIn("oracle mismatch", p.stdout)

    def test_clean_run_passes(self):
        # Long enough for the 1000 samples the p99 needs.
        p = invoke("--workload", "served", "--seed", "3", "--seconds", "10")
        self.assertEqual(p.returncode, 0, p.stdout[-2000:])
        line = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertTrue(line["correct"])
        self.assertEqual(line["failed"], 0)


if __name__ == "__main__":
    unittest.main()
