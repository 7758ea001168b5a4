#!/usr/bin/env python3
"""The benchmark's own test: the short mode of every workload, traced and
untraced, passes every correctness check and prints exactly the metrics
BENCHMARK.json declares; without the library sources the benchmark fails.

Run from the root of a checkout:  python3 perfbench/test_perfbench.py
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return sorted(m["name"] for m in json.load(f)[section])


def run_quick(workload, trace):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)


class ShortModeTest(unittest.TestCase):
    def check(self, workload, trace):
        result = run_quick(workload, trace)
        self.assertEqual(result.returncode, 0, result.stdout[-2000:])
        line = json.loads(result.stdout.strip().split("\n")[-1])
        self.assertEqual(sorted(line), ["attempted", "correct", "failed",
                                        "metrics"])
        self.assertTrue(line["correct"])
        self.assertEqual(line["failed"], 0)
        self.assertGreater(line["attempted"], 0)
        section = "per_layer" if trace else "end_to_end"
        self.assertEqual(sorted(line["metrics"]), declared(section))
        for name, metric in line["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        if trace:
            self.assertIn("replica (interval)", result.stdout)
        if workload == "release":
            # The bundle bytes of the two rounds were compared.
            self.assertIn("round 1:", result.stdout)
            self.assertIn("bundle bytes: 2 of 2 later-round bundles "
                          "identical", result.stdout)
        return line["metrics"]

    def test_release(self):
        self.check("release", 0)
        metrics = self.check("release", 1)
        self.assertEqual(metrics["fail_pct"]["value"], 0)

    def test_qualify_full(self):
        self.check("qualify-full", 1)

    def test_serve(self):
        self.check("serve", 0)
        first = self.check("serve", 1)
        self.assertGreater(first["service.cache_served"]["value"], 0)
        self.assertEqual(first["net.rejected_busy"]["value"], 0)
        # Exact counts repeat for a seed, whatever the timing.
        second = self.check("serve", 1)
        for name in ["testgen.tests", "analysis.untestable", "fault.scored",
                     "fault.detected", "pipeline.bundle_bytes",
                     "service.predicted", "service.cache_served",
                     "service.batches", "net.frames"]:
            self.assertEqual(first[name]["value"], second[name]["value"],
                             name)


class MissingSourcesTest(unittest.TestCase):
    def test_fails_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_build", "no-sources")
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(BENCH_DIR, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        try:
            result = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "release",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=scratch, env=env, stdout=subprocess.PIPE, text=True,
                timeout=180)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn("\"correct\"", result.stdout)


if __name__ == "__main__":
    unittest.main()
