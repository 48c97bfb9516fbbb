#!/usr/bin/env python3
"""Tests of the host sim-rate benchmark itself.

    python3 hostbench/test_bench.py

Builds the benchmark through run.py, runs every workload at full size
in both modes with a short --seconds (the untraced run still makes 3
repetitions, the traced run one pass), and checks that:
  - the traced and untraced passes report identical simulated counters
    (the printed counters digest covers every CmpSystem::report() entry
    plus cycles and instructions);
  - every timed CmpSystem::access call was filed under exactly one
    access class (the classified calls in the trace file equal the
    stream records replayed), and core.<class>.ns weighted by
    class.<class> sums to core.access_ns;
  - every metric BENCHMARK.json names is emitted, with its unit, for
    every workload, and nothing else is;
  - a directory holding only BENCHMARK.json and the benchmark exits
    non-zero without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CLASSES = ["l1_hit", "l2_hit", "upgrade", "two_hop", "three_hop", "memory",
           "corrupted"]
# Where run.py has the binary write its trace files.
OUT_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                       or ".bench_build", "hostbench", "out")


def run_bench(workload, trace, cwd=ROOT, seed="3"):
    args = [sys.executable, RUN, "--workload", workload, "--seed", seed,
            "--seconds", "0.2", "--trace", str(trace)]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = None
    for line in lines:
        m = re.match(r"counters digest: ([0-9a-f]+)$", line)
        if m:
            digest = m.group(1)
    return result, digest


class BenchmarkTest(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS:
            for trace in (0, 1):
                proc = run_bench(w, trace)
                if proc.returncode != 0:
                    raise AssertionError(
                        f"{w} --trace {trace} exited {proc.returncode}:\n"
                        + proc.stderr[-4000:])
                cls.runs[(w, trace)] = parse(proc)

    def test_operations_pass(self):
        for (w, trace), (res, _) in self.runs.items():
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(set(res), {"correct", "attempted",
                                            "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)

    def test_traced_and_untraced_counters_identical(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                untraced = self.runs[(w, 0)][1]
                traced = self.runs[(w, 1)][1]
                self.assertIsNotNone(untraced)
                self.assertEqual(untraced, traced)

    def test_every_call_classified_once(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                with open(os.path.join(OUT_DIR, f"trace-{w}.json")) as f:
                    trace = json.load(f)
                rows = trace["class_counts"]
                self.assertNotIn("unclassified", rows)
                self.assertGreater(trace["timed_records"], 0)
                self.assertEqual(sum(r["calls"] for r in rows.values()),
                                 trace["timed_records"])
                self.assertEqual(
                    trace["histograms"]["CmpSystem::access"]["count"],
                    trace["timed_records"])

    def test_class_ns_sum_to_access_ns(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                m = {k: v["value"]
                     for k, v in self.runs[(w, 1)][0]["metrics"].items()}
                total = sum(m[f"core.{c}.ns"] * m[f"class.{c}"] / 1000.0
                            for c in CLASSES)
                self.assertGreater(m["core.access_ns"], 0.0)
                self.assertAlmostEqual(total / m["core.access_ns"], 1.0,
                                       places=9)
                mix = sum(m[f"class.{c}"] for c in CLASSES)
                self.assertAlmostEqual(mix, 1000.0, places=6)

    def test_every_metric_emitted_with_unit(self):
        for key, trace in (("end_to_end", 0), ("per_layer", 1)):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in WORKLOADS:
                with self.subTest(workload=w, metrics=key):
                    got = self.runs[(w, trace)][0]["metrics"]
                    self.assertEqual(set(got), set(want))
                    for name, unit in want.items():
                        self.assertEqual(got[name]["unit"], unit, name)
                        self.assertIsInstance(got[name]["value"],
                                              (int, float))

    def test_end_to_end_metrics_nonzero(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                for name, v in self.runs[(w, 0)][0]["metrics"].items():
                    self.assertGreater(v["value"], 0.0, name)

    def test_layer_separation(self):
        def metric(w, name):
            return self.runs[(w, 1)][0]["metrics"][name]["value"]
        for w in WORKLOADS:
            verify = metric(w, "verify.self_share")
            if w == "fuzz15-lockstep":
                self.assertGreater(verify, 0.0)
                self.assertGreater(metric(w, "snapshot.save_ms"), 0.0)
            else:
                self.assertEqual(verify, 0.0)
                self.assertEqual(metric(w, "snapshot.save_ms"), 0.0)

    def test_bare_directory_fails_without_result(self):
        bare = os.path.join(ROOT, ".bench_build", "hostbench-test-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            [sys.executable, os.path.join("hostbench", "run.py"),
             "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
