#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds ask_perf as run.py does, then checks on runs of the minimum
length (--seconds 0) that
 - every workload's traced run accounts for its wall time (conservation)
   and matches the untraced run's simulated results and counters
   (the timing switch wrapper changes no behaviour);
 - one seed gives identical simulated metrics and counter digest twice,
   and a held-out seed passes the correctness check with other inputs;
 - the benchmark fails without printing a result when the sources it
   builds from are missing.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ("zipf-swap", "fabric-uniform", "text-lossy")
SIM_METRICS = ("sim_goodput_gbps", "sim_jct_ms_p50", "sim_jct_ms_p90",
               "switch_agg_pct")


class PerfbenchTest(unittest.TestCase):
    exe = None
    tmp = None

    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()
        if cls.exe is None:
            raise RuntimeError("ask_perf did not build")
        cls.tmp = os.path.join(run.ROOT, ".bench_build", "test")
        shutil.rmtree(cls.tmp, ignore_errors=True)
        os.makedirs(cls.tmp)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def ask_perf(self, workload, seed, trace):
        """Run ask_perf; returns (result JSON, stdout text, report JSON)."""
        out_dir = os.path.join(self.tmp, f"{workload}-{seed}-{trace}")
        done = subprocess.run(
            [self.exe, "--workload", workload, "--seed", str(seed),
             "--seconds", "0", "--trace", str(trace), "--out-dir", out_dir],
            capture_output=True, text=True, timeout=170)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        path = os.path.join(
            out_dir, f"report-{workload}-seed{seed}-trace{trace}.json")
        with open(path) as f:
            report = json.load(f)
        return result, done.stdout, report

    def test_traced_run_conserves_time_and_behaviour(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, stdout, report = self.ask_perf(workload, 7, 1)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                # Conservation: the tolerance is the benchmark's own.
                m = re.search(r"conservation \(spans cover the run within "
                              r"([0-9.]+) %\): ok", stdout)
                self.assertIsNotNone(m, stdout)
                tolerance = float(m.group(1))
                self.assertEqual(tolerance,
                                 100.0 * report["conservation_tolerance"])
                unattributed = result["metrics"]["trace.unattributed_pct"]
                self.assertLessEqual(abs(unattributed["value"]), tolerance)
                # Behaviour identity: same digest of simulated results and
                # counters with and without the timing wrapper.
                self.assertTrue(report["behaviour_identical"])
                self.assertEqual(report["traced_sim_digest"],
                                 report["sim_digest"])

    def test_seed_determinism_and_held_out_seed(self):
        first, _, rep1 = self.ask_perf("zipf-swap", 3, 0)
        again, _, rep2 = self.ask_perf("zipf-swap", 3, 0)
        other, _, rep3 = self.ask_perf("zipf-swap", 4, 0)
        for name in SIM_METRICS:
            self.assertEqual(first["metrics"][name], again["metrics"][name],
                             name)
        self.assertEqual(rep1["sim_digest"], rep2["sim_digest"])
        self.assertEqual(rep1["sim_jct_ms"], rep2["sim_jct_ms"])
        # The held-out seed is checked like any other and changes inputs.
        self.assertTrue(other["correct"])
        self.assertNotEqual(rep3["sim_digest"], rep1["sim_digest"])
        self.assertNotEqual(rep3["sim_jct_ms"], rep1["sim_jct_ms"])

    def test_fails_without_sources(self):
        repo = run.ROOT
        bare = os.path.join(self.tmp, "bare")
        shutil.copytree(run.PACKAGE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(repo, "BENCHMARK.json"), bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "zipf-swap",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
