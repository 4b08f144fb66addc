#!/usr/bin/env python3
"""Tests of the pcmbench benchmark itself.

    python3 pcmbench/tests/test_pcmbench.py

Builds pcmbench and its oracle unit tests (through run.py's build step),
then checks that
  * the oracle unit tests pass (each check fires on an injected mismatch);
  * every metric BENCHMARK.json names is printed, with its unit, in the
    untraced (end-to-end) and the traced (per-layer) run of every workload;
  * no call fails at the default seed or at a held-out seed;
  * a perturbed result makes the run report failures and exit non-zero;
  * the same seed twice gives the same digest and the same exact counts.
Runs take about three minutes on a 4-core machine.
"""
import importlib.util
import json
import os
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

_spec = importlib.util.spec_from_file_location("pcmbench_run", os.path.join(ROOT, "pcmbench", "run.py"))
run_py = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_py)

DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017
# Per-layer metrics that are exact counts: identical on every run of a seed.
EXACT_COUNTS = [
    "sim.flit_hops", "sim.cycles", "sim.conflict_cycles", "sim.msgs_dropped",
    "sim.reserve_events", "sim.blocked_events", "sim.contended_runs_frac",
    "sim.ff_cycles_frac", "runtime.msgs", "runtime.retries", "runtime.epochs",
    "runtime.stale_acks", "runtime.failovers", "runtime.rejoins",
    "runtime.max_window_occupancy", "runtime.useful_msg_frac", "lint.sends",
    "lint.contended_frac", "lint.stream_symbolic_frac", "obs.events",
]


def bench(binary, workload, seed, trace, *extra):
    """Runs the benchmark for one second; returns (rc, stdout lines, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def digest(lines):
    return next(line for line in lines if line.startswith("digest:"))


class PcmbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run_py.build("pcmbench")
        cls.unit_tests = run_py.build("pcmbench_tests")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def test_oracle_unit_tests(self):
        proc = subprocess.run([self.unit_tests], capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])

    def test_workloads_match_run_py(self):
        self.assertEqual(sorted(self.workloads), sorted(run_py.WORKLOADS))

    def check_metrics(self, result, wanted):
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(m["name"] for m in wanted))
        for m in wanted:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float), m["name"])

    def test_every_metric_printed_and_no_failures_at_both_seeds(self):
        for workload in self.workloads:
            for seed, trace in ((DEFAULT_SEED, 0), (HELD_OUT_SEED, 0), (HELD_OUT_SEED, 1)):
                with self.subTest(workload=workload, seed=seed, trace=trace):
                    rc, _, result = bench(self.binary, workload, seed, trace)
                    self.assertEqual(rc, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, self.spec["per_layer" if trace else "end_to_end"])
                    if not trace:
                        for m in self.spec["end_to_end"]:
                            self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_perturbed_results_are_flagged(self):
        for workload, field in (("paper_mix", "latency"), ("stream_clean", "commit_time"),
                                ("stream_faulty", "prefix"), ("static_screen", "makespan")):
            with self.subTest(workload=workload, field=field):
                rc, _, result = bench(self.binary, workload, DEFAULT_SEED, 0, "--perturb", field)
                self.assertNotEqual(rc, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_same_seed_same_digest_and_counts(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                _, lines_a, a = bench(self.binary, workload, DEFAULT_SEED, 1)
                _, lines_b, b = bench(self.binary, workload, DEFAULT_SEED, 1)
                self.assertEqual(digest(lines_a), digest(lines_b))
                for name in EXACT_COUNTS:
                    self.assertEqual(a["metrics"][name]["value"], b["metrics"][name]["value"], name)


if __name__ == "__main__":
    unittest.main()
