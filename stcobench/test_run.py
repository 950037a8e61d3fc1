"""Tests of the runner's metric tables and metric derivation, without
building or running the workload binary.

    python3 -m unittest discover -s stcobench -p 'test_*.py'
"""

import argparse
import contextlib
import io
import json
import unittest
from unittest import mock

import run


def delta(counters, hists):
    """An obs delta document as Snapshot::delta_since(...).to_json() writes
    it: unchanged keys are left out."""
    return {"obs_schema_version": 2, "counters": counters, "gauges": {},
            "histograms": {k: {"count": c, "sum": t} for k, (c, t) in hists.items()},
            "spans": {}, "progress": {}}


def raw_result(**over):
    """A minimal result document of the workload binary."""
    raw = {
        "setup_s": [2.0, 1.0, 3.0],
        "run_s": [4.0, 6.0],
        "iter_s": [0.5, 0.1, 0.3],
        "peak_rss_mb": 12.5,
        "attempted": 3,
        "failed": 0,
        "checks": {"a": True},
        "notes": [],
        "decision": {"best_state": 4, "best_cost": 2.5},
        "layer": {"exec.cpu_per_wall": 0.99,
                  "gnn.infer.arena_high_water_bytes": 4096.0},
        "samples": {"flow.build_library_s": [1.0, 3.0, 2.0]},
        "obs": {
            "setup": delta({"gnn.epochs": 36, "stco.evaluations": 1},
                           {"tcad.poisson.iterations": (10, 250.0)}),
            "run": delta({"stco.evaluations": 4, "gnn.infer.graphs": 600}, {}),
        },
        "spans": [["stco.search", 0.0, 5.0, -1], ["stco.cost", 1.0, 4.0, 0]],
    }
    raw.update(over)
    return raw


class TablesTest(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)


class MetricsTest(unittest.TestCase):
    def test_end_to_end_medians_and_counts(self):
        m = run.end_to_end(raw_result())
        self.assertEqual(m["setup_s"], (2.0, "s", 3))
        self.assertEqual(m["run_s"], (5.0, "s", 2))
        self.assertEqual(m["iter_s_p50"], (0.3, "s", 3))
        self.assertEqual(m["peak_rss_mb"], (12.5, "MB", 1))

    def test_per_layer_has_every_metric(self):
        m = run.per_layer(raw_result(), raw_result(run_s=[4.0, 4.0]))
        self.assertEqual(list(m), [name for name, _ in run.PER_LAYER])
        self.assertEqual(m["stco.search_self_s"][0], 2.0)
        self.assertEqual(m["flow.build_library_s_p50"][:2], (2.0, "s"))
        self.assertEqual(m["gnn.epochs"][0], 12.0)          # per set-up
        self.assertEqual(m["gnn.infer.graphs"][0], 150.0)   # per library
        self.assertEqual(m["tcad.poisson.iterations_per_solve"][0], 25.0)
        self.assertEqual(m["gnn.infer.arena_high_water_bytes"][0], 4096.0)
        self.assertAlmostEqual(m["trace.overhead"][0], 0.25)
        self.assertEqual(m["charlib.train_s"][0], 0.0)      # layer not run

    def test_contract_line(self):
        line = json.loads(run.contract_line(True, 3, 0, run.end_to_end(raw_result())))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(line["metrics"]["run_s"], {"value": 5.0, "unit": "s"})


class FailureTest(unittest.TestCase):
    """A run with failures still ends in a contract line, with correct false."""

    def run_single(self, raw):
        args = argparse.Namespace(workload="trad_s386", seed=2, seconds=1, trace=0)
        out = io.StringIO()
        with mock.patch.object(run, "run_child", return_value=raw), \
                contextlib.redirect_stdout(out):
            code = run.single("binary", args, {})
        return code, json.loads(out.getvalue().strip().splitlines()[-1])

    def test_dropped_arcs_are_reported_not_raised(self):
        # One of three evaluations built a library that dropped arcs.
        raw = raw_result(failed=1, checks={"no_dropped_arcs": False},
                         notes=["no_dropped_arcs: 4 dropped"])
        code, line = self.run_single(raw)
        self.assertEqual(code, 1)
        self.assertEqual((line["correct"], line["attempted"], line["failed"]),
                         (False, 3, 1))
        self.assertEqual(set(line["metrics"]), {n for n, _ in run.END_TO_END})

    def test_more_failures_than_attempts_fails_the_checks(self):
        code, line = self.run_single(raw_result(failed=4))
        self.assertEqual(code, 1)
        self.assertFalse(line["correct"])
        self.assertFalse(run.check_result("trad_s386", 2, raw_result(failed=4), {})
                         ["failure_counts_consistent"])


class DecisionTest(unittest.TestCase):
    TABLE = {"trad_s386": {"1": {"best_state": 4, "best_cost": 2.5}}}

    def test_recorded_decision(self):
        ok = run.decision_checks("trad_s386", 1, raw_result(), self.TABLE)
        self.assertEqual(ok, {"matches_recorded_decision": True})
        bad = raw_result(decision={"best_state": 3, "best_cost": 2.5})
        self.assertFalse(run.decision_checks("trad_s386", 1, bad, self.TABLE)
                         ["matches_recorded_decision"])

    def test_unrecorded_seed_adds_no_check(self):
        self.assertEqual(run.decision_checks("trad_s386", 2, raw_result(), self.TABLE), {})


if __name__ == "__main__":
    unittest.main()
