#!/usr/bin/env python3
"""Tests of the benchmark's output check and result format (no build needed).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import copy
import json
import re
import unittest
from pathlib import Path

import run

GOLDEN = json.loads((run.BENCH_DIR / "golden.json").read_text())
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def sample_for(workload, counters=None, exit_code=0, failures=(), attempted=None):
    """A child sample as run_child builds it, reporting the golden counters."""
    counters = copy.deepcopy(GOLDEN[workload]["counters"] if counters is None else counters)
    units = int(counters.get("units", 1))
    report = {
        "attempted": attempted if attempted is not None else units,
        "failed": len(failures), "failures": list(failures), "counters": counters,
        "setup_s": "0.5", "run_s": "2.0",
        "layers": {"campaign.unit_wall_p50_s": 0.7, "surf.solve_calls": 5, "surf.solve_s": 0.1},
    }
    spans = [{"name": "proc.exec", "start": 0, "end": "0.001", "parent": None},
             {"name": "trace.replay", "start": "0.5", "end": "2.5", "parent": None},
             {"name": "proc.exit", "start": 2.5, "end": 2.6, "parent": None}]
    return {"exit": exit_code, "wall_s": 2.6, "traced": False, "user_s": 2.0, "sys_s": 0.5,
            "minflt": 1000, "peak_rss_mb": 100.0, "probe_ms": 250.0, "unaccounted_s": 0.5,
            "spans": spans, "report": report}


def check(sample, workload, seed=None, generated=None, reference=None):
    seed = GOLDEN[workload]["seed"] if seed is None else seed
    return run.check_sample(sample, workload, seed, GOLDEN, generated, reference)


class GoldenCheck(unittest.TestCase):
    def test_golden_counters_pass(self):
        for workload in run.WORKLOADS:
            sample = sample_for(workload)
            attempted, failed, messages = check(sample, workload)
            self.assertEqual(failed, 0, messages)
            self.assertGreaterEqual(attempted, 1)

    def test_perturbed_sim_time_fails(self):
        for workload in ("stencil_replay_1024", "bcast_online_1024"):
            counters = copy.deepcopy(GOLDEN[workload]["counters"])
            text = counters["sim_time"]
            counters["sim_time"] = text[:-1] + str((int(text[-1]) + 1) % 10)
            attempted, failed, messages = check(sample_for(workload, counters), workload)
            self.assertEqual(failed, attempted)
            self.assertTrue(any("sim_time" in m for m in messages), messages)

    def test_perturbed_counter_fails(self):
        for workload in run.WORKLOADS:
            counters = copy.deepcopy(GOLDEN[workload]["counters"])
            counters["surf.solves"] += 1
            attempted, failed, _ = check(sample_for(workload, counters), workload)
            self.assertEqual(failed, attempted, workload)

    def test_perturbed_campaign_unit_fails(self):
        counters = copy.deepcopy(GOLDEN["contention_campaign"]["counters"])
        counters["unit_sim_times"][3] = "0.5"
        attempted, failed, _ = check(sample_for("contention_campaign", counters),
                                     "contention_campaign")
        self.assertEqual((attempted, failed), (8, 8))

    def test_bcast_pins_hold_for_every_seed(self):
        counters = copy.deepcopy(GOLDEN["bcast_online_1024"]["counters"])
        counters["smpi.pool_misses"] -= 1
        _, failed, _ = check(sample_for("bcast_online_1024", counters), "bcast_online_1024",
                             seed=12345)
        self.assertEqual(failed, 1)

    def test_bcast_anchor(self):
        self.assertEqual(
            "%.9f" % float(GOLDEN["bcast_online_1024"]["counters"]["sim_time"]), run.BCAST_ANCHOR)

    def test_other_seed_checks_invariants_only(self):
        counters = copy.deepcopy(GOLDEN["stencil_replay_1024"]["counters"])
        counters["sim_time"] = "0.1"
        sample = sample_for("stencil_replay_1024", counters)
        _, failed, _ = check(sample, "stencil_replay_1024", seed=12345,
                             generated=counters["trace.records"])
        self.assertEqual(failed, 0)
        _, failed, messages = check(sample, "stencil_replay_1024", seed=12345,
                                    generated=counters["trace.records"] + 1)
        self.assertEqual(failed, 1)
        self.assertTrue(any("records" in m for m in messages), messages)


class FailureAccounting(unittest.TestCase):
    def test_children_must_agree(self):
        sample = sample_for("stencil_replay_1024")
        reference = copy.deepcopy(sample["report"]["counters"])
        reference["smpi.pool_hits"] += 1
        _, failed, messages = check(sample, "stencil_replay_1024", seed=7, reference=reference)
        self.assertEqual(failed, 1)
        self.assertTrue(any("first child" in m for m in messages), messages)

    def test_nonzero_exit_fails(self):
        _, failed, _ = check(sample_for("stencil_replay_1024", exit_code=2), "stencil_replay_1024")
        self.assertEqual(failed, 1)

    def test_missing_report_fails(self):
        sample = sample_for("bcast_online_1024", exit_code=-9)
        sample["report"] = None
        self.assertEqual(check(sample, "bcast_online_1024")[:2], (1, 1))

    def test_child_reported_failures_count(self):
        sample = sample_for("contention_campaign", exit_code=1,
                            failures=["unit 1/2 was retried or timed out"])
        attempted, failed, _ = check(sample, "contention_campaign")
        self.assertEqual((attempted, failed), (8, 1))
        metrics = run.end_to_end([sample], "contention_campaign", attempted, failed)
        self.assertAlmostEqual(metrics["ok_frac"], 7 / 8)


class RunWindow(unittest.TestCase):
    def test_next_child_must_end_within_the_window(self):
        self.assertTrue(run.window_has_room(30.0, [3.0, 2.0, 2.5], 40))
        self.assertTrue(run.window_has_room(37.5, [3.0, 2.0, 2.5], 40))
        self.assertFalse(run.window_has_room(37.6, [3.0, 2.0, 2.5], 40))


class ResultFormat(unittest.TestCase):
    def test_benchmark_json_contract(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        names = [m["name"] for k in ("workloads", "end_to_end", "per_layer") for m in SPEC[k]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_every_end_to_end_metric_is_reported_and_nonzero(self):
        expected = [m["name"] for m in SPEC["end_to_end"]]
        for workload in run.WORKLOADS:
            metrics = run.end_to_end([sample_for(workload)], workload, 1, 0)
            self.assertEqual(list(metrics), expected)
            self.assertTrue(all(v > 0 for v in metrics.values()), metrics)

    def test_every_per_layer_metric_is_reported(self):
        expected = {m["name"] for m in SPEC["per_layer"]}
        for workload in run.WORKLOADS:
            traced = sample_for(workload)
            traced["traced"] = True
            metrics = run.per_layer([traced], [sample_for(workload)], workload, {}, 0)
            self.assertEqual(set(metrics), expected)

    def test_inputs_follow_the_seed(self):
        for workload in run.WORKLOADS:
            self.assertEqual(run.make_inputs(workload, 3), run.make_inputs(workload, 3))
        for workload in ("stencil_replay_1024", "contention_campaign"):
            self.assertNotEqual(run.make_inputs(workload, 3), run.make_inputs(workload, 4))

    def test_result_line_is_last_and_parseable(self):
        import contextlib
        import io
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": run.end_to_end([sample_for("bcast_online_1024")],
                                            "bcast_online_1024", 1, 0)}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run.print_result(result, "end_to_end")
        last = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        for value in last["metrics"].values():
            self.assertEqual(set(value), {"value", "unit"})
            self.assertTrue(re.match(r"^[A-Za-z0-9_/%.-]+$", value["unit"]))


if __name__ == "__main__":
    unittest.main()
