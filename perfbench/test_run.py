"""Self-tests of the benchmark definition and its output checker.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Runs from the repository root; builds nothing and starts no process.
"""

import copy
import json
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def fl_run(threads=2):
    """A well-formed facility-location Run record of fl-greedy-100k."""
    return {
        "schema": "parfaclo.run.v1",
        "solver": "greedy",
        "problem": "facility-location",
        "n": 100_000,
        "cost": 120.0,
        "lower_bound": 100.0,
        "guarantee": 3.722,
        "certified_ratio": 1.2,
        "selected": [3, 7],
        "assignment": [3, 7, 7, 3],
        "wall_ms": 812.5 * threads,
        "threads": threads,
        "backend": "spatial",
        "memory_bytes": 1024,
        "phase_wall_ms": {"finalize": 400.0 * threads},
    }


class SpecTest(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        s = spec()
        names = [w["name"] for w in s["workloads"]]
        names += [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        for name in names:
            self.assertTrue(NAME.fullmatch(name) and len(name) <= 64, name)
        self.assertEqual(len(names), len(set(names)))

    def test_metric_counts(self):
        s = spec()
        self.assertTrue(1 <= len(s["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(s["per_layer"]) <= 128)

    def test_end_to_end_metrics_have_unit_direction_and_bound(self):
        s = spec()
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"}, m)
            self.assertTrue(m["unit"], m)
            self.assertIn(m["better"], ("lower", "higher"), m)
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in s["end_to_end"]))

    def test_every_end_to_end_metric_is_computed(self):
        op = {"threads": 2, "wall_s": 1.0, "solve_s": 0.5, "setup_s": 0.5, "cpu_s": 1.5,
              "peak_rss_mb": 90.0, "cost": 120.0, "lower_bound": 100.0, "n": 100_000}
        values = run.e2e_metrics([op, dict(op, threads=1)], attempted=2, failed=0)
        self.assertEqual(set(values), {m["name"] for m in spec()["end_to_end"]})
        self.assertTrue(all(v != 0 for v in values.values()), values)

    def test_workloads_match_the_runner(self):
        self.assertEqual({w["name"] for w in spec()["workloads"]}, set(run.WORKLOADS))


class CheckerTest(unittest.TestCase):
    def test_accepts_a_good_run_and_its_other_thread_count(self):
        ref = run.canonical(fl_run(threads=2))
        self.assertEqual(run.check_run(fl_run(threads=2), "fl-greedy-100k"), [])
        self.assertEqual(run.check_run(fl_run(threads=1), "fl-greedy-100k", ref), [])

    def test_rejects_cost_below_lower_bound(self):
        bad = fl_run()
        bad["cost"] = 99.0
        self.assertTrue(run.check_run(bad, "fl-greedy-100k"))

    def test_rejects_ratio_above_guarantee(self):
        bad = fl_run()
        bad["cost"] = 400.0
        self.assertTrue(run.check_run(bad, "fl-greedy-100k"))

    def test_rejects_assignment_to_unopened_facility(self):
        bad = fl_run()
        bad["assignment"][2] = 5
        self.assertTrue(run.check_run(bad, "fl-greedy-100k"))

    def test_rejects_canonical_mismatch_between_thread_counts(self):
        ref = run.canonical(fl_run(threads=2))
        bad = copy.deepcopy(fl_run(threads=1))
        bad["selected"] = [3, 7, 9]
        problems = run.check_run(bad, "fl-greedy-100k", ref)
        self.assertTrue(any("canonical" in p for p in problems), problems)

    def test_rejects_wrong_solver_or_size(self):
        bad = fl_run()
        bad["n"] = 2000
        self.assertTrue(run.check_run(bad, "fl-greedy-100k"))
        bad = fl_run()
        bad["solver"] = "primal-dual"
        self.assertTrue(run.check_run(bad, "fl-greedy-100k"))


if __name__ == "__main__":
    unittest.main()
