#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Checks BENCHMARK.json (the workloads and the metric catalog run.py reads
from it), then runs every workload at smoke scale (tiny worlds and windows;
builds the driver on first use): untraced with two seeds and traced once.
"""

import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class CatalogTest(unittest.TestCase):
    def test_every_metric_has_a_valid_name_unit_and_direction(self):
        listed = [(m["name"], m["unit"], m["better"])
                  for key in ("end_to_end", "per_layer")
                  for m in bench.SPEC[key]]
        listed += [(name, unit, better)
                   for name, (unit, better) in bench.HEADLINE.items()]
        seen = set()
        for name, unit, better in listed:
            self.assertRegex(name, NAME)
            self.assertRegex(unit, UNIT, name)
            self.assertIn(better, ("lower", "higher"), name)
            self.assertNotIn(name, seen)
            seen.add(name)

    def test_benchmark_json_is_well_formed(self):
        spec = bench.SPEC
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(spec["paths"], ["perfbench"])
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for name, bound in bounds.items():
            self.assertTrue(0 < bound <= 0.25, name)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binaries = bench.build_all()

    def smoke(self, workload, seed, variant="plain"):
        return bench.run_driver(self.binaries[variant], workload, seed, 0,
                                smoke=True)

    def test_each_workload_passes_its_checks_and_follows_its_seed(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                a = self.smoke(workload, 1)
                b = self.smoke(workload, 2)
                self.assertEqual(a["failures"], [])
                self.assertEqual(a["failed"], 0)
                self.assertGreater(a["checks"], 0)
                self.assertGreater(a["attempted"], 0)
                for name in bench.END_TO_END:
                    self.assertGreater(a["values"][name], 0, name)
                # A second seed must reach the generated inputs.
                self.assertNotEqual(a["values"]["sim_digest"],
                                    b["values"]["sim_digest"])
                if "lane_steps" in a["values"]:
                    self.assertNotEqual(a["values"]["lane_steps"],
                                        b["values"]["lane_steps"])

    def test_traced_run_reports_every_per_layer_metric(self):
        emitted = set()
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                line, full = bench.run(workload, 1, 0, trace=True, smoke=True)
                self.assertTrue(line["correct"], full["failures"])
                self.assertEqual(set(line["metrics"]), set(bench.PER_LAYER))
                emitted |= set(self.smoke(workload, 1, "prof")["values"])
        emitted.add("prof.tracing_overhead_frac")  # computed by run.py
        self.assertEqual(set(bench.PER_LAYER) - emitted, set())


if __name__ == "__main__":
    unittest.main()
