#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic.

    python3 perfbench/test_perfbench.py

Covers the tail-percentile rule, the name grammar, the compare verdicts on
synthetic inputs, the metric arithmetic, the agreement between
BENCHMARK.json and perfbench/spec.json, and (after building the driver) the
driver's output checks on deliberately broken schedules.
"""

import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402


class TailRule(unittest.TestCase):
    def test_omitted_below_twenty_samples(self):
        self.assertIsNone(benchlib.tail_percentile([]))
        self.assertIsNone(benchlib.tail_percentile(list(range(19))))

    def test_p50_needs_ten_beyond(self):
        self.assertEqual(benchlib.tail_percentile(list(range(1, 21))), (50, 10))

    def test_highest_qualifying_percentile(self):
        samples = list(range(100, 0, -1))  # order must not matter
        self.assertEqual(benchlib.tail_percentile(samples), (90, 90))
        self.assertEqual(benchlib.tail_percentile(list(range(1, 40))), (50, 20))
        self.assertEqual(benchlib.tail_percentile(list(range(1, 41))), (75, 30))
        self.assertEqual(benchlib.tail_percentile(list(range(1, 1001))), (99, 990))
        self.assertEqual(benchlib.tail_percentile(list(range(1, 10001))),
                         (99.9, 9990))

    def test_labels(self):
        self.assertEqual(benchlib.percentile_label(90), "p90")
        self.assertEqual(benchlib.percentile_label(99.9), "p99_9")


class NameGrammar(unittest.TestCase):
    def test_valid(self):
        for name in ("lp.solves", "solve_ms_p50", "gap-midsize", "9a", "a" * 64):
            self.assertTrue(benchlib.valid_name(name), name)

    def test_invalid(self):
        for name in ("", "a b", "_x", ".x", "a/b", "ms!", "a" * 65, None, 3):
            self.assertFalse(benchlib.valid_name(name), name)


class Verdicts(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_improved(self):
        change = [v * 0.8 for v in self.parent]
        self.assertEqual(benchlib.verdict(self.parent, change, "lower", 0.1),
                         benchlib.IMPROVED)
        self.assertEqual(benchlib.verdict(change, self.parent, "higher", 0.1),
                         benchlib.IMPROVED)

    def test_worse(self):
        change = [v * 1.3 for v in self.parent]
        self.assertEqual(benchlib.verdict(self.parent, change, "lower", 0.15),
                         benchlib.WORSE)
        self.assertEqual(benchlib.verdict(change, self.parent, "higher", 0.15),
                         benchlib.WORSE)

    def test_unchanged_within_bound(self):
        change = [v * 1.05 for v in self.parent]
        self.assertEqual(benchlib.verdict(self.parent, change, "lower", 0.15),
                         benchlib.UNCHANGED)
        self.assertEqual(benchlib.verdict(self.parent, self.parent, "lower", 0.15),
                         benchlib.UNCHANGED)

    def test_eight_of_ten_wins_is_not_improved(self):
        change = [v * 0.8 for v in self.parent[:8]] + [v * 1.01 for v in self.parent[8:]]
        self.assertEqual(benchlib.verdict(self.parent, change, "lower", 0.15),
                         benchlib.UNCHANGED)

    def test_gain_inside_parent_iqr_is_not_improved(self):
        noisy = [80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 100.0]
        change = [v - 1.0 for v in noisy]  # wins every pair by less than the IQR
        self.assertEqual(benchlib.verdict(noisy, change, "lower", 0.25),
                         benchlib.UNCHANGED)

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 100.0]
        change = list(reversed(noisy))
        self.assertEqual(benchlib.verdict(noisy, change, "lower", 0.1),
                         benchlib.UNRESOLVED)

    def test_all_better_escapes_unresolved(self):
        noisy = [80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 100.0]
        change = [79.0 - k * 0.1 for k in range(10)]
        self.assertNotEqual(benchlib.verdict(noisy, change, "lower", 0.1),
                            benchlib.UNRESOLVED)

    def test_constant_zero_metric(self):
        zeros = [0.0] * 10
        self.assertEqual(benchlib.verdict(zeros, zeros, "lower", 0.0),
                         benchlib.UNCHANGED)
        self.assertEqual(benchlib.verdict(zeros, [0.0] * 9 + [0.1], "lower", 0.0),
                         benchlib.UNCHANGED)  # median unmoved
        self.assertEqual(benchlib.verdict(zeros, [0.1] * 10, "lower", 0.0),
                         benchlib.WORSE)

    def test_unpaired_inputs_rejected(self):
        with self.assertRaises(ValueError):
            benchlib.verdict([1.0], [1.0, 2.0], "lower", 0.1)


def sample(seed, ms, makespan, ref_lb, gap, proven, error=""):
    return {"seed": seed, "ms": ms, "makespan": makespan, "ref_lb": ref_lb,
            "gap": gap, "proven": proven, "error": error}


class Metrics(unittest.TestCase):
    out = {
        "setup_s": [0.3, 0.1, 0.2],
        "generate_ms": [1.0, 3.0, 2.0],
        "peak_rss_kb": 2048.0,
        "pool": 3,
        "samples": [
            sample(1, 10.0, 120.0, 100.0, 0.1, False),  # certified ratio 1.1
            sample(2, 30.0, 100.0, 100.0, 0.0, True),
            sample(3, 20.0, 130.0, 100.0, 0.2, False),
            sample(1, 14.0, 140.0, 100.0, 0.3, False),  # repeat of instance 1
            sample(2, 99.0, 0.0, 100.0, -1.0, False, "threw: boom"),
        ],
    }

    def test_end_to_end_reduces_per_instance(self):
        gated, extra = benchlib.end_to_end(self.out)
        # instance medians 12, 30, 20 -> 20
        self.assertEqual(gated["solve_ms_p50"], 20.0)
        self.assertAlmostEqual(gated["ratio_mean"], (1.3 + 1.0 + 1.3) / 3)
        self.assertAlmostEqual(gated["certified_ratio_mean"],
                               ((1.1 + 1.3) / 2 + 1.0 + 1.2) / 3)
        self.assertEqual(gated["setup_s"], 0.2)
        self.assertEqual(gated["peak_rss_mb"], 2.0)
        self.assertIsNone(extra["solve_ms_tail"])
        self.assertAlmostEqual(extra["gap_mean"], (0.2 + 0.0 + 0.2) / 3)
        self.assertEqual(extra["proven_frac"], 0.2)
        self.assertEqual(extra["failed_frac"], 0.2)

    def test_uncertified_solver_has_no_gap(self):
        out = dict(self.out, samples=[sample(1, 5.0, 150.0, 100.0, -1.0, False)])
        gated, extra = benchlib.end_to_end(out)
        self.assertIsNone(extra["gap_mean"])
        self.assertEqual(gated["certified_ratio_mean"], gated["ratio_mean"])

    def test_per_layer_handles_idle_layers(self):
        metrics = benchlib.per_layer({"raw": {}, "generate_ms": [1.0]})
        self.assertTrue(all(v == 0.0 for k, v in metrics.items()
                            if k != "core.generate_ms"))


class SpecAgreement(unittest.TestCase):
    bench = benchlib.load_benchmark()
    spec = benchlib.load_spec()

    def test_workloads(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(names, list(self.spec["workloads"]))
        for w in self.bench["workloads"]:
            spec = self.spec["workloads"][w["name"]]
            self.assertEqual(w["why"], spec["why"])
            self.assertLessEqual(len(w["why"]), 200)
            self.assertIn(spec["solver"], w["why"])
            self.assertIn(spec["preset"], w["why"])

    def test_metric_names_and_units(self):
        entries = self.bench["end_to_end"] + self.bench["per_layer"]
        names = [m["name"] for m in entries] + [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in entries:
            self.assertTrue(benchlib.valid_name(m["name"]), m["name"])
            self.assertRegex(m["unit"], benchlib.UNIT_RE)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_metric_sets(self):
        gated, _ = benchlib.end_to_end(Metrics.out)
        self.assertEqual(list(gated), [m["name"] for m in self.bench["end_to_end"]])
        layers = benchlib.per_layer({"raw": {}, "generate_ms": [1.0]})
        self.assertEqual(list(layers), [m["name"] for m in self.bench["per_layer"]])
        self.assertEqual(list(layers), list(self.spec["per_layer"]))


class CompareRows(unittest.TestCase):
    bench = {"workloads": [{"name": "w"}],
             "end_to_end": [{"name": "t", "unit": "ms", "better": "lower", "bound": 0.1}]}
    spec = {"extra_metrics": {"solve_ms_tail": {"unit": "ms", "better": "lower",
                                                "bound": 0.25}}}

    @staticmethod
    def runs(times, tails):
        return {("w", seed): {"t": t, "solve_ms_tail": tail[1],
                              "solve_ms_tail_percentile": tail[0]}
                for seed, (t, tail) in enumerate(zip(times, tails), start=1)}

    def verdicts(self, parent, change):
        return {row[1]: row[-1] for row in
                compare.compare(parent, change, self.bench, self.spec)}

    def test_rows_pair_by_seed(self):
        p90 = [("p90", 50.0)] * 10
        parent = self.runs([10.0 + 0.01 * k for k in range(10)], p90)
        change = self.runs([7.0 + 0.01 * k for k in range(10)], p90)
        self.assertEqual(self.verdicts(parent, change),
                         {"t": benchlib.IMPROVED, "solve_ms_tail": benchlib.UNCHANGED})

    def test_tail_percentiles_that_differ_are_unresolved(self):
        parent = self.runs([10.0] * 10, [("p90", 50.0)] * 10)
        change = self.runs([10.0] * 10, [("p75", 30.0)] * 10)
        self.assertEqual(self.verdicts(parent, change)["solve_ms_tail"],
                         benchlib.UNRESOLVED)


class DriverChecks(unittest.TestCase):
    def test_broken_schedules_rejected(self):
        binary = run.build(benchlib.ROOT)
        proc = subprocess.run([str(binary), "--self-test"], stdout=subprocess.PIPE,
                              text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("ok   ineligible machine rejected", proc.stdout)


if __name__ == "__main__":
    unittest.main()
