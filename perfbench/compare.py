#!/usr/bin/env python3
"""Compares the benchmark results of a parent commit and a change.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the untraced runs of one commit, as written by
`run.py --record` or `sweep.py --out`. Runs are paired by (workload, seed);
use the same seeds on both sides, at least ten, and alternate which side
runs first. Prints one row per workload and end-to-end metric with both
sides' medians and quartiles, the change's wins over the pairs, and a
verdict: improved, worse, unchanged or unresolved (rules in
benchlib.verdict). Gated metrics take their bound from BENCHMARK.json, the
extra ones (tail, gap, proven and failed fractions) from perfbench/spec.json.
Exits 1 when any row is worse.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402


def load_runs(path):
    """{(workload, seed): {metric: value}} of the untraced runs in `path`."""
    runs = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"] != 0:
                continue
            values = {k: m["value"] for k, m in rec["result"]["metrics"].items()}
            values.update((rec.get("extra") or {}).items())
            runs[(rec["workload"], rec["seed"])] = values
    return runs


def metric_table(bench, spec):
    rows = [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    rows += [(name, m["unit"], m["better"], m["bound"])
             for name, m in spec["extra_metrics"].items()]
    return rows


# A metric whose meaning depends on a label recorded beside it: the tail is
# whichever percentile the run's sample count allowed.
LABELS = {"solve_ms_tail": "solve_ms_tail_percentile"}


def compare(parent_runs, change_runs, bench, spec):
    """Yields (workload, metric, unit, pairs, parent, change, wins, verdict)."""
    for workload in (w["name"] for w in bench["workloads"]):
        seeds = sorted(s for (w, s) in parent_runs
                       if w == workload and (w, s) in change_runs)
        for name, unit, better, bound in metric_table(bench, spec):
            pairs = [(parent_runs[(workload, s)].get(name),
                      change_runs[(workload, s)].get(name)) for s in seeds]
            pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
            if not pairs:
                continue
            parent = [p for p, _ in pairs]
            change = [c for _, c in pairs]
            sign = 1 if better == "higher" else -1
            wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
            labels = {runs[(workload, s)].get(LABELS.get(name))
                      for runs in (parent_runs, change_runs) for s in seeds}
            verdict = (benchlib.UNRESOLVED if len(labels) > 1
                       else benchlib.verdict(parent, change, better, bound))
            yield (workload, name, unit, len(pairs), parent, change, wins, verdict)


def fmt_side(values):
    q1, med, q3 = benchlib.quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    bench = benchlib.load_benchmark(benchlib.ROOT)
    spec = benchlib.load_spec()
    rows = list(compare(load_runs(args.parent), load_runs(args.change), bench, spec))
    if not rows:
        print("no (workload, seed) pair appears in both files", file=sys.stderr)
        return 2
    print(f"{'workload':<16} {'metric':<22} {'pairs':>5}  {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'wins':>5}  verdict")
    worse = False
    for workload, name, unit, n, parent, change, wins, verdict in rows:
        worse |= verdict == benchlib.WORSE
        print(f"{workload:<16} {name:<22} {n:>5}  {fmt_side(parent) + ' ' + unit:<30} "
              f"{fmt_side(change) + ' ' + unit:<30} {wins:>2}/{n:<2}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
