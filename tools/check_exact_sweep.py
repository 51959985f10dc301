#!/usr/bin/env python3
"""Exact ground-truth sweep check for setsched (runs as ctest `expt_exact`).

Runs the exact searches (exact, exact-dive, dive-then-prove,
branch-and-price) plus greedy and local-search over the small and mid-size
unrelated presets, traced, and asserts:

  * every row is ok and carries the proven_optimal/gap certificate; greedy
    and local-search report no certificate (gap -1), the searches a per-run
    gap;
  * no budget-exhausted run masquerades as a proven optimum:
    proven_optimal <=> gap == 0;
  * every LP-bounded search reports dual re-optimizations
    (0 < lp_dual_solves <= lp_solves);
  * every row counts each LP solve it ran: lp_solves == lp_bounds_used +
    cg_pricing_rounds (assignment probes plus one RMP solve per
    branch-and-price pricing round);
  * on the small preset, dive-then-prove pays no more total nodes than the
    cold prove on the seeds both close;
  * branch-and-price (the config bound) pays no more nodes than exact (the
    assignment bound) on the seeds both prove, and prices some column;
  * on both presets, exact, dive-then-prove and branch-and-price are never
    worse than local-search on the same cell: exact's prove starts from the
    local-search solver's schedule, and the chains' prove phase from the
    best of the dive's schedule, the dive's schedule after local search and
    that schedule;
  * in BENCH_expt.json every search summary is certified on all ok cells;
  * each sweep's Chrome trace validates against its JSONL rows
    (tools/analyze_trace.py --validate).

A third leg, `paper`, runs bench/plans/paper.plan (the four brute-force
*-tiny presets, seeds 1..12) and checks the paper's guarantees against the
optimum that `exact` proves on every cell (OPT):

  * Lemma 2.1: lpt <= kLptSetupFactor * OPT = 3 (1 + 1/sqrt 3) * OPT;
  * Thm 3.10: restricted-2approx <= 2 (1 + precision) * OPT;
  * Thm 3.11: classuniform-3approx <= 3 (1 + precision) * OPT;
  * Thm 3.3: rounding <= 2 (log2 n + log2 m + 2) (1 + precision) * OPT, the
    envelope tests/test_rounding.cpp asserts against lp_T;
  * ptas <= lpt on every uniform cell (the PTAS keeps the LPT schedule as
    its fallback), and no ok row beats OPT.

The (1 + precision) factors are there because the T-search returns an lp_T
within 1 + precision of the smallest LP-feasible T, which is at most OPT.
Every checked solver must be ok on all seeds of the presets its
precondition admits and skipped elsewhere, so no bound passes on an empty
sample. The leg prints each solver's mean/max ratio to OPT per preset.

The small preset runs with a budget far above its slowest proof (about 4 s
in an unoptimized Debug build), so every search there proves and the node
comparisons cover the same seeds in every build and under any machine
load; the check asserts that they all close. The mid-size preset keeps the
2 s budget, where no search closes: it checks the anytime certificates.

Usage:
  python3 tools/check_exact_sweep.py --expt build/setsched_expt --out DIR

The JSONL, trace and BENCH_expt_exact_*.json files are left in DIR.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import subprocess
import sys

SEARCHERS = ("exact", "exact-dive", "dive-then-prove", "branch-and-price")
PROVERS = ("exact", "dive-then-prove", "branch-and-price")
# The searches whose prove phase starts from a polished incumbent.
POLISHED = ("exact", "dive-then-prove", "branch-and-price")
# Baselines without a certificate (gap -1).
BASELINES = ("greedy", "local-search")
# Preset -> per-cell time limit in seconds (see the module docstring).
LEGS = {"unrelated-small": 60, "unrelated-midsize": 2}

ROOT = pathlib.Path(__file__).resolve().parent.parent
PAPER_PLAN = ROOT / "bench" / "plans" / "paper.plan"
# Relative slack of the makespan comparisons (the rows carry doubles).
TOL = 1e-9
# Solver -> the factor of OPT its theorem allows, given the row (n, m,
# precision). Thm 3.3 is asymptotic, so `rounding` gets the envelope
# tests/test_rounding.cpp asserts.
GUARANTEES = {
    "lpt": lambda r: 3.0 * (1.0 + 1.0 / math.sqrt(3.0)),  # kLptSetupFactor
    "restricted-2approx": lambda r: 2.0 * (1.0 + r["precision"]),
    "classuniform-3approx": lambda r: 3.0 * (1.0 + r["precision"]),
    "rounding": lambda r: 2.0 * (math.log2(r["n"]) + math.log2(r["m"]) +
                                 2.0) * (1.0 + r["precision"]),
}
# Structure-gated solver -> the paper-plan presets its precondition admits;
# every other solver runs on every preset.
GATED = {
    "lpt": {"uniform-tiny"},
    "ptas": {"uniform-tiny"},
    "restricted-2approx": {"restricted-tiny"},
    "classuniform-3approx": {"class-uniform-tiny"},
}


def sweep(expt: str, out: pathlib.Path, preset: str) -> tuple[list, dict]:
    """Runs one traced leg, validates its trace, returns (rows, bench)."""
    jsonl = out / f"exact_{preset}.jsonl"
    trace = out / f"exact_{preset}_trace.json"
    bench = out / f"BENCH_expt_exact_{preset}.json"
    subprocess.run([expt, f"--presets={preset}",
                    "--solvers=" + ",".join(SEARCHERS + BASELINES),
                    "--seeds=2", "--threads=2",
                    f"--time-limit={LEGS[preset]}", "--quiet",
                    f"--jsonl={jsonl}", f"--trace={trace}",
                    f"--bench-json={bench}"], check=True)
    # The trace must be structurally sound and its node instants (recorded
    # plus shed) must reconcile exactly with the JSONL rows.
    analyze = pathlib.Path(__file__).resolve().parent / "analyze_trace.py"
    subprocess.run([sys.executable, str(analyze), str(trace), "--validate",
                    f"--jsonl={jsonl}"], check=True)
    rows = [json.loads(line) for line in jsonl.read_text().splitlines()
            if line.strip()]
    return rows, json.loads(bench.read_text())


def check_rows(records: list[dict]) -> None:
    assert len(records) == 24, f"want 24 cells, got {len(records)}"
    for r in records:
        assert r["status"] == "ok", r
        assert "proven_optimal" in r and "gap" in r, r
        assert r["lp_solves"] == \
            r["lp_bounds_used"] + r.get("cg_pricing_rounds", 0), \
            f"LP solves missing from lp_solves: {r}"
        if r["solver"] in BASELINES:
            assert not r["proven_optimal"] and r["gap"] == -1.0, r
            continue
        assert r["gap"] >= 0.0 and r["nodes"] > 0, r
        # The min-makespan node relaxation is all-nonnegative-cost, so every
        # LP-bounded search must report dual re-optimizations (the chain
        # merges both phases' counters, so the dive's root solve alone
        # already satisfies this).
        assert r["lp_dual_solves"] > 0, \
            f"exact run without dual LP solves: {r}"
        assert r["lp_dual_solves"] <= r["lp_solves"], r
        if r["proven_optimal"]:
            assert r["gap"] == 0.0, f"proven run with open gap: {r}"
        else:
            assert r["gap"] > 0.0, f"abort mislabeled as optimum: {r}"


def compare_nodes(by_cell: dict, solver: str, reference: str,
                  preset: str | None = None) -> tuple[int, int, int]:
    """Sums nodes of `solver` and `reference` over the cells both prove.

    Node counts of proven runs are deterministic (no wall-clock abort is
    involved), so the totals compare like for like. Returns
    (cells compared, reference nodes, solver nodes).
    """
    compared, ref_nodes, nodes = 0, 0, 0
    for (name, cell_preset, seed), r in by_cell.items():
        if name != solver or (preset is not None and cell_preset != preset):
            continue
        ref = by_cell.get((reference, cell_preset, seed))
        if ref is None or not (r["proven_optimal"] and ref["proven_optimal"]):
            continue
        compared += 1
        ref_nodes += ref["nodes"]
        nodes += r["nodes"]
    return compared, ref_nodes, nodes


def check_paper(expt: str, out: pathlib.Path) -> None:
    """Runs bench/plans/paper.plan and checks the guarantees against OPT."""
    jsonl = out / "paper.jsonl"
    subprocess.run([expt, f"--plan={PAPER_PLAN}", "--threads=2", "--quiet",
                    f"--jsonl={jsonl}"], check=True)
    rows = [json.loads(line) for line in jsonl.read_text().splitlines()
            if line.strip()]
    presets = sorted({r["preset"] for r in rows})
    solvers = sorted({r["solver"] for r in rows})
    seeds = sorted({r["seed"] for r in rows})
    # Every checked solver runs, on every preset its precondition admits.
    assert {"exact", "ptas", *GUARANTEES} <= set(solvers), solvers
    assert set().union(*GATED.values()) <= set(presets), presets
    assert len(rows) == len(presets) * len(solvers) * len(seeds), \
        f"{len(rows)} rows for {presets} x {solvers} x {len(seeds)} seeds"

    opt = {}
    for r in rows:
        if r["solver"] == "exact":
            assert r["status"] == "ok" and r["proven_optimal"] and \
                r["gap"] == 0.0, f"exact did not prove the cell: {r}"
            opt[(r["preset"], r["seed"])] = r["makespan"]
    by_cell = {(r["solver"], r["preset"], r["seed"]): r for r in rows}
    ratios: dict[tuple[str, str], list[float]] = {}
    for r in rows:
        admitted = r["preset"] in GATED.get(r["solver"], presets)
        assert r["status"] == ("ok" if admitted else "skipped"), \
            f"{r['solver']} on {r['preset']}: {r['status']}"
        if not admitted:
            continue
        best = opt[(r["preset"], r["seed"])]
        assert r["makespan"] >= best * (1.0 - TOL), f"beats OPT {best}: {r}"
        if r["solver"] in GUARANTEES:
            bound = GUARANTEES[r["solver"]](r) * best
            assert r["makespan"] <= bound * (1.0 + TOL), \
                f"{r['solver']} exceeds {bound:.4f} (OPT {best}): {r}"
        if r["solver"] == "ptas":
            lpt = by_cell[("lpt", r["preset"], r["seed"])]["makespan"]
            assert r["makespan"] <= lpt * (1.0 + TOL), \
                f"ptas worse than lpt {lpt}: {r}"
        if r["solver"] != "exact":
            ratios.setdefault((r["solver"], r["preset"]), []).append(
                r["makespan"] / best)

    print(f"paper plan ok: {len(seeds)} seeds, every cell proven; "
          "makespan / OPT (mean, max):")
    for (solver, preset), values in sorted(ratios.items()):
        print(f"  {solver:21} {preset:19} {sum(values) / len(values):.3f} "
              f"{max(values):.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--expt", required=True,
                        help="path to the setsched_expt binary")
    parser.add_argument("--out", default=".",
                        help="directory for the sweep outputs")
    args = parser.parse_args()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    records, summaries = [], []
    for preset in LEGS:
        rows, bench = sweep(args.expt, out, preset)
        records += rows
        summaries += bench["summaries"]
    check_rows(records)
    by_cell = {(r["solver"], r["preset"], r["seed"]): r for r in records}
    unproven = [r for r in records if r["preset"] == "unrelated-small"
                and r["solver"] in PROVERS and not r["proven_optimal"]]
    assert not unproven, f"small-preset proof did not close: {unproven}"

    # Dive-then-prove must pay for its dive phase: its merged total (dive
    # beam states plus seeded prove) may not exceed the cold tree.
    compared, cold_total, chain_total = compare_nodes(
        by_cell, "dive-then-prove", "exact", preset="unrelated-small")
    assert compared > 0, "no seed closed by both exact and the chain"
    assert chain_total <= cold_total, \
        f"chain paid more nodes than cold: {chain_total} > {cold_total}"

    # Branch-and-price dominates the assignment bound by construction
    # (config probes run on top of it, and kAuto demotion makes the searches
    # identical), so on cells both prove it may never pay more nodes; it
    # must also actually price columns somewhere.
    bp_compared, assign_nodes, config_nodes = compare_nodes(
        by_cell, "branch-and-price", "exact")
    assert bp_compared > 0, "no seed closed by both bound modes"
    assert config_nodes <= assign_nodes, \
        f"config bound paid more nodes: {config_nodes} > {assign_nodes}"
    bp_rounds = sum(r.get("cg_pricing_rounds", 0) for r in records
                    if r["solver"] == "branch-and-price")
    assert bp_rounds > 0, "branch-and-price never priced a column"

    # exact and the chains start their prove phase from a schedule at least
    # as good as local-search's, and no phase ever returns a worse one.
    for (name, preset, seed), r in by_cell.items():
        if name in POLISHED:
            polished = by_cell[("local-search", preset, seed)]["makespan"]
            assert r["makespan"] <= polished * (1.0 + TOL), \
                f"{name} worse than local-search {polished}: {r}"

    for s in summaries:
        if s["solver"] in SEARCHERS:
            assert s["certified"] == s["ok"], s
            assert s["proven"] <= s["ok"], s

    print("exact sweep ok:", [
        (s["solver"], s["preset"], s["proven"], round(s["gap_mean"], 4))
        for s in summaries if s["solver"] not in BASELINES],
        "node totals (small, both proven):", cold_total, "->", chain_total,
        "assignment -> config bound (both proven):",
        assign_nodes, "->", config_nodes)
    check_paper(args.expt, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
