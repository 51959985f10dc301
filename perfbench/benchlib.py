"""Shared logic of the perfbench scripts: the spec, metric arithmetic, the
tail-percentile rule, the name grammar and the compare verdicts.

Kept free of I/O beyond reading the two JSON files so that
perfbench/test_perfbench.py can exercise every rule on synthetic inputs.
"""

import json
import math
import re
import statistics
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# A metric or workload name: what BENCHMARK.json and the compare rows key on.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Candidate tail percentiles, highest last.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_MIN_BEYOND = 10


def valid_name(name):
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def load_spec():
    with open(HERE / "spec.json", encoding="utf-8") as f:
        return json.load(f)


def load_benchmark(root=ROOT):
    with open(Path(root) / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def ratio(num, den):
    """num / den, or 0.0 when the layer did no work (den == 0)."""
    return num / den if den else 0.0


def tail_percentile(samples, ladder=TAIL_LADDER, min_beyond=TAIL_MIN_BEYOND):
    """The highest percentile of `ladder` with at least `min_beyond` samples
    ranked above it, as (percentile, value); None when no percentile has.

    The value is the nearest-rank percentile: the ceil(q/100 * n)-th smallest
    sample, so exactly n - ceil(q/100 * n) samples rank beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for q in ladder:
        rank = math.ceil(Fraction(str(q)) * n / 100)
        if rank >= 1 and n - rank >= min_beyond:
            best = (q, ordered[rank - 1])
    return best


def percentile_label(q):
    return "p" + (str(q).replace(".", "_") if q != int(q) else str(int(q)))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(q2) if q2 else math.inf


def end_to_end(out):
    """End-to-end metrics of one untraced driver run.

    Timings and ratios are first reduced per corpus instance (median time,
    mean ratio and gap over its repeats), so the run's metrics do not depend
    on which instances a run that ends mid-pass repeats. The tail and the
    fractions count every solve. Returns (gated, extra): `gated` holds the
    BENCHMARK.json end_to_end metrics, `extra` the ones that are 0 or
    undefined on some workload, None where undefined.
    """
    samples = out["samples"]
    attempted = len(samples)
    failed = sum(1 for s in samples if s["error"])
    ok = [s for s in samples if not s["error"]] or samples
    by_instance = {}
    for s in ok:
        by_instance.setdefault(s["seed"], []).append(s)

    def per_instance(reduce, value):
        return [reduce([value(s) for s in runs]) for runs in by_instance.values()]

    def ratio_of(s):
        return s["makespan"] / s["ref_lb"]

    def certified_ratio_of(s):
        return min(ratio_of(s), 1.0 + s["gap"]) if s["gap"] >= 0 else ratio_of(s)

    gaps = [s for s in ok if s["gap"] >= 0]
    tail = tail_percentile([s["ms"] for s in ok])
    gated = {
        "solve_ms_p50": statistics.median(
            per_instance(statistics.median, lambda s: s["ms"])),
        "ratio_mean": statistics.fmean(per_instance(statistics.fmean, ratio_of)),
        "certified_ratio_mean": statistics.fmean(
            per_instance(statistics.fmean, certified_ratio_of)),
        "setup_s": statistics.median(out["setup_s"]),
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
    }
    extra = {
        "solve_ms_tail": tail[1] if tail else None,
        "solve_ms_tail_percentile": percentile_label(tail[0]) if tail else None,
        "solve_ms_samples": len(ok),
        "gap_mean": (statistics.fmean(per_instance(statistics.fmean, lambda s: s["gap"]))
                     if len(gaps) == len(ok) else None),
        "proven_frac": sum(1 for s in samples if s["proven"]) / attempted,
        "failed_frac": failed / attempted,
    }
    return gated, extra


def per_layer(out):
    """Per-layer metrics of one traced driver run (sums over its instances
    unless the name says ratio, share, frac, per or speedup)."""
    raw = out["raw"]

    def r(key):
        return raw.get(key, 0.0)

    def ph(name):
        return r("phase." + name)

    search_ms = ph("dive") + ph("prove")
    probe_ms = ratio(r("tsearch_ms"), r("tsearch_probes"))
    return {
        "lp.solves": r("lp_solves"),
        "lp.iterations": r("lp_iterations"),
        "lp.iters_per_solve": ratio(r("lp_iterations"), r("lp_solves")),
        "lp.dual_frac": ratio(r("lp_dual_solves"), r("lp_solves")),
        "lp.solve_ms": ph("lp_solve"),
        "lp.share": ratio(ph("lp_solve"), r("solve_ms_traced")),
        "lp.factor_ms": ph("lp_factor"),
        "lp.ftran_ms": ph("lp_ftran"),
        "lp.btran_ms": ph("lp_btran"),
        "lp.pricing_ms": ph("lp_pricing"),
        "lp.primal_ms": ph("lp_primal"),
        "lp.dual_ms": ph("lp_dual"),
        "lp.us_per_iter": 1000.0 * ratio(ph("lp_solve"), r("lp_iterations")),
        "lp.audits_suspect": r("lp_audits_suspect"),
        "lp.recoveries": r("lp_recoveries"),
        "lp.oracle_fallbacks": r("lp_oracle_fallbacks"),
        "unrelated.tsearch_ms": r("tsearch_ms"),
        "unrelated.tsearch_probes": r("tsearch_probes"),
        "unrelated.probe_ms": probe_ms,
        "unrelated.cold_solve_ms": r("cold_solve_ms"),
        "unrelated.warm_speedup": ratio(
            ratio(r("cold_solve_ms"), r("tsearch_calls")), probe_ms),
        "unrelated.round_ms": r("round_ms"),
        "unrelated.fallback_frac": ratio(r("round_fallback_jobs"), r("round_jobs")),
        "exact.nodes": r("nodes"),
        "exact.nodes_per_ms": ratio(r("nodes"), search_ms),
        "exact.lp_probes": r("lp_bounds_used"),
        "exact.probe_us": 1000.0 * ratio(ph("lp_solve"), r("lp_bounds_used")),
        "exact.fixed_vars": r("fixed_vars"),
        "exact.root_bound_ms": ph("root_bound"),
        "exact.dive_ms": ph("dive"),
        "exact.prove_ms": ph("prove"),
        "exact.dominance_ms": ph("dominance"),
        "exact.dominance_share": ratio(ph("dominance"), ph("prove")),
        "exact.refix_ms": ph("refix"),
        "exact.root_lp_ms": r("root_lp_ms"),
        "exact.pin_probe_us": 1000.0 * ratio(r("pin_probe_ms"), r("pin_probes")),
        "exact.pin_probe_iters": ratio(r("pin_probe_iters"), r("pin_probes")),
        "colgen.columns": r("cg_columns"),
        "colgen.pricing_rounds": r("cg_pricing_rounds"),
        "colgen.fallbacks": r("cg_fallbacks"),
        "colgen.config_root_ms": r("config_root_ms"),
        "colgen.config_root_probes": r("config_root_probes"),
        "colgen.config_root_fallback_frac": ratio(
            r("config_root_fallbacks"), r("config_root_probes")),
        "colgen.config_root_gain": ratio(
            r("config_root_gain_sum"), r("config_root_calls")),
        "api.solve_ms": r("solve_ms_traced"),
        "api.solves": r("solves"),
        "trace.overhead_frac": ratio(
            r("solve_ms_traced") - r("solve_ms_untraced"), r("solve_ms_untraced")),
        "core.generate_ms": statistics.median(out["generate_ms"]),
    }


# --- compare ---------------------------------------------------------------

IMPROVED, WORSE, UNCHANGED, UNRESOLVED = "improved", "worse", "unchanged", "unresolved"


def verdict(parent, change, better, bound):
    """Verdict on one (workload, metric) from the runs of both commits.

    `parent` and `change` are lists of values, paired by position (run k of
    each side used the same seed). Rules:
      * improved: the change wins at least 9/10 of the pairs (ties count for
        neither side) and the medians differ, in the better direction, by
        more than the parent's interquartile range;
      * worse: the change's median is worse than the parent's by more than
        `bound` times the parent's median;
      * unresolved: otherwise, when the parent's own spread (interquartile
        range over median) is wider than `bound`, unless every run of the
        change reads better than every run of the parent;
      * unchanged: otherwise.
    """
    if not parent or len(parent) != len(change):
        raise ValueError("need the same, non-zero number of runs on each side")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    gain = sign * (med_c - med_p)
    if 10 * wins >= 9 * len(parent) and gain > q3 - q1:
        return IMPROVED
    if -gain > bound * abs(med_p):
        return WORSE
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread(parent) > bound and not all_better:
        return UNRESOLVED
    return UNCHANGED
