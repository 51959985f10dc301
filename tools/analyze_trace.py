#!/usr/bin/env python3
"""Analyze / validate setsched Chrome trace-event JSON (see docs/OBSERVABILITY.md).

Default mode prints per-category and per-name span totals, the search-tree
prune-reason histogram, the node depth profile, and incumbent/refix event
summaries.

--validate exits non-zero unless the trace is structurally sound:
  * well-formed object-form trace JSON with a traceEvents array
  * setschedDropped == 0 (no buffer overflow truncated the event stream)
  * spans nest properly per track (no partial overlap)
  * for every solver span ("solve" category, >= 20 ms) that has "exact"
    children, the disjoint solver-phase children sum to 90..102% of the
    parent's duration (the <= 5% unaccounted-time acceptance bar, with
    slack for timer quantization on the high side)
  * with --jsonl=FILE: "node" instants, recorded plus shed (setschedShed,
    the bulk instants past the tracer's per-thread share, counted instead
    of recorded), reconcile EXACTLY with the summed `nodes` column of the
    run records

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import sys
from collections import Counter, defaultdict

SOLVER_SPAN_MIN_MS = 20.0
PHASE_SUM_LO = 0.90
PHASE_SUM_HI = 1.02


def load_trace(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("not object-form trace JSON (missing traceEvents)")
    if not isinstance(doc["traceEvents"], list):
        raise ValueError("traceEvents is not an array")
    return doc


def split_events(doc):
    """Returns (track_names, spans, instants); spans/instants sorted by ts."""
    track_names = {}
    spans, instants = [], []
    for e in doc["traceEvents"]:
        ph = e.get("ph")
        if ph == "M":
            if e.get("name") == "thread_name":
                track_names[e.get("tid")] = e.get("args", {}).get("name", "")
        elif ph == "X":
            spans.append(e)
        elif ph == "i":
            instants.append(e)
    spans.sort(key=lambda e: (e["ts"], -e.get("dur", 0.0)))
    instants.sort(key=lambda e: e["ts"])
    return track_names, spans, instants


def check_nesting(spans):
    """Per-track stack check: every pair of spans is disjoint or nested."""
    errors = []
    stacks = defaultdict(list)  # tid -> [(end_ts, name)]
    for e in spans:
        tid, ts, end = e.get("tid"), e["ts"], e["ts"] + e.get("dur", 0.0)
        stack = stacks[tid]
        while stack and stack[-1][0] <= ts:
            stack.pop()
        if stack and end > stack[-1][0] + 1e-6:
            errors.append(
                "track %s: span '%s' [%f, %f] partially overlaps '%s' "
                "(ends %f)" % (tid, e.get("name"), ts, end, stack[-1][1],
                               stack[-1][0]))
        stack.append((end, e.get("name")))
    return errors


def solver_phase_coverage(spans):
    """For each long-enough 'solve' span: fraction covered by its top-level
    'exact' children. Returns [(name, dur_ms, fraction)]."""
    by_track = defaultdict(list)
    for e in spans:
        by_track[e.get("tid")].append(e)
    out = []
    for track_spans in by_track.values():
        solves = [e for e in track_spans if e.get("cat") == "solve"]
        exacts = [e for e in track_spans if e.get("cat") == "exact"]
        for parent in solves:
            p_ts, p_end = parent["ts"], parent["ts"] + parent.get("dur", 0.0)
            inside = [e for e in exacts
                      if e["ts"] >= p_ts and e["ts"] + e.get("dur", 0.0) <= p_end]
            # Keep only top-level children (not nested in another child).
            top = []
            for e in inside:
                e_ts, e_end = e["ts"], e["ts"] + e.get("dur", 0.0)
                if not any(o is not e and o["ts"] <= e_ts
                           and e_end <= o["ts"] + o.get("dur", 0.0)
                           for o in inside):
                    top.append(e)
            if not top:
                continue
            dur_ms = parent.get("dur", 0.0) / 1000.0
            covered = sum(e.get("dur", 0.0) for e in top) / 1000.0
            frac = covered / dur_ms if dur_ms > 0 else 0.0
            out.append((parent.get("name", "?"), dur_ms, frac))
    return out


def jsonl_nodes_total(path):
    total, rows = 0, 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            total += int(rec.get("nodes", 0))
            rows += 1
    return total, rows


def report(doc, track_names, spans, instants):
    print("tracks: %d" % len(track_names))
    for tid in sorted(track_names):
        n = sum(1 for e in spans if e.get("tid") == tid)
        print("  tid %-4s %-12s %6d spans" % (tid, track_names[tid], n))
    print("events: %d spans, %d instants, dropped=%d"
          % (len(spans), len(instants), doc.get("setschedDropped", 0)))

    by_cat = Counter()
    by_name = Counter()
    for e in spans:
        ms = e.get("dur", 0.0) / 1000.0
        by_cat[e.get("cat", "?")] += ms
        by_name[(e.get("cat", "?"), e.get("name", "?"))] += ms
    print("\nspan time by category (ms, summed over spans; tiers nest):")
    for cat, ms in by_cat.most_common():
        print("  %-10s %10.3f" % (cat, ms))
    print("span time by name:")
    for (cat, name), ms in by_name.most_common():
        print("  %-10s %-22s %10.3f" % (cat, name, ms))

    nodes = [e for e in instants if e.get("name") == "node"]
    reasons = Counter(e.get("args", {}).get("reason", "?") for e in nodes)
    print("\nsearch-tree nodes: %d recorded, %d shed (the histograms cover "
          "the recorded ones)"
          % (len(nodes), doc.get("setschedShed", {}).get("node", 0)))
    for reason, n in reasons.most_common():
        print("  %-14s %8d" % (reason, n))

    depths = Counter(int(e.get("args", {}).get("depth", -1)) for e in nodes)
    if depths:
        print("depth profile:")
        for depth in sorted(depths):
            print("  depth %-4d %8d" % (depth, depths[depth]))

    incumbents = [e for e in instants if e.get("name") == "incumbent"]
    refixes = [e for e in instants if e.get("name") == "refix"]
    if incumbents:
        best = min(e.get("args", {}).get("makespan", float("inf"))
                   for e in incumbents)
        print("incumbent updates: %d (best makespan %g)"
              % (len(incumbents), best))
    if refixes:
        fixed = sum(int(e.get("args", {}).get("fixed", 0)) for e in refixes)
        print("refix events: %d (%d variables fixed)" % (len(refixes), fixed))


def validate(doc, spans, instants, jsonl_path):
    errors = []
    dropped = doc.get("setschedDropped", -1)
    if dropped != 0:
        errors.append("setschedDropped=%s (events were lost; counts cannot "
                      "be reconciled)" % dropped)

    errors.extend(check_nesting(spans))

    for name, dur_ms, frac in solver_phase_coverage(spans):
        if dur_ms < SOLVER_SPAN_MIN_MS:
            continue
        if not (PHASE_SUM_LO <= frac <= PHASE_SUM_HI):
            errors.append(
                "solver span '%s' (%.1f ms): exact-phase children cover "
                "%.1f%% of wall time, outside [%d%%, %d%%]"
                % (name, dur_ms, 100.0 * frac, 100 * PHASE_SUM_LO,
                   100 * PHASE_SUM_HI))

    if jsonl_path:
        traced_nodes = sum(1 for e in instants if e.get("name") == "node")
        traced_nodes += doc.get("setschedShed", {}).get("node", 0)
        jsonl_nodes, rows = jsonl_nodes_total(jsonl_path)
        if traced_nodes != jsonl_nodes:
            errors.append(
                "node reconciliation failed: %d 'node' instants "
                "(recorded + shed) in the trace vs %d nodes summed over %d JSONL rows"
                % (traced_nodes, jsonl_nodes, rows))
        else:
            print("node reconciliation: %d == %d over %d rows"
                  % (traced_nodes, jsonl_nodes, rows))
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="Chrome trace JSON written by --trace=FILE")
    ap.add_argument("--validate", action="store_true",
                    help="structural validation; non-zero exit on failure")
    ap.add_argument("--jsonl", default="",
                    help="run records to reconcile node counts against")
    args = ap.parse_args()

    try:
        doc = load_trace(args.trace)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print("FAIL: %s: %s" % (args.trace, exc), file=sys.stderr)
        return 1

    track_names, spans, instants = split_events(doc)

    if args.validate:
        errors = validate(doc, spans, instants, args.jsonl)
        if errors:
            for err in errors:
                print("FAIL: %s" % err, file=sys.stderr)
            return 1
        print("OK: %d spans, %d instants, %d tracks validated"
              % (len(spans), len(instants), len(track_names)))
        return 0

    report(doc, track_names, spans, instants)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `analyze_trace.py trace.json | head`
        sys.exit(0)
