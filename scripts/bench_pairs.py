#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, and whether a gain holds.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seed S --seconds T

Runs ``bench/run.py --workload W --seed S --seconds T --trace 0`` N times in
each checkout, pair by pair, the parent first in even pairs and the change
first in odd ones.  Every run's metrics are printed as it ends.  Then, for
each end-to-end metric of the parent's BENCHMARK.json, it prints each side's
median and quartiles, the pairs the change won (ties count for neither) and
whether a gain holds by the rule of the benchmark's method: the change wins
at least nine tenths of the pairs, and its median is better than the
parent's by more than the parent's interquartile range.

Exits 1, after the runs made so far, when a run exits non-zero, prints no
result or reports a wrong output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values):
    """(first quartile, median, third quartile), inclusive; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent, change, better):
    """The statistics of one metric over paired runs.

    ``parent[i]`` and ``change[i]`` are the values of pair i, and ``better``
    is "higher" or "lower".  A gain holds when the change wins at least nine
    tenths of the pairs and its median beats the parent's by more than the
    parent's interquartile range.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = sign * (c_med - p_med)
    return {
        "parent": (p_med, p_q1, p_q3),
        "change": (c_med, c_q1, c_q3),
        "wins": wins,
        "pairs": len(parent),
        "holds": 10 * wins >= 9 * len(parent) and gap > p_q3 - p_q1,
    }


def run_once(checkout, args):
    """The result object ``bench/run.py`` printed last in ``checkout``."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: wrong output")
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = {"parent": [], "change": []}
    try:
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                result = run_once(getattr(args, side), args)
                runs[side].append(result)
                values = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items()))
                print(f"pair {i} {side}: failed {result['failed']}/{result['attempted']} {values}", flush=True)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name in better:
        parent = [r["metrics"][name]["value"] for r in runs["parent"] if name in r["metrics"]]
        change = [r["metrics"][name]["value"] for r in runs["change"] if name in r["metrics"]]
        if not parent or len(parent) != len(change):
            continue
        s = summarize(parent, change, better[name])
        (pm, p1, p3), (cm, c1, c3) = s["parent"], s["change"]
        print(
            f"{name}: parent {pm:.6g} [{p1:.6g}, {p3:.6g}] -> change {cm:.6g} [{c1:.6g}, {c3:.6g}], "
            f"change better in {s['wins']} of {s['pairs']}, gain holds: {'yes' if s['holds'] else 'no'}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
