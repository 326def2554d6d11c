#!/usr/bin/env python3
"""Compares two sets of bench_e2e results, metric by metric.

    python3 bench/e2e/compare.py A B

A and B are result files written by `bench_e2e --out` (or directories
searched recursively for them): A is the parent / first set, B the
change / second set. For every workload x end-to-end metric named in
BENCHMARK.json it prints each side's median and quartiles and a verdict:

  identical     every value of B equals A's, in order (same seeds, same
                trajectory: what best_cost must show
                for a change that claims only speed)
  improved      B wins at least 9 of 10 pairs (file order pairs them;
                ties count for neither) and the medians differ by more
                than A's own quartile spread
  unresolved    A's quartile spread, as a share of its median, exceeds
                the metric's bound (unless every B run beats every A run)
  regressed     B's median is worse than A's by more than the bound
  within bound  otherwise

Exits 1 when any pairing regressed, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(paths):
    """workload -> list of result documents, in file-name order."""
    files = []
    for p in map(Path, paths):
        files += sorted(p.rglob("*.json")) if p.is_dir() else [p]
    out = {}
    for f in files:
        try:
            doc = json.loads(f.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(doc, dict) and "workload" in doc and "metrics" in doc:
            if not doc.get("traced"):
                out.setdefault(doc["workload"], []).append(doc)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(a, b, better, bound):
    if a == b:
        return "identical"
    sign = 1.0 if better == "higher" else -1.0
    q1a, ma, q3a = quartiles(a)
    _, mb, _ = quartiles(b)
    gain = sign * (mb - ma) / abs(ma) if ma else 0.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > 0 and \
            abs(mb - ma) > q3a - q1a:
        return "improved"
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    spread = (q3a - q1a) / abs(ma) if ma else 0.0
    if spread > bound and not all_better:
        return "unresolved"
    if -gain > bound:
        return "regressed"
    return "within bound"


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a", help="first / parent result set (files or dirs)")
    ap.add_argument("b", help="second / change result set (files or dirs)")
    args = ap.parse_args()

    spec = json.loads(SPEC_PATH.read_text())
    set_a, set_b = load([args.a]), load([args.b])
    regressed = False
    print(f"{'workload':11s} {'metric':14s} {'A median [q1, q3]':40s} "
          f"{'B median [q1, q3]':40s} {'delta':>8s} {'bound':>6s}  verdict")
    for w in (x["name"] for x in spec["workloads"]):
        if w not in set_a or w not in set_b:
            print(f"{w:11s} (missing from {'A' if w not in set_a else 'B'})")
            continue
        for m in spec["end_to_end"]:
            a = [d["metrics"][m["name"]]["value"] for d in set_a[w]
                 if m["name"] in d["metrics"]]
            b = [d["metrics"][m["name"]]["value"] for d in set_b[w]
                 if m["name"] in d["metrics"]]
            if not a or not b:
                continue
            v = verdict(a, b, m["better"], m["bound"])
            regressed |= v == "regressed"
            ma, mb = quartiles(a)[1], quartiles(b)[1]
            delta = (mb - ma) / abs(ma) if ma else 0.0
            print(f"{w:11s} {m['name']:14s} {fmt(a):40s} {fmt(b):40s} "
                  f"{100 * delta:+7.2f}% {m['bound']:6.3f}  {v}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
