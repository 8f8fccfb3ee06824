#!/usr/bin/env python3
"""Compares two results files of bench/e2e/run.py, metric by metric.

  python3 bench/e2e/compare.py BASE.json HEAD.json [--benchmark BENCHMARK.json]

For every workload and every end-to-end metric the runs report, it prints
each side's quartiles over its untraced runs and the share of pairs the head
won; a pair is the base and head run of one seed, and a tie counts for
neither side. Gated metrics are those BENCHMARK.json lists with a bound;
the others are reported only. Each row gets a verdict:

  better      the head won at least 9 of 10 pairs and the medians differ by
              more than the base's own spread (its interquartile distance);
  worse       gated: the head median is worse than the base median by more
              than the bound; reported only: the head lost at least 9 of 10
              pairs and the medians differ by more than the base's spread;
  unresolved  reported only, or gated with a base spread (interquartile
              distance over median) wider than the bound, and neither of
              the above: "unchanged" cannot be claimed;
  unchanged   otherwise.

The exit code is 1 when any gated metric is worse.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def untraced(doc, workload):
    return [r for r in doc["runs"]
            if r["workload"] == workload and not r["trace"] and not r["smoke"]]


def verdict(base, head, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    _, h_med, _ = quartiles(list(head.values()))
    seeds = sorted(set(base) & set(head))
    wins = sum(1 for s in seeds if sign * (head[s] - base[s]) > 0)
    losses = sum(1 for s in seeds if sign * (head[s] - base[s]) < 0)
    n = len(seeds)
    clear_gap = abs(h_med - b_med) > (b_q3 - b_q1)
    if n and wins / n >= 0.9 and clear_gap and sign * (h_med - b_med) > 0:
        return "better", wins, n
    if bound is None:
        if n and losses / n >= 0.9 and clear_gap and sign * (h_med - b_med) < 0:
            return "worse", wins, n
        return "unresolved", wins, n
    if b_med and sign * (h_med - b_med) / b_med < -bound:
        return "worse", wins, n
    all_better = min(sign * v for v in head.values()) > max(sign * v for v in base.values())
    spread = (b_q3 - b_q1) / b_med if b_med else float("inf")
    if spread > bound and not all_better:
        return "unresolved", wins, n
    return "unchanged", wins, n


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args()
    bench = json.loads(args.benchmark.read_text())
    base_doc = json.loads(args.base.read_text())
    head_doc = json.loads(args.head.read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    print(f"base {base_doc.get('git_sha')}  head {head_doc.get('git_sha')}")
    print(f"{'workload':10s} {'metric':18s} {'bound':>6s} {'base q1/med/q3':>30s} "
          f"{'head q1/med/q3':>30s} {'pairs won':>10s} verdict")
    gated_worse = 0
    for w in dict.fromkeys(r["workload"] for r in base_doc["runs"]):
        base_runs, head_runs = untraced(base_doc, w), untraced(head_doc, w)
        if not base_runs or not head_runs:
            print(f"{w:10s} missing runs")
            continue
        names = [k for k, m in base_runs[0]["metrics"].items() if m["end_to_end"]]
        for name in names:
            base = {r["seed"]: r["metrics"][name]["value"] for r in base_runs
                    if name in r["metrics"]}
            head = {r["seed"]: r["metrics"][name]["value"] for r in head_runs
                    if name in r["metrics"]}
            if not head:
                print(f"{w:10s} {name:18s} missing on head")
                continue
            bound = bounds.get(name)
            better = base_runs[0]["metrics"][name]["better"]
            v, wins, n = verdict(base, head, better, bound)
            gated_worse += v == "worse" and bound is not None
            bq = "/".join(f"{x:.4g}" for x in quartiles(list(base.values())))
            hq = "/".join(f"{x:.4g}" for x in quartiles(list(head.values())))
            b = f"{bound:.2f}" if bound is not None else "-"
            print(f"{w:10s} {name:18s} {b:>6s} {bq:>30s} {hq:>30s} "
                  f"{wins:4d} of {n:<3d} {v}")
    return 1 if gated_worse else 0


if __name__ == "__main__":
    sys.exit(main())
