#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric (stdlib only).

Usage:

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records `perfbench/run.py --out FILE` appended, one run
per line (any mix of workloads, seeds and traced/untraced runs). For every
workload and metric present in both sets it prints each side's median and
quartiles (statistics.quantiles, n=4), the change of the medians relative
to the base median, and a verdict against the metric's bound in
BENCHMARK.json:

    better      every new run beats every base run, or the medians differ
                in the better direction by more than the base quartile
                spread and that spread is within the bound
    worse       the new median is worse than the base median by more than
                the bound
    within      neither, and both spreads are within the bound
    unresolved  a side's quartile spread exceeds the bound, or the metric
                has no bound (per-layer metrics)

The exit code is 1 when any end-to-end metric is worse, else 0.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["metrics"].items():
                runs.setdefault((rec["workload"], name), []).append(m["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, new, better, bound):
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    if bound is None or bmed == 0:
        return "unresolved"
    sign = 1 if better == "higher" else -1
    gain = sign * (nmed - bmed) / abs(bmed)  # > 0 means new is better
    spread = max((b3 - b1) / abs(bmed), (n3 - n1) / abs(nmed or bmed))
    if min(sign * v for v in new) > max(sign * v for v in base):
        return "better"
    if gain < -bound:
        return "worse"
    if spread > bound:
        return "unresolved"
    if gain > (b3 - b1) / abs(bmed):
        return "better"
    return "within"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: (m["better"], m.get("bound"))
             for table in ("end_to_end", "per_layer") for m in bench[table]}
    base, new = load_runs(sys.argv[1]), load_runs(sys.argv[2])

    worse = False
    header = (f"{'workload':10} {'metric':30} {'base q1/med/q3':>32} "
              f"{'new q1/med/q3':>32} {'delta':>8} {'n':>5}  verdict")
    print(header)
    print("-" * len(header))
    for key in sorted(set(base) & set(new)):
        workload, name = key
        if name not in specs:
            continue
        better, bound = specs[name]
        b, n = base[key], new[key]
        bq, nq = quartiles(b), quartiles(n)
        if bq[1] == nq[1]:
            delta = 0.0
        else:
            delta = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else float("nan")
        v = verdict(b, n, better, bound)
        worse |= v == "worse"
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(f"{workload:10} {name:30} {fmt(bq):>32} {fmt(nq):>32} "
              f"{delta:+8.1%} {len(b):>2}/{len(n):<2}  {v}"
              + ("" if bound is None else f" (bound {bound:.0%})"))
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
