#!/usr/bin/env python3
"""Compare benchmark result sets.

A result set is a file holding run.py output: any number of runs, of any
workloads and seeds; the full-record lines (JSON objects with a "workload"
key) are read.  For every workload and metric the script prints each set's
median and quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the distance between the quartiles as a share of the median.

Given two sets (base, then change), each end-to-end metric gets a verdict
against its bound in BENCHMARK.json:

* ``unresolved`` when either set's spread exceeds the bound, unless every
  run of one set reads better than every run of the other;
* ``worse`` / ``better`` when the change's median differs from the base's
  by more than the bound;
* ``unchanged`` otherwise.

Metrics without a bound (per-layer, ``fail_frac``, trial latencies) are
listed without a verdict.  Exits 1 when some metric is worse, else 0.

    python3 perfbench/compare.py base.log            # medians and spreads
    python3 perfbench/compare.py base.log change.log # verdicts
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path: str) -> dict:
    """{(workload, metric): (unit, [values])} from the records in a file."""
    out: dict = {}
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        rec = json.loads(line)
        if "workload" not in rec:
            continue
        for name, m in {**rec["metrics"], **rec.get("extra_metrics", {})}.items():
            out.setdefault((rec["workload"], name), (m["unit"], []))[1].append(m["value"])
    return out


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and spread (IQR / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def verdict(base: list[float], change: list[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    (mb, _, _, sb), (mc, _, _, sc) = summary(base), summary(change)
    if max(sb, sc) > bound:
        if all(sign * c < sign * b for c in change for b in base):
            return "better"
        if all(sign * c > sign * b for c in change for b in base):
            return "worse"
        return "unresolved"
    rel = sign * (mc - mb) / abs(mb) if mb else 0.0
    if rel > bound:
        return "worse"
    if rel < -bound:
        return "better"
    return "unchanged"


def fmt(values: list[float]) -> str:
    med, q1, q3, spread = summary(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f} n={len(values)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("change", nargs="?")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    base = load(args.base)
    change = load(args.change) if args.change else {}
    worse = False
    for key in sorted(set(base) | set(change)):
        workload, metric = key
        unit = (base.get(key) or change.get(key))[0]
        row = [f"{workload:14s} {metric:34s} {unit:6s}"]
        if key in base:
            row.append(f"base {fmt(base[key][1])}")
        if key in change:
            row.append(f"change {fmt(change[key][1])}")
        spec = bounds.get(metric)
        if spec and key in base and key in change:
            v = verdict(base[key][1], change[key][1], spec["bound"], spec["better"])
            worse = worse or v == "worse"
            row.append(f"{v} (bound {spec['bound']})")
        elif spec and key in base:
            ok = summary(base[key][1])[3] <= spec["bound"] / 3
            row.append(f"bound {spec['bound']}, spread {'<' if ok else '>='} bound/3")
        print("  ".join(row))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
