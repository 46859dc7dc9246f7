#!/usr/bin/env python3
"""Sweep operator-ratio probes over exponent triples and resolutions.

Example:
    python scripts/probe_sweep.py --symbol staircase --family hyperboloid \
        --triples "3,3,3;2,4,4;4,4,2" --resolutions 128 256 512 --trials 100 \
        --seed 11 --out sweep.csv
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bmlab import curves, reporting
from bmlab.config import CURVE_FAMILIES, _parse_triples
from bmlab.engine import ExponentTriple, norm_probe
from bmlab.symbols import (
    exponential_paraproduct_sum,
    polygonal_epigraph_symbol,
    staircase_symbol,
)


def build_symbol(args):
    if args.symbol == "exponential_paraproduct":
        return exponential_paraproduct_sum(args.J)
    curve = CURVE_FAMILIES[args.family](args.c)
    seq = curves.build_dyadic_slope_sequence(curve, args.J)
    if args.symbol == "staircase":
        return staircase_symbol(seq)
    if args.symbol == "polygonal":
        return polygonal_epigraph_symbol(np.column_stack([seq.a, seq.b]))
    raise SystemExit(f"unknown symbol: {args.symbol}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--symbol", default="staircase",
                    choices=["staircase", "polygonal", "exponential_paraproduct"])
    ap.add_argument("--family", default="hyperboloid", choices=sorted(CURVE_FAMILIES))
    ap.add_argument("--c", type=float, default=None)
    ap.add_argument("--J", type=int, default=8)
    ap.add_argument("--triples", default="3,3,3")
    ap.add_argument("--resolutions", type=int, nargs="+", default=[128, 256, 512])
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--L", type=float, default=48.0)
    ap.add_argument("--out", default="probe_sweep.csv")
    args = ap.parse_args()

    sym = build_symbol(args)
    rows = []
    for t in _parse_triples(args.triples):
        rep = norm_probe(sym, ExponentTriple(*t), trials=args.trials,
                         resolutions=args.resolutions, seed=args.seed, L=args.L)
        rows.extend(rep.csv_rows())
        print(f"{sym.label} {t}: growth {rep.growth_factor:.3f}")
    reporting.write_csv(args.out, ["p1", "p2", "p3", "N", "trial_family", "max_ratio"], rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
