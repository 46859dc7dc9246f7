#!/usr/bin/env python3
"""Sweep operator-ratio probes over exponent triples and resolutions.

Exits 4 (after writing the CSV) when any triple's growth factor fails the
probe check of ``bmlab probe``, NaN included.

Example:
    python scripts/probe_sweep.py --symbol staircase --family hyperboloid \
        --triples "3,3,3;2,4,4;4,4,2" --resolutions 128 256 512 --trials 100 \
        --seed 11 --out sweep.csv
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bmlab import reporting
from bmlab.cli import EXIT_CHECK, EXIT_OK, probe_growth_ok
from bmlab.config import CURVE_FAMILIES, RunConfig, _parse_triples
from bmlab.engine import ExponentTriple, _probe_reports


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

    try:
        cfg = RunConfig(
            family=args.family, c=args.c, J=args.J, L=args.L,
            triples=_parse_triples(args.triples), trials=args.trials, seed=args.seed,
            resolutions=args.resolutions, symbol_kind=args.symbol,
        ).validate()
        sym = cfg.symbol()
    except ValueError as exc:
        raise SystemExit(f"config error: {exc}")
    rows = []
    ok = True
    triples = [ExponentTriple(*t) for t in cfg.triples]
    reports = _probe_reports(sym, triples, cfg.trials, cfg.resolutions, cfg.seed, cfg.L)
    for t, rep in zip(cfg.triples, reports):
        rows.extend(rep.csv_rows())
        print(f"{sym.label} {t}: growth {rep.growth_factor:.3f}")
        ok = probe_growth_ok(rep) and ok
    reporting.write_csv(args.out, ["p1", "p2", "p3", "N", "trial_family", "max_ratio"], list(zip(*rows)))
    print(f"wrote {args.out}")
    return EXIT_OK if ok else EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
