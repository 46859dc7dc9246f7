#!/usr/bin/env python3
"""Sweep operator-ratio probes, or the Hölder chain, over exponent triples
and resolutions.

Exits 4 (after writing the CSV) when any triple's growth factor fails the
probe check of ``bmlab probe``, NaN included.

With ``--chain`` it runs ``holder_chain_check`` on the curve's staircase
instead, ``--trials`` random (f, g, h) per triple and resolution as in
acceptance criterion 8, and writes JSON rows per resolution: the worst
lhs/rhs, the largest identity gap, the number of failing calls and the warm
milliseconds per call.  It exits 4 when any call fails criterion 8's verdict.

Examples:
    python scripts/probe_sweep.py --symbol staircase --family hyperboloid \
        --triples "3,3,3;2,4,4;4,4,2" --resolutions 128 256 512 --trials 100 \
        --seed 11 --out sweep.csv
    python scripts/probe_sweep.py --chain --triples "3,3,3;2,4,4;4,4,2;2,3,6" \
        --resolutions 128 256 512 --trials 20 --seed 1 --L 32 --out chain.json
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bmlab import engine, reporting
from bmlab.cli import EXIT_CHECK, EXIT_OK, probe_growth_ok, verdict
from bmlab.config import CURVE_FAMILIES, RunConfig, parse_triples
from bmlab.engine import ExponentTriple, probe_reports


def chain_sweep(cfg: RunConfig) -> tuple[list[dict], bool]:
    """One row per resolution of ``holder_chain_check`` over every triple and
    trial, and whether every call passed criterion 8's verdict."""
    seq = cfg.sequence()
    rows, ok = [], True
    for N in cfg.resolutions:
        ratio, gap, failed, elapsed = 0.0, 0.0, 0, 0.0
        for ti, t in enumerate(cfg.triples):
            e = ExponentTriple(*t)
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, N, ti)))
            cases = [tuple(engine.SampledFunction(rng.normal(size=N) + 1j * rng.normal(size=N), cfg.L)
                           for _ in range(3)) for _ in range(cfg.trials)]
            if ti == 0:  # warm the plan and the FFT tables, uncounted
                engine.holder_chain_check(seq, *cases[0], e)
            for f, g, h in cases:
                t0 = time.perf_counter()
                rep = engine.holder_chain_check(seq, f, g, h, e)
                elapsed += time.perf_counter() - t0
                ratio = max(ratio, rep.lhs / rep.rhs_product if rep.rhs_product > 0 else 0.0)
                gap = max(gap, rep.identity_gap)
                failed += not (rep.satisfied and rep.carleson_ok
                               and rep.identity_gap <= 1e-8 * max(1.0, rep.lhs))
        calls = len(cfg.triples) * cfg.trials
        rows.append({"N": N, "calls": calls, "worst_lhs_over_rhs": ratio, "max_identity_gap": gap,
                     "violations": failed, "ms_per_call": 1e3 * elapsed / calls})
        print(f"chain N={N}: worst lhs/rhs {ratio:.4f}, max gap {gap:.2e}, {rows[-1]['ms_per_call']:.3f} ms/call")
        ok = verdict(f"chain N={N} violations", failed, failed == 0, "== 0") and ok
    return rows, ok


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
    ap.add_argument("--chain", action="store_true",
                    help="run the Hölder chain on the staircase instead of the probes")
    ap.add_argument("--out", default=None, help="probe_sweep.csv, or chain_sweep.json with --chain")
    args = ap.parse_args()

    try:
        cfg = RunConfig(
            family=args.family, c=args.c, J=args.J, L=args.L,
            triples=parse_triples(args.triples), trials=args.trials, seed=args.seed,
            resolutions=args.resolutions, symbol_kind=args.symbol,
        ).validate()
        sym = cfg.symbol()
    except ValueError as exc:
        raise SystemExit(f"config error: {exc}")
    if args.chain:
        out = args.out or "chain_sweep.json"
        rows, ok = chain_sweep(cfg)
        reporting.write_json(out, {"family": cfg.family, "J": cfg.J, "L": cfg.L, "triples": cfg.triples,
                                   "trials": cfg.trials, "seed": cfg.seed, "rows": rows})
        print(f"wrote {out}")
        return EXIT_OK if ok else EXIT_CHECK
    rows = []
    ok = True
    triples = [ExponentTriple(*t) for t in cfg.triples]
    reports = probe_reports(sym, triples, cfg.trials, cfg.resolutions, cfg.seed, cfg.L)
    for t, rep in zip(cfg.triples, reports):
        rows.extend(rep.csv_rows())
        print(f"{sym.label} {t}: growth {rep.growth_factor:.3f}")
        ok = probe_growth_ok(rep) and ok
    out = args.out or "probe_sweep.csv"
    reporting.write_csv(out, ["p1", "p2", "p3", "N", "trial_family", "max_ratio"], list(zip(*rows)))
    print(f"wrote {out}")
    return EXIT_OK if ok else EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
