#!/usr/bin/env python3
"""Time the bilinear action per symbol kind and count the probe's page faults;
print the table as JSON.

For every ``config.SYMBOL_KINDS`` kind on the hyperboloid (J = 8) and both
``hyp2_rewrite_pair`` symbols, at each (N, L, T) of ``GRIDS``, the table holds
the best time in µs of:

* ``per_trial``: T pair calls of the action, their outputs stacked with
  ``np.stack``, as the probe applied a batch one trial at a time;
* ``stacked``: one call on the two (T, N) stacks, or null where the action
  takes one pair at a time.

It also holds ``chain_pair_us``, the pair action of the Hölder chain's
staircase at N = 128, L = 32, and ``probe_faults``, the minor page faults
(getrusage) of a warm ``norm_probe`` call with 16 trials at L = 48.  The
package comes from ``--src``, so one script times any checkout:

    python3 tests/action_table.py --src path/to/other/checkout/src > table.json
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import timeit
from pathlib import Path

import numpy as np

GRIDS = ((128, 32.0, 50), (256, 48.0, 3), (2048, 48.0, 3), (2048, 32.0, 4))
FAULT_GRIDS = (2048, 4096)


def best_us(call, budget_s: float = 0.2, repeat: int = 7) -> float:
    """Best of ``repeat`` timings of ``call``, in µs per call, each timing
    about ``budget_s`` / ``repeat`` long."""
    once = timeit.timeit(call, number=1)
    number = max(1, int(budget_s / repeat / max(once, 1e-7)))
    return min(timeit.repeat(call, number=number, repeat=repeat)) / number * 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                    help="directory holding the bmlab package (default: this checkout's src)")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    from bmlab import curves, engine
    from bmlab.config import SYMBOL_KINDS, RunConfig
    from bmlab.symbols import hyp2_rewrite_pair, staircase_symbol

    cfg = RunConfig(family="hyperboloid")
    syms = {kind: build(cfg) for kind, build in SYMBOL_KINDS.items()}
    syms.update((sym.label, sym) for sym in hyp2_rewrite_pair(cfg.sequence()))
    rng = np.random.default_rng(0)
    table = []
    for N, L, T in GRIDS:
        c, d = (rng.normal(size=(T, N)) + 1j * rng.normal(size=(T, N)) for _ in range(2))
        for name, sym in syms.items():
            act = engine._bilinear_action(sym, engine._freq_grid(N, L))
            row = {"symbol": name, "N": N, "L": L, "T": T,
                   "per_trial": best_us(lambda: np.stack([act(ci, di) for ci, di in zip(c, d)]))}
            try:
                act(c, d)
                row["stacked"] = best_us(lambda: act(c, d))
            except ValueError:  # np.convolve takes one row
                row["stacked"] = None
            table.append(row)

    seq = curves.build_dyadic_slope_sequence(curves.hyperboloid(), 8)
    stair = staircase_symbol(seq)
    act = engine._bilinear_action(stair, engine._freq_grid(128, 32.0))
    c, d = c[0, :128].copy(), d[0, :128].copy()
    chain_pair_us = best_us(lambda: act(c, d))

    faults = []
    e = engine.ExponentTriple(3, 3, 3)
    for name, sym in (("staircase", stair), ("polygonal", syms["polygonal"])):
        for N in FAULT_GRIDS:
            engine.norm_probe(sym, e, 16, [N], 1, 48.0)
            counts = []
            for _ in range(5):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                engine.norm_probe(sym, e, 16, [N], 1, 48.0)
                counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            faults.append({"symbol": name, "N": N, "trials": 16, "min": min(counts), "max": max(counts)})
    json.dump({"action_us": table, "chain_pair_us": chain_pair_us, "probe_faults": faults}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
