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
staircase at N = 128, L = 32; ``probe_faults``, the minor page faults
(getrusage) of a ``norm_probe`` call with 16 trials at L = 48, its action
built and its trial draws not yet; ``probe_us``, the best time of one
``norm_probe`` call at (N, T) = (2048, 3), L = 48, with the trial draws
cold (the draw cache cleared first), missed (a new seed each call, the
cache kept) and warm (read from the cache); and ``probe_pass_ms``, the
median of ``--passes`` perfbench ``probe_scaling`` passes at seed 1 with
the draw cache warm and cleared at each pass start, the two kinds
alternating, and the share of a cleared pass's batch draws that the cache
serves.  A checkout without the draw cache runs every kind alike.  The
package comes from ``--src``, so one script times any checkout:

    python3 tests/action_table.py --src path/to/other/checkout/src > table.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
import timeit
from pathlib import Path
from time import perf_counter

import numpy as np

GRIDS = ((128, 32.0, 50), (256, 48.0, 3), (2048, 48.0, 3), (2048, 32.0, 4))
FAULT_GRIDS = (2048, 4096)
ROOT = Path(__file__).resolve().parents[1]


def best_us(call, budget_s: float = 0.2, repeat: int = 7) -> float:
    """Best of ``repeat`` timings of ``call``, in µs per call, each timing
    about ``budget_s`` / ``repeat`` long."""
    once = timeit.timeit(call, number=1)
    number = max(1, int(budget_s / repeat / max(once, 1e-7)))
    return min(timeit.repeat(call, number=number, repeat=repeat)) / number * 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the bmlab package (default: this checkout's src)")
    ap.add_argument("--passes", type=int, default=60, help="probe_scaling passes of each kind (default: 60)")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    sys.path.append(str(ROOT / "perfbench"))
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

    cache = getattr(engine, "_trial_stacks", None)
    clear = cache.cache_clear if cache else lambda: None
    faults, probe_us = [], []
    e = engine.ExponentTriple(3, 3, 3)
    for name, sym in (("staircase", stair), ("polygonal", syms["polygonal"])):
        for N in FAULT_GRIDS:
            engine.norm_probe(sym, e, 16, [N], 1, 48.0)
            counts = []
            for _ in range(5):
                clear()
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                engine.norm_probe(sym, e, 16, [N], 1, 48.0)
                counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            faults.append({"symbol": name, "N": N, "trials": 16, "min": min(counts), "max": max(counts)})
        probe = lambda seed=1: engine.norm_probe(sym, e, 3, [2048], seed, 48.0)  # noqa: E731
        seeds = itertools.count(2)
        probe_us.append({"symbol": name, "N": 2048, "trials": 3, "cold": best_us(lambda: (clear(), probe())),
                         "missed": best_us(lambda: probe(next(seeds))), "warm": best_us(probe)})

    from workloads import ProbeScaling
    work = ProbeScaling(1, None)
    ms, outputs, checks, served = {"cleared": [], "warm": []}, set(), set(), None
    for i in range(2 * args.passes):
        kind = ("cleared", "warm")[i % 2]
        if kind == "cleared":
            clear()
        t0 = perf_counter()
        res = work.run_pass()
        ms[kind].append((perf_counter() - t0) * 1e3)
        if kind == "cleared" and cache:
            info = cache.cache_info()  # cache_clear zeroed its counts
            served = info.hits / (info.hits + info.misses)
        outputs.add(json.dumps(res.outputs))
        checks.add(work.verify_pass(res)["reference"])
    pass_ms = {kind: statistics.median(v) for kind, v in ms.items()}
    pass_ms.update(passes=args.passes, cleared_served_frac=served, outputs_identical=len(outputs) == 1,
                   reference=sorted(checks))
    json.dump({"action_us": table, "chain_pair_us": chain_pair_us, "probe_faults": faults, "probe_us": probe_us,
               "probe_pass_ms": pass_ms}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
