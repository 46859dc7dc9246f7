#!/usr/bin/env python3
"""Render the standard symbols as PGM bitmaps plus a Whitney-cover SVG.

Example:
    python scripts/symbol_gallery.py --out gallery/
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bmlab import reporting, whitney
from bmlab.config import RunConfig
from bmlab.symbols import FrequencyGrid, bitmap_to_pgm, sample_symbol


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="gallery")
    ap.add_argument("--n", type=int, default=512)
    args = ap.parse_args()
    out = Path(args.out)

    # each symbol comes from a config, whose defaults are the hyperboloid at J = 8
    hyper = RunConfig().sequence()
    power = RunConfig(family="power_law", c=1.0).sequence()
    box = (float(hyper.a[-1]), float(hyper.a[0]), 0.95, float(hyper.b[0]) + 0.05)
    renders = [
        ("hyperboloid_staircase", {}, box),
        ("hyperboloid_epigraph", {"symbol_kind": "epigraph"}, box),
        ("hyperboloid_polygon", {"symbol_kind": "polygonal"}, box),
        ("power_law_staircase", {"family": "power_law", "c": 1.0},
         (float(power.a[-1]), float(power.a[0]), 0.0, 1.05)),
        ("exponential_paraproduct", {"symbol_kind": "exponential_paraproduct", "J": 4},
         (-6.0, 5.0, -1.0, 17.0)),
    ]
    for name, keys, window in renders:
        grid = FrequencyGrid(window=window, nx=args.n, ny=args.n)
        sym = RunConfig(**keys).symbol()
        reporting.atomic_write_text(str(out / f"{name}.pgm"), bitmap_to_pgm(sample_symbol(sym, grid)))
        print(f"rendered {name}")

    seq = RunConfig(J=12).sequence()
    rep = whitney.build_cover(seq, seq.j0, alpha=0.9, C0=16.0, samples=4000)
    svg = reporting.rects_to_svg(rep.rects, curve_points=np.column_stack([seq.a, seq.b]))
    reporting.atomic_write_text(str(out / "whitney_cover.svg"), svg)
    print(f"rendered whitney cover ({len(rep.rects)} tiles), cover_ok={rep.cover_ok}")


if __name__ == "__main__":
    main()
