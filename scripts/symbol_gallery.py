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

from bmlab import curves, reporting, whitney
from bmlab.symbols import (
    FrequencyGrid,
    bitmap_to_pgm,
    epigraph_symbol,
    exponential_paraproduct_sum,
    polygonal_epigraph_symbol,
    sample_symbol,
    staircase_symbol,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="gallery")
    ap.add_argument("--n", type=int, default=512)
    args = ap.parse_args()
    out = Path(args.out)

    renders = []
    hyper = curves.hyperboloid()
    seq = curves.build_dyadic_slope_sequence(hyper, 8)
    box = (float(seq.a[-1]), float(seq.a[0]), 0.95, float(seq.b[0]) + 0.05)
    renders.append(("hyperboloid_staircase", staircase_symbol(seq), box))
    renders.append(("hyperboloid_epigraph",
                    epigraph_symbol(hyper, (float(seq.a[-1]), float(seq.a[0]))), box))
    renders.append(("hyperboloid_polygon",
                    polygonal_epigraph_symbol(np.column_stack([seq.a, seq.b])), box))

    power = curves.build_dyadic_slope_sequence(curves.power_law(1.0), 8)
    renders.append((
        "power_law_staircase", staircase_symbol(power),
        (float(power.a[-1]), float(power.a[0]), 0.0, 1.05),
    ))

    renders.append(("exponential_paraproduct", exponential_paraproduct_sum(4),
                    (-6.0, 5.0, -1.0, 17.0)))

    for name, sym, window in renders:
        grid = FrequencyGrid(window=window, nx=args.n, ny=args.n)
        reporting.atomic_write_text(str(out / f"{name}.pgm"), bitmap_to_pgm(sample_symbol(sym, grid)))
        print(f"rendered {name}")

    poly = whitney.PolygonalGeometry.from_sequence(
        curves.build_dyadic_slope_sequence(hyper, 12)
    )
    rep = whitney.build_cover(poly, poly.first_index, alpha=0.9, C0=16.0, samples=4000)
    svg = reporting.rects_to_svg(rep.rects, curve_points=poly.vertices)
    reporting.atomic_write_text(str(out / "whitney_cover.svg"), svg)
    print(f"rendered whitney cover ({len(rep.rects)} tiles), cover_ok={rep.cover_ok}")


if __name__ == "__main__":
    main()
