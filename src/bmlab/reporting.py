"""Deterministic report writers: JSON, CSV, PGM, SVG, all written atomically.

Floats are serialized with shortest round-trip repr, keys sorted, newlines
fixed, so a rerun with identical inputs produces byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

__all__ = [
    "atomic_write_text",
    "json_dumps",
    "write_json",
    "write_csv",
    "write_pgm",
    "rects_to_svg",
]


def atomic_write_text(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    if isinstance(obj, float) and not math.isfinite(obj):
        # strict JSON has no NaN or Infinity: NaN is null, +-inf a string
        return None if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def json_dumps(payload) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=1, allow_nan=False) + "\n"


def write_json(path: str, payload):
    atomic_write_text(path, json_dumps(payload))


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: str, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_pgm(path: str, pgm_text: str):
    atomic_write_text(path, pgm_text)


def rects_to_svg(rects, curve_points=None, pad_frac: float = 0.05) -> str:
    """Simple SVG of tile rectangles, optionally with the curve polyline."""
    boxes = [(r.xi_range[0], r.xi_range[1], r.eta_range[0], r.eta_range[1]) for r in rects]
    if not boxes:
        raise ValueError("no rectangles to draw")
    xlo = min(b[0] for b in boxes)
    xhi = max(b[1] for b in boxes)
    ylo = min(b[2] for b in boxes)
    yhi = max(b[3] for b in boxes)
    if curve_points is not None:
        pts = np.asarray(curve_points, dtype=float)
        xlo, xhi = min(xlo, pts[:, 0].min()), max(xhi, pts[:, 0].max())
        ylo, yhi = min(ylo, pts[:, 1].min()), max(yhi, pts[:, 1].max())
    pad = pad_frac * max(xhi - xlo, yhi - ylo)
    xlo, xhi, ylo, yhi = xlo - pad, xhi + pad, ylo - pad, yhi + pad
    W = 900.0
    scale = W / (xhi - xlo)
    H = (yhi - ylo) * scale

    def X(x):
        return (x - xlo) * scale

    def Y(y):
        return H - (y - ylo) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W:.0f}" height="{H:.0f}" '
        f'viewBox="0 0 {W:.0f} {H:.0f}">'
    ]
    for b in boxes:
        parts.append(
            f'<rect x="{X(b[0]):.3f}" y="{Y(b[3]):.3f}" width="{(b[1]-b[0])*scale:.3f}" '
            f'height="{(b[3]-b[2])*scale:.3f}" fill="none" stroke="black" stroke-width="0.4"/>'
        )
    if curve_points is not None:
        pts = np.asarray(curve_points, dtype=float)
        path = " ".join(f"{X(x):.3f},{Y(y):.3f}" for x, y in pts)
        parts.append(f'<polyline points="{path}" fill="none" stroke="red" stroke-width="1.0"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
