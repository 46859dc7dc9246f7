"""Deterministic report writers: JSON, CSV, PGM, SVG, all written atomically.

Floats are serialized with shortest round-trip repr, keys sorted, newlines
fixed, so a rerun with identical inputs produces byte-identical files.
"""

from __future__ import annotations

import contextlib
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
    "write_grid_csv",
    "rects_to_svg",
]

CSV_BLOCK_ROWS = 1 << 13  # rows per joined block of the CSV writers; 4096-65536 measured alike
SVG_PAD_FRAC = 0.05  # margin of rects_to_svg, a fraction of the drawing's larger extent


@contextlib.contextmanager
def _atomic_file(path: str):
    """A text file that replaces ``path`` when the block completes, else is removed."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str):
    with _atomic_file(path) as fh:
        fh.write(text)


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


def _texts_by_bits(col: np.ndarray, fmt) -> tuple[np.ndarray, np.ndarray]:
    """A numeric numpy column as the texts ``fmt(v)`` of its distinct values,
    one per distinct bit pattern (so -0.0 and 0.0 stay apart), and each row's
    index into them."""
    col = col.ravel()
    bits, inverse = np.unique(col.view(f"u{col.itemsize}"), return_inverse=True)
    return np.array([fmt(v) for v in bits.view(col.dtype).tolist()], dtype=object), inverse


def _column_text(col) -> tuple[np.ndarray, np.ndarray]:
    """One column as its distinct texts (as ``_fmt`` writes them) and each row's
    index into them.  A numeric numpy column is formatted once per distinct bit
    pattern; any other sequence once per cell."""
    if not isinstance(col, np.ndarray) or col.dtype.kind not in "buif":
        text = np.array([_fmt(v) for v in col], dtype=object)
        return text, np.arange(len(text))
    return _texts_by_bits(col, repr if col.dtype.kind == "f" else str)


def write_csv(path: str, header, columns):
    """CSV with one column per entry of ``columns`` (arrays or sequences of
    equal length).  Each block of ``CSV_BLOCK_ROWS`` rows is laid out as an
    object array of cells and separators and written with one join."""
    cells = [_column_text(c) for c in columns]
    if len({len(index) for _, index in cells}) > 1:
        raise ValueError("CSV columns differ in length")
    rows = len(cells[0][1]) if cells else 0
    block = np.empty((min(rows, CSV_BLOCK_ROWS), 2 * len(cells)), dtype=object)
    block[:, 1::2] = ","
    block[:, -1:] = "\n"
    with _atomic_file(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, CSV_BLOCK_ROWS):
            part = block[: rows - start]
            for i, (text, row) in enumerate(cells):
                part[:, 2 * i] = text[row[start : start + len(part)]]
            fh.write("".join(part.ravel().tolist()))


def write_grid_csv(path: str, header, xi, eta, lo, hi):
    """The CSV ``write_csv`` makes of the columns ``np.repeat(xi, ny)``,
    ``np.tile(eta, nx)`` and the ravelled (nx, ny) indicator that is 1.0
    exactly at the eta indices lo[i] <= k < hi[i] of row i (a grid profile,
    lo <= hi, as ``SymbolSpec.columns`` gives).  The text after an xi is
    built once per (eta index, value), each xi's rows are one join with the
    xi's text as separator, and whole xi rows go out in blocks of about
    ``CSV_BLOCK_ROWS`` rows."""
    xi, eta = np.asarray(xi), np.asarray(eta)
    if not len(xi) == len(lo) == len(hi):
        raise ValueError(f"the profile has {len(lo)} lo and {len(hi)} hi entries for {len(xi)} xi rows")
    ny = len(eta)
    eta_text = [_fmt(v) for v in eta.tolist()]
    off, on = [f",{t},0.0\n" for t in eta_text], [f",{t},1.0\n" for t in eta_text]
    rows = list(zip(map(_fmt, xi.tolist()), np.asarray(lo).tolist(), np.asarray(hi).tolist()))
    step = max(1, CSV_BLOCK_ROWS // max(ny, 1))
    with _atomic_file(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows) if ny else 0, step):
            fh.write("".join(p + p.join(off[:a] + on[a:b] + off[b:]) for p, a, b in rows[start : start + step]))


def rects_to_svg(rects, curve_points) -> str:
    """Simple SVG of tile rectangles (a ``whitney.RectCover``) and the curve
    polyline through ``curve_points``; an empty cover draws the curve alone."""
    (bx0, bx1), (by0, by1), _ = rects.edges()
    pts = np.asarray(curve_points, dtype=float)
    xs, ys = np.concatenate((bx0, bx1, pts[:, 0])), np.concatenate((by0, by1, pts[:, 1]))
    if not len(xs):
        raise ValueError("no rectangles or curve to draw")
    xlo, xhi, ylo, yhi = xs.min(), xs.max(), ys.min(), ys.max()
    pad = SVG_PAD_FRAC * max(xhi - xlo, yhi - ylo)
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
    # each distinct coordinate is formatted once; a cover repeats most of them
    columns = (X(bx0), Y(by1), (bx1 - bx0) * scale, (by1 - by0) * scale)
    cells = [text[index].tolist() for text, index in (_texts_by_bits(c, "{:.3f}".format) for c in columns)]
    parts.extend(
        f'<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="none" stroke="black" stroke-width="0.4"/>'
        for x, y, w, h in zip(*cells)
    )
    path = " ".join(f"{X(x):.3f},{Y(y):.3f}" for x, y in pts)
    parts.append(f'<polyline points="{path}" fill="none" stroke="red" stroke-width="1.0"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
