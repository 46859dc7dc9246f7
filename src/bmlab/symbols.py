"""Frequency-plane symbol constructors and decomposition identities.

Every symbol built here is an indicator on the (xi, eta) plane, packaged
with a bounding box.  It meets every xi-column in one eta-interval and is
defined by those column bounds, which implement the half-open boundary
conventions literally, so the staircase/boundary decomposition of an
epigraph and the rectangle-minus-complement rewrite hold exactly at every
grid point, not just almost everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .curves import CurveSpec, SequencePair

__all__ = [
    "SymbolSpec",
    "FrequencyGrid",
    "staircase_symbol",
    "increasing_staircase_symbol",
    "boundary_piece_symbol",
    "epigraph_symbol",
    "convex_polygon",
    "polygon_height",
    "polygonal_epigraph_symbol",
    "exponential_paraproduct_symbols",
    "exponential_paraproduct_sum",
    "hyp2_rewrite_pair",
    "constant_symbol",
    "rectangle_symbol",
    "sample_symbol",
    "bitmap_to_pgm",
]


@dataclass(frozen=True)
class SymbolSpec:
    """A multiplier symbol: the indicator of a set that meets every xi-column
    in one eta-interval.

    ``eta_bounds`` maps xi to (lo, hi), the column's interval [lo, hi); an
    empty column has lo >= hi.  A column open at some b stores lo =
    ``np.nextafter(b, np.inf)``, which holds the same floats, since none lies
    strictly between b and its successor.  The symbol is 1 on that set and 0
    off it.  Pointwise evaluation (``__call__``) and the grid profile
    (``columns``) both derive from ``eta_bounds`` with the same comparisons,
    so they cannot disagree.

    ``bbox`` is (xi_lo, xi_hi, eta_lo, eta_hi) outside which the symbol
    vanishes, or None for unbounded support.
    """

    eta_bounds: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    bbox: Optional[tuple[float, float, float, float]] = None
    label: str = ""

    def _bounds(self, xi):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return self.eta_bounds(xi)

    def __call__(self, xi, eta):
        lo, hi = self._bounds(np.asarray(xi, dtype=float))
        eta = np.asarray(eta, dtype=float)
        return np.where((eta >= lo) & (eta < hi), 1.0, 0.0)

    def columns(self, xi, eta_sorted) -> tuple[np.ndarray, np.ndarray]:
        """Grid profile on xi x eta_sorted (eta ascending): column i is
        nonzero exactly at the eta indices lo_idx[i] <= k < hi_idx[i]."""
        lo, hi = self._bounds(np.asarray(xi, dtype=float))
        lo_idx = np.searchsorted(eta_sorted, lo)
        return lo_idx, np.maximum(lo_idx, np.searchsorted(eta_sorted, hi, side="left"))


def _column(inside, lo, hi):
    """Column bounds (lo, hi) where ``inside``, the empty column elsewhere."""
    return np.where(inside, lo, np.inf), np.where(inside, hi, np.inf)


def _steps(seq: SequencePair):
    """The steps of a decreasing pair in ascending xi: step i spans
    [edges[i], edges[i+1]) and its column has the b of its right edge,
    edges = a_last .. a_first and b = b_{last-1} .. b_first."""
    if seq.direction != "decreasing":
        raise ValueError("steps are built from decreasing pairs")
    return seq.a[::-1], seq.b[-2::-1]


def _step_bounds(xi, edges, lo, hi):
    """Column bounds of xi-disjoint steps: step i spans [edges[i], edges[i+1])
    in xi (edges ascending) and has eta-bounds lo[i], hi[i]."""
    m = len(edges) - 1
    i = np.searchsorted(edges, xi, side="right") - 1
    i = np.where((i >= 0) & (i < m), i, m)  # index m is the empty column
    return (np.append(np.broadcast_to(lo, m), np.inf)[i],
            np.append(np.broadcast_to(hi, m), np.inf)[i])


def constant_symbol() -> SymbolSpec:
    """The symbol 1 on the whole plane."""
    return SymbolSpec(
        eta_bounds=lambda xi: (np.full_like(xi, -np.inf), np.full_like(xi, np.inf)),
        bbox=None,
        label="const(1.0)",
    )


def rectangle_symbol(xi_iv, eta_iv) -> SymbolSpec:
    """Indicator of [xi_lo, xi_hi) x [eta_lo, eta_hi)."""
    (xlo, xhi), (elo, ehi) = xi_iv, eta_iv
    return SymbolSpec(
        eta_bounds=lambda xi: _column((xi >= xlo) & (xi < xhi), elo, ehi),
        bbox=(xlo, xhi, elo, ehi),
        label="rectangle",
    )


def staircase_symbol(seq: SequencePair) -> SymbolSpec:
    """Sum over j of 1_[a_{j+1}, a_j)(xi) * 1_[b_j, b_top)(eta), decreasing pairs.

    b_top is the first stored b, so the leading step's column [b_top, b_top)
    is empty.
    """
    if seq.direction != "decreasing":
        raise ValueError("use increasing_staircase_symbol for increasing pairs")
    a = seq.a
    b = seq.b
    b_top = float(b[0])
    edges, lows = _steps(seq)
    bbox = (float(a[-1]), float(a[1]), float(b[-1]), b_top)
    return SymbolSpec(
        eta_bounds=lambda xi: _step_bounds(xi, edges, lows, b_top), bbox=bbox, label="staircase"
    )


def increasing_staircase_symbol(u: SequencePair, v: SequencePair) -> SymbolSpec:
    """Sum over j of 1_(u_0, u_j](xi) * 1_[v_j, v_{j+1})(eta), increasing pairs."""
    if u.direction != "increasing" or v.direction != "increasing":
        raise ValueError("increasing staircase needs strictly increasing pairs")
    if len(u.a) != len(v.a):
        raise ValueError("u and v must share the truncation")
    uu = u.a
    vv = v.a
    u0 = float(uu[0])
    last = len(uu) - 1

    def bounds(xi):
        # terms k = 1 .. last - 1 with xi <= u_k have contiguous eta-intervals,
        # whose union is [v_kmin, v_last) for the first such k
        kmin = np.searchsorted(uu[1:last], xi, side="left") + 1
        return _column((xi > u0) & (kmin < last), vv[kmin], vv[last])

    bbox = (u0, float(uu[-2]), float(vv[1]), float(vv[-1]))
    return SymbolSpec(eta_bounds=bounds, bbox=bbox, label="increasing_staircase")


def boundary_piece_symbol(curve: CurveSpec, seq: SequencePair, j: int) -> SymbolSpec:
    """Indicator of {a_{j+1} <= xi < a_j, gamma(xi) <= eta < b_j}."""
    seq.require_segment(j)
    alo, ahi = seq.a_at(j + 1), seq.a_at(j)
    btop = seq.b_at(j)

    def bounds(xi):
        strip = (xi >= alo) & (xi < ahi)
        return _column(strip, curve.gamma(np.where(strip, xi, 0.5 * (alo + ahi))), btop)

    return SymbolSpec(
        eta_bounds=bounds,
        bbox=(alo, ahi, seq.b_at(j + 1), btop),
        label=f"boundary_piece[{j}]",
    )


def epigraph_symbol(curve: CurveSpec, restriction: tuple[float, float]) -> SymbolSpec:
    """Indicator of {xi in [lo, hi), eta >= gamma(xi)} (closed at the graph)."""
    lo, hi = float(restriction[0]), float(restriction[1])
    if not lo < hi:
        raise ValueError("empty restriction interval")

    anchor = 0.5 * (lo + hi) if math.isfinite(lo) else hi - 1.0

    def bounds(xi):
        strip = (xi >= lo) & (xi < hi)
        return _column(strip, curve.gamma(np.where(strip, xi, anchor)), np.inf)

    return SymbolSpec(eta_bounds=bounds, bbox=None, label="epigraph")


def convex_polygon(vertices) -> np.ndarray:
    """The rows (a_j, b_j) of ``vertices`` as a float array, checked to be a
    convex polygonal curve with slopes in (0, 1): strictly decreasing in both
    coordinates, every segment slope in (0, 1) and the slopes strictly
    decreasing, so the epigraph is convex.  The first offending segment index
    is reported otherwise.
    """
    pts = np.asarray(vertices, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two vertices")
    da, db = np.diff(pts[:, 0]), np.diff(pts[:, 1])
    if not (np.all(da < 0) and np.all(db < 0)):
        raise ValueError("vertices must be strictly decreasing in both coordinates")
    slopes = db / da
    for k, s in enumerate(slopes.tolist()):
        if not 0.0 < s < 1.0:
            raise ValueError(f"segment {k} has slope {s} outside (0, 1)")
    bad = np.flatnonzero(slopes[1:] >= slopes[:-1]) + 1
    if len(bad):
        k = int(bad[0])
        raise ValueError(f"segment {k} has slope {slopes[k]}, not below segment {k - 1}'s "
                         f"{slopes[k - 1]}: the vertices are not convex")
    return pts


def polygon_height(vertices: np.ndarray, xi) -> np.ndarray:
    """Height of the polygonal curve through the rows (a_j, b_j) of
    ``vertices`` (a decreasing) at ``xi``: piecewise-linear between the
    vertices, end segments extended linearly."""
    xs = vertices[::-1, 0]
    ys = vertices[::-1, 1]
    xi = np.asarray(xi, dtype=float)
    out = np.interp(xi, xs, ys)
    s_lo = (ys[1] - ys[0]) / (xs[1] - xs[0])
    s_hi = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
    out = np.where(xi < xs[0], ys[0] + s_lo * (xi - xs[0]), out)
    return np.where(xi > xs[-1], ys[-1] + s_hi * (xi - xs[-1]), out)


def polygonal_epigraph_symbol(vertices) -> SymbolSpec:
    """Indicator of the region on or above the polygonal curve through
    ``vertices``, restricted to the xi-range [a_last, a_first).

    The vertices must pass ``convex_polygon``.
    """
    pts = convex_polygon(vertices)
    lo, hi = pts[-1, 0], pts[0, 0]

    def bounds(xi):
        return _column((xi >= lo) & (xi < hi), polygon_height(pts, xi), np.inf)

    return SymbolSpec(
        eta_bounds=bounds,
        bbox=None,
        label="polygonal_epigraph",
    )


def exponential_paraproduct_symbols(J: int):
    """The three staircase pieces inscribed in eta = 2^xi, truncated at J.

    m1: steps [-(j+1), -j) x [2^-j, 1) for j = 0..J.
    m2: columns (0, j) x [2^j, 2^{j+1}) for j = 1..J (open xi-interval).
    m3: quadrant {xi <= 0, eta >= 1}.
    """
    if J < 1:
        raise ValueError("J must be positive")
    # m1 is the staircase of the pair (-j, 2^-j), j = 0 .. J + 1
    j = np.arange(J + 2.0)
    edges1, lows1 = _steps(SequencePair(-j, 2.0**-j))
    js = np.arange(1.0, J + 1.0)

    def bounds2(xi):
        # the columns (0, j) containing xi are j = jmin .. J, whose
        # eta-intervals join into [2^jmin, 2^(J+1))
        i = np.searchsorted(js, xi, side="right")
        return _column((xi > 0.0) & (i < J), 2.0 ** (i + 1.0), 2.0 ** (J + 1))

    m1 = SymbolSpec(
        eta_bounds=lambda xi: _step_bounds(xi, edges1, lows1, 1.0),
        bbox=(-(J + 1.0), 0.0, 2.0**-J, 1.0),
        label="exp_m1",
    )
    m2 = SymbolSpec(eta_bounds=bounds2, bbox=(0.0, float(J), 2.0, 2.0 ** (J + 1)), label="exp_m2")
    m3 = SymbolSpec(eta_bounds=lambda xi: _column(xi <= 0.0, 1.0, np.inf), bbox=None, label="exp_m3")
    return m1, m2, m3


def exponential_paraproduct_sum(J: int) -> SymbolSpec:
    """m1 + m2 + m3 as one symbol.

    The pieces are disjoint: for xi <= 0 the steps of m1 sit right below the
    quadrant m3, so the column is [2^-j, inf) on a step of m1 and [1, inf)
    elsewhere; for xi > 0 only m2 is present.
    """
    m1, m2, m3 = exponential_paraproduct_symbols(J)

    def bounds(xi):
        lo1, _ = m1.eta_bounds(xi)
        lo2, hi2 = m2.eta_bounds(xi)
        left = xi <= 0.0
        return np.where(left, np.minimum(lo1, 1.0), lo2), np.where(left, np.inf, hi2)

    return SymbolSpec(eta_bounds=bounds, bbox=None, label="exp_paraproduct_sum")


def hyp2_rewrite_pair(seq: SequencePair):
    """Rectangle and complement staircase whose difference is the staircase.

    rect = 1_{a_inf < xi < a_first} * 1_{b_inf < eta < b_top}; complement =
    sum over j of 1_[a_{j+1}, a_j)(xi) * 1_(b_inf, b_j)(eta).  When a_inf is
    -infinity the rectangle's xi-side is truncated to [a_last, a_first) and
    flagged.  rect - complement equals the staircase pointwise for xi in the
    resolved strip [a_last, a_first).  An open end a_inf is stored as the
    next float above it, as ``SymbolSpec`` stores open lower bounds.
    """
    if seq.direction != "decreasing":
        raise ValueError("rewrite applies to decreasing pairs")
    if seq.b_inf is None or not math.isfinite(seq.b_inf):
        raise ValueError("limit required: rewrite needs a finite b_inf")
    b_inf = float(seq.b_inf)
    above = np.nextafter(b_inf, np.inf)  # the eta-intervals are open at b_inf
    a = seq.a
    b_top = float(seq.b[0])
    edges, highs = _steps(seq)
    tail_truncated = seq.a_inf is None or not math.isfinite(seq.a_inf)
    a_end = float(a[-1]) if tail_truncated else float(seq.a_inf)
    xi_lo = a_end if tail_truncated else np.nextafter(a_end, np.inf)
    rect = SymbolSpec(
        eta_bounds=lambda xi: _step_bounds(xi, (xi_lo, a[0]), above, b_top),
        bbox=(a_end, float(a[0]), b_inf, b_top),
        label="rewrite_rect" + ("_tail_truncated" if tail_truncated else ""),
    )
    comp = SymbolSpec(
        eta_bounds=lambda xi: _step_bounds(xi, edges, above, highs),
        bbox=(float(a[-1]), float(a[0]), b_inf, b_top),
        label="rewrite_complement",
    )
    return rect, comp


# --- sampling -----------------------------------------------------------------


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform cell-center sampling of a frequency window."""

    window: tuple[float, float, float, float]  # xi_lo, xi_hi, eta_lo, eta_hi
    nx: int
    ny: int

    def xi_values(self) -> np.ndarray:
        xlo, xhi, _, _ = self.window
        return xlo + (xhi - xlo) * (np.arange(self.nx) + 0.5) / self.nx

    def eta_values(self) -> np.ndarray:
        _, _, elo, ehi = self.window
        return elo + (ehi - elo) * (np.arange(self.ny) + 0.5) / self.ny


def sample_symbol(sym: SymbolSpec, grid: FrequencyGrid) -> np.ndarray:
    """Row-major bitmap: entry [i, k] is the symbol at (xi_i, eta_k), read
    off the grid profile ``sym.columns``."""
    eta = grid.eta_values()
    lo, hi = sym.columns(grid.xi_values(), eta)
    k = np.arange(len(eta))
    return ((k >= lo[:, None]) & (k < hi[:, None])).astype(float)


def bitmap_to_pgm(bitmap: np.ndarray) -> str:
    """Plain PGM (P2) text; rows run from the top of the eta axis down.  Each
    gray level is looked up as a NUL-padded "v " ("v\\n" at a row's end)."""
    values = np.asarray(bitmap, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("bitmap has a non-finite pixel")
    rows = np.ascontiguousarray(np.clip(np.rint(values * 255), 0, 255).astype(np.uint8).T[::-1])
    table = np.array([[b"%d " % v, b"%d\n" % v] for v in range(256)], dtype="S4")
    cells = table[rows, 0]
    cells[:, -1:] = table[rows[:, -1:], 1]
    body = cells.tobytes().replace(b"\0", b"").decode("ascii") if rows.shape[1] else "\n" * len(rows)
    return f"P2\n{rows.shape[1]} {rows.shape[0]}\n255\n" + body
