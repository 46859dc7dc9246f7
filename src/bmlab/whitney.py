"""Whitney tile geometry over polygonal epigraphs and the discretized model form.

Each boundary triangle of a polygonal curve (vertices on the curve, slopes in
(0,1)) is pulled back by the segment's anisotropic map to the normalized
right triangle {0 <= y <= x <= w} whose hypotenuse lies on the main diagonal.
Whitney squares for the diagonal, side 2^k and centers on the 2^(k-10)
lattice, cover that triangle off its hypotenuse; pushing them forward gives
rectangle covers whose edges generate the interval collections and frequency
cubes of the discretized trilinear form.

The lattice family is astronomically large at production constants, so cover
construction selects squares per sample point (scale from the diagonal gap,
center snapped to the lattice) and verifies the two dilation conditions for
every selected square; nothing is ever admitted unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bumps import adapted_bump, fejer_sq_cdf, fejer_sq_spectrum, soft_union
from .curves import SequencePair
from .engine import (
    SampledFunction, _analyze, _freq_grid, _pad, _period_pairing, _synthesize, apply_bilinear,
)
from .intervals import HalfOpenInterval
from .symbols import SymbolSpec

__all__ = [
    "WhitneySquare",
    "TileRect",
    "RectCover",
    "MultiTile",
    "PolygonalGeometry",
    "CoverReport",
    "enumerate_whitney_squares",
    "build_cover",
    "edge_interval_collections",
    "cube_condition",
    "enumerate_multitiles",
    "k_interval",
    "chi_values",
    "mollified_partition",
    "partition_check",
    "build_adjoint_symbol",
    "model_sum_eval",
    "r2_samples",
]

LATTICE_EXP = 10  # centers live on 2^(k - LATTICE_EXP) Z^2 for side 2^k


@dataclass(frozen=True)
class WhitneySquare:
    """Axis-aligned square, side 2^k, center on the scale lattice."""

    cx: float
    cy: float
    k: int

    @property
    def side(self) -> float:
        return 2.0**self.k

    def satisfies(self, C0: float) -> bool:
        """Dilation by C0 misses the diagonal, dilation by 4 C0 meets it.

        For an axis-aligned square both reduce to exact comparisons of the
        center gap |cx - cy| against multiples of the side.
        """
        gap = abs(self.cx - self.cy)
        s = self.side
        return C0 * s < gap <= 4.0 * C0 * s


def enumerate_whitney_squares(
    C0: float,
    window: tuple[float, float, float, float],
    scale_range: tuple[int, int],
    lattice_exp: int = LATTICE_EXP,
    max_count: int = 2_000_000,
) -> list[WhitneySquare]:
    """Every lattice square meeting the window that passes both conditions.

    ``scale_range`` is an inclusive pair (k_min, k_max).  The literal lattice
    is extremely fine; the enumeration walks only the diagonal band allowed
    by the conditions and refuses (with a hint) beyond ``max_count``
    candidates.
    """
    k_min, k_max = scale_range
    if k_min > k_max:
        raise ValueError("empty scale range")
    xlo, xhi, ylo, yhi = window
    out = []
    for k in range(k_min, k_max + 1):
        s = 2.0**k
        delta = 2.0 ** (k - lattice_exp)
        # center ranges for squares meeting the window
        pxlo = math.ceil((xlo - s / 2) / delta)
        pxhi = math.floor((xhi + s / 2) / delta)
        # the band C0*2^lattice_exp < |px - py| <= 4*C0*2^lattice_exp
        dlo = math.floor(C0 * 2.0**lattice_exp)
        dhi = math.floor(4.0 * C0 * 2.0**lattice_exp)
        span = (pxhi - pxlo + 1) * 2 * max(0, dhi - dlo)
        if span > max_count:
            raise ValueError(
                "lattice enumeration too large; shrink the window, coarsen "
                "lattice_exp, or use build_cover for constructive selection"
            )
        pylo = math.ceil((ylo - s / 2) / delta)
        pyhi = math.floor((yhi + s / 2) / delta)
        for px in range(pxlo, pxhi + 1):
            for sign in (1, -1):
                for d in range(dlo + 1, dhi + 1):
                    py = px - sign * d
                    if py < pylo or py > pyhi:
                        continue
                    sq = WhitneySquare(cx=px * delta, cy=py * delta, k=k)
                    if sq.satisfies(C0):
                        out.append(sq)
    return out


# --- polygon geometry ----------------------------------------------------------


@dataclass(frozen=True)
class PolygonalGeometry:
    """Vertices (a_j, b_j), j = first .. first + n, decreasing in both coords."""

    vertices: np.ndarray
    first_index: int = 0

    def __post_init__(self):
        pts = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", pts)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("need at least two vertices")
        if not (np.all(np.diff(pts[:, 0]) < 0) and np.all(np.diff(pts[:, 1]) < 0)):
            raise ValueError("vertices must be strictly decreasing in both coordinates")

    @classmethod
    def from_sequence(cls, seq: SequencePair) -> "PolygonalGeometry":
        return cls(vertices=np.column_stack([seq.a, seq.b]), first_index=seq.first_index())

    def segment_indices(self) -> range:
        return range(self.first_index, self.first_index + len(self.vertices) - 1)

    def _row(self, j: int) -> int:
        row = j - self.first_index
        if row < 0 or row >= len(self.vertices) - 1:
            raise ValueError(f"segment {j} outside the vertex range")
        return row

    def anchor(self, j: int) -> tuple[float, float]:
        row = self._row(j)
        return tuple(self.vertices[row])

    def width(self, j: int) -> float:
        row = self._row(j)
        return float(self.vertices[row, 0] - self.vertices[row + 1, 0])

    def slope(self, j: int) -> float:
        row = self._row(j)
        (a0, b0), (a1, b1) = self.vertices[row], self.vertices[row + 1]
        return float((b0 - b1) / (a0 - a1))

    def triangle(self, j: int) -> np.ndarray:
        """Vertices (a_j, b_j), (a_{j+1}, b_j), (a_{j+1}, b_{j+1})."""
        row = self._row(j)
        (a0, b0), (a1, b1) = self.vertices[row], self.vertices[row + 1]
        return np.array([[a0, b0], [a1, b0], [a1, b1]])

    def curve_height(self, xi) -> np.ndarray:
        """Piecewise-linear interpolant, end segments extended linearly."""
        xs = self.vertices[::-1, 0]
        ys = self.vertices[::-1, 1]
        xi = np.asarray(xi, dtype=float)
        out = np.interp(xi, xs, ys)
        s_lo = (ys[1] - ys[0]) / (xs[1] - xs[0])
        s_hi = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        out = np.where(xi < xs[0], ys[0] + s_lo * (xi - xs[0]), out)
        out = np.where(xi > xs[-1], ys[-1] + s_hi * (xi - xs[-1]), out)
        return out

    def epigraph_contains(self, xi, eta, tol: float = 0.0) -> np.ndarray:
        return np.asarray(eta, dtype=float) >= self.curve_height(xi) - tol


def _edges(cx, cy, side, anchor, s_j):
    """The three edges of the pushforwards of squares centered at (cx, cy):
    the xi-extent a_j - I, the eta-extent b_j - s_j Jn and -edge1 - edge2
    (K shifted by -(a_j + b_j)).  Scalars for a TileRect, arrays for a RectCover."""
    h = 0.5 * side
    a, b = anchor
    xlo, xhi, elo, ehi = a - (cx + h), a - (cx - h), b - s_j * (cy + h), b - s_j * (cy - h)
    return (xlo, xhi), (elo, ehi), (-xhi - ehi, -xlo - elo)


@dataclass(frozen=True)
class TileRect:
    """Pushforward of a Whitney square through a segment's anisotropic map.

    The generating square S = I x J sits in normalized coordinates; the
    rectangle is (a_j, b_j) + (-I) x (-s_j J), so its xi-side has the
    square's length and its eta-side is shorter by the factor s_j.
    """

    j: int
    square: WhitneySquare
    anchor: tuple[float, float]
    s_j: float

    @property
    def I(self) -> tuple[float, float]:
        h = 0.5 * self.square.side
        return (self.square.cx - h, self.square.cx + h)

    @property
    def Jn(self) -> tuple[float, float]:
        h = 0.5 * self.square.side
        return (self.square.cy - h, self.square.cy + h)

    def edges(self) -> tuple[tuple[float, float], ...]:
        """xi-extent, eta-extent and -edge1 - edge2 (see ``_edges``)."""
        sq = self.square
        return _edges(sq.cx, sq.cy, sq.side, self.anchor, self.s_j)

    @property
    def xi_range(self) -> tuple[float, float]:
        return self.edges()[0]

    @property
    def eta_range(self) -> tuple[float, float]:
        return self.edges()[1]

    @property
    def aspect(self) -> float:
        (xlo, xhi), (elo, ehi) = self.xi_range, self.eta_range
        return (ehi - elo) / (xhi - xlo)

    def edge3(self) -> tuple[float, float]:
        return self.edges()[2]

    def omegas(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """omega1 = -I and omega2 = -s_j Jn: the rectangle's sides about its anchor."""
        (ilo, ihi), (jlo, jhi) = self.I, self.Jn
        return (-ihi, -ilo), (-self.s_j * jhi, -self.s_j * jlo)


@dataclass(frozen=True, eq=False)
class RectCover:
    """The rectangles of one segment's cover, as arrays: the scale ``k`` and
    the square center (``cx``, ``cy``) of each, with the segment's index
    ``j``, ``anchor`` (a_j, b_j) and slope ``s_j``.  Ranges and edges come
    from the arrays with the TileRect formula; ``cover[i]`` builds the
    TileRect of rectangle i on demand.
    """

    j: int
    anchor: tuple[float, float]
    s_j: float
    k: np.ndarray
    cx: np.ndarray
    cy: np.ndarray

    def __len__(self) -> int:
        return len(self.k)

    def __getitem__(self, i: int) -> TileRect:
        sq = WhitneySquare(cx=float(self.cx[i]), cy=float(self.cy[i]), k=int(self.k[i]))
        return TileRect(j=self.j, square=sq, anchor=self.anchor, s_j=self.s_j)

    def edges(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The three edge families (see ``_edges``) as (lo, hi) array pairs."""
        return _edges(self.cx, self.cy, 2.0**self.k, self.anchor, self.s_j)


def k_interval(rect: TileRect) -> HalfOpenInterval:
    """The output-frequency interval I + s_j J of the generating square."""
    ilo, ihi = rect.I
    jlo, jhi = rect.Jn
    return HalfOpenInterval(ilo + rect.s_j * jlo, ihi + rect.s_j * jhi, closure="right_open")


def r2_samples(n: int) -> np.ndarray:
    """Deterministic low-discrepancy points in the unit square (R2 sequence)."""
    g = 1.3247179572447460  # plastic constant
    idx = np.arange(1, n + 1)
    return np.column_stack([np.mod(idx / g, 1.0), np.mod(idx / g**2, 1.0)])


@dataclass
class CoverReport:
    j: int
    rects: RectCover
    cover_ok: bool
    containment_ok: bool
    witnesses: list[tuple[float, float]]
    containment_failures: list[int]
    samples_used: int
    alpha: float
    C0: float

    def as_dict(self):
        return {
            "j": self.j,
            "alpha": self.alpha,
            "C0": self.C0,
            "num_rects": len(self.rects),
            "cover_ok": self.cover_ok,
            "containment_ok": self.containment_ok,
            "witnesses": [list(w) for w in self.witnesses],
            "containment_failures": self.containment_failures,
            "samples": self.samples_used,
        }


def build_cover(
    polygon: PolygonalGeometry,
    j: int,
    alpha: float = 0.9,
    C0: float = 16.0,
    samples: int = 10_000,
) -> CoverReport:
    """Select Whitney squares whose alpha-shrunk rectangles cover T_j off its
    hypotenuse, and check that every rectangle stays inside the epigraph.

    Selection is constructive: each quasi-random sample of the normalized
    triangle picks the dyadic scale whose condition band brackets its
    diagonal gap and snaps a center to the lattice; every selected square is
    then re-verified against both dilation conditions.  Uncovered samples are
    reported as witnesses, never raised.
    """
    if not 0.0 < alpha < 0.999:
        raise ValueError("alpha must lie in (0, 0.999)")
    if alpha < 0.8:
        raise ValueError("alpha below 0.8 breaks the snapped-center margin")
    w = polygon.width(j)
    s_j = polygon.slope(j)
    a_j, b_j = polygon.anchor(j)

    uv = r2_samples(samples)
    x = w * np.maximum(uv[:, 0], uv[:, 1])
    y = w * np.minimum(uv[:, 0], uv[:, 1])
    gap = x - y
    keep = gap > w * 1e-12
    x, y, gap = x[keep], y[keep], gap[keep]

    # scale whose condition band brackets the gap; centers snapped to the
    # quarter-side sub-lattice 2^(k-2) Z^2, a sub-lattice of the full one
    k = np.floor(np.log2(gap / C0)).astype(int) - 1
    s = 2.0**k
    delta = 2.0 ** (k - 2)
    cx = np.round(x / delta) * delta
    cy = np.round(y / delta) * delta
    for _ in range(3):
        cg = cx - cy
        high = cg > 4.0 * C0 * s
        low = cg <= C0 * s
        if not (np.any(high) or np.any(low)):
            break
        cy = np.where(high, cy + delta, cy)
        cy = np.where(low, cy - delta, cy)

    cg = cx - cy
    cond_ok = (cg > C0 * s) & (cg <= 4.0 * C0 * s)
    in_shrink = (np.abs(x - cx) <= 0.5 * alpha * s) & (np.abs(y - cy) <= 0.5 * alpha * s)
    covered = cond_ok & in_shrink
    witnesses = [(float(a_j - xx), float(b_j - s_j * yy)) for xx, yy in zip(x[~covered], y[~covered])]

    # one rectangle per distinct square, in order of first selection
    keys = np.column_stack([k, np.round(cx / delta), np.round(cy / delta)])[covered]
    _, first_pos = np.unique(keys, axis=0, return_index=True)
    pick = np.flatnonzero(covered)[np.sort(first_pos)]
    rects = RectCover(j=j, anchor=(a_j, b_j), s_j=s_j, k=k[pick], cx=cx[pick], cy=cy[pick])

    ts = np.linspace(0.0, 1.0, 25)
    (xlo, xhi), (elo, ehi) = ((lo[:, None], hi[:, None]) for lo, hi in rects.edges()[:2])
    edge_x = np.concatenate(
        [xlo + (xhi - xlo) * ts, xlo + (xhi - xlo) * ts,
         np.repeat(xlo, 25, axis=1), np.repeat(xhi, 25, axis=1)], axis=1
    )
    edge_y = np.concatenate(
        [np.repeat(elo, 25, axis=1), np.repeat(ehi, 25, axis=1),
         elo + (ehi - elo) * ts, elo + (ehi - elo) * ts], axis=1
    )
    ok = np.all(polygon.epigraph_contains(edge_x, edge_y), axis=1)
    containment_failures = np.flatnonzero(~ok).tolist()

    return CoverReport(
        j=j,
        rects=rects,
        cover_ok=bool(np.all(covered)),
        containment_ok=not containment_failures,
        witnesses=witnesses,
        containment_failures=containment_failures,
        samples_used=int(len(x)),
        alpha=alpha,
        C0=C0,
    )


def _dilate(iv, factor: float):
    """Dilate (lo, hi) by ``factor`` about its center; scalars or arrays."""
    lo, hi = iv
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return (c - factor * h, c + factor * h)


def _max_overlap(lo: np.ndarray, hi: np.ndarray) -> int:
    """Most closed intervals [lo, hi] sharing a point: at each left end, the
    left ends <= it minus the right ends < it, so touching intervals overlap."""
    lo, hi = np.sort(lo), np.sort(hi)
    return int(np.max(np.searchsorted(lo, lo, side="right") - np.searchsorted(hi, lo, side="left")))


def edge_interval_collections(rects: RectCover, alpha: float) -> dict:
    """Dilated edge-interval families and their maximal overlap counts.

    For each rectangle the three edges are its xi-extent, its eta-extent and
    the negated sum of the two; each family is dilated by 1/alpha about
    interval centers before the overlap count.  Family i is the (lo, hi)
    pair of arrays ``["intervals"][i]``.
    """
    if not len(rects):
        raise ValueError("nonempty rectangle list required")
    fams = {i: _dilate(e, 1.0 / alpha) for i, e in enumerate(rects.edges(), start=1)}
    return {
        "intervals": fams,
        "max_overlap": {i: _max_overlap(*fams[i]) for i in fams},
    }


# --- frequency cubes and multi-tiles --------------------------------------------


def cube_condition(center: tuple[float, float, float], side: float, C0: float, variant: str = "line") -> bool:
    """Dilation conditions for cubes in frequency 3-space.

    ``line`` measures against the diagonal line {(t,t,t)}: the C0-dilate
    misses it iff the center-coordinate spread exceeds C0 * side, the
    10 C0-dilate meets it iff the spread is at most 10 C0 * side.  ``plane``
    measures against {xi + eta + theta = 0} through the center sum.
    """
    if variant == "line":
        spread = max(center) - min(center)
        return C0 * side < spread <= 10.0 * C0 * side
    if variant == "plane":
        total = abs(sum(center))
        return 1.5 * C0 * side < total <= 15.0 * C0 * side
    raise ValueError("variant must be 'line' or 'plane'")


@dataclass(frozen=True)
class MultiTile:
    """Space interval plus transformed frequency cube for one segment.

    omega1 = -I, omega2 = -s_j J, omega3 = (1 + s_j) K for a generating cube
    I x J x K; the space interval length is base^(-j) for the configured
    exponent base.
    """

    I_P: tuple[float, float]
    omega1: tuple[float, float]
    omega2: tuple[float, float]
    omega3: tuple[float, float]
    j: int
    scale_k: int
    cube_center: tuple[float, float, float]
    rect_key: int = 0

    @property
    def j_P(self) -> int:
        return self.j


def _omega3_family(
    rect: TileRect, C0: float, alpha: float, variant: str
) -> list[tuple[tuple[float, float], tuple[float, float, float]]]:
    """Third-coordinate cubes whose stretched images cover supp phi_K.

    Returns (omega3, cube_center) pairs; omega3 = (1 + s_j) K', with the
    centers of K' a quarter side apart on the lattice.  Coverage target is
    the (1/sqrt(alpha))-dilation of K = I + s_j J, matching the plateau of
    the wide third-slot prefilter.
    """
    s = rect.square.side
    s_j = rect.s_j
    K = k_interval(rect)
    target = _dilate((K.lo, K.hi), 1.0 / math.sqrt(alpha))
    stretch = 1.0 + s_j
    delta = 2.0 ** (rect.square.k - LATTICE_EXP)
    stride = max(1, int(round(0.25 * s / delta)))
    c_pred = 0.5 * (K.lo + K.hi) / stretch
    base_slot = int(round(c_pred / delta))
    out = []
    span = int(math.ceil((target[1] - target[0]) / (stretch * stride * delta))) + 4
    for step in range(-span, span + 1):
        cK = (base_slot + step * stride) * delta
        lo3 = stretch * (cK - 0.5 * s)
        hi3 = stretch * (cK + 0.5 * s)
        if hi3 < target[0] - 0.25 * stretch * s or lo3 > target[1] + 0.25 * stretch * s:
            continue
        center = (rect.square.cx, rect.square.cy, cK)
        if cube_condition(center, s, C0, variant):
            out.append(((lo3, hi3), center))
    return out


def enumerate_multitiles(
    C0: float,
    exponent_base: int,
    j: int,
    rects: Sequence[TileRect],
    space_len: float,
    window: Optional[tuple[float, float]] = None,
    variant: str = "line",
    alpha: float = 0.9,
) -> list[MultiTile]:
    """Multi-tiles for one segment: frequency cubes paired with space tiles.

    The space tiles partition [0, space_len) dyadically with length
    base^(-j) per the scale relation; ``space_len`` must be an integer
    multiple of that length.  ``window``, when given, restricts the third
    cube coordinate.
    """
    tile_len = float(exponent_base) ** (-j)
    count = space_len / tile_len
    if abs(count - round(count)) > 1e-9 or round(count) < 1:
        raise ValueError("space_len must be a positive integer multiple of base^(-j)")
    count = int(round(count))
    tiles = []
    for key, rect in enumerate(rects):
        if rect.j != j:
            raise ValueError("rect segment index does not match j")
        fam = _omega3_family(rect, C0, alpha, variant)
        if window is not None:
            fam = [fc for fc in fam if window[0] <= fc[1][2] <= window[1]]
        om1, om2 = rect.omegas()
        for (om3, center) in fam:
            tiles.extend(
                MultiTile(I_P=(m * tile_len, (m + 1) * tile_len), omega1=om1, omega2=om2, omega3=om3,
                          j=j, scale_k=rect.square.k, cube_center=center, rect_key=key)
                for m in range(count)
            )
    if window is not None and not tiles:
        raise ValueError("window too small to contain any cube")
    return tiles


# --- mollified partition of unity ------------------------------------------------


def omega3_partition_check(
    rect: TileRect,
    C0: float,
    alpha: float = 0.9,
    n: int = 10_000,
    variant: str = "line",
) -> float:
    """Max gap between the summed third-slot pieces and the wide output bump.

    The pieces are the output-interval bumps weighted to partition the bump
    that is 1 on K and supported on its (1/sqrt(alpha))-dilation.
    """
    fam = [om for om, _ in _omega3_family(rect, C0, alpha, variant)]
    if not fam:
        raise ValueError("no admissible third-slot cubes for this rectangle")
    K = k_interval(rect)
    supp = _dilate((K.lo, K.hi), 1.0 / math.sqrt(alpha))
    pad = 0.5 * (supp[1] - supp[0])
    xs = np.linspace(supp[0] - pad, supp[1] + pad, n)
    phi, weights = _omega3_weights(xs, rect, fam, alpha)
    pieces = np.zeros_like(xs)
    for w in weights:
        pieces += w
    return float(np.max(np.abs(pieces - phi)))


def _omega3_weights(x, rect: TileRect, fam, alpha: float):
    """The wide output bump phi_K at ``x`` and its partition over ``fam``.

    phi_K is 1 on K = I + s_j J and supported on its (1/sqrt(alpha))-dilation;
    the weight of each omega3 in ``fam`` is phi_K times that interval's adapted
    bump over the sum of all of them (0 where the sum vanishes).
    """
    K = k_interval(rect)
    plateau_wide = math.sqrt(alpha)
    supp = _dilate((K.lo, K.hi), 1.0 / plateau_wide)
    phi_K = adapted_bump(x, supp[0], supp[1], plateau=plateau_wide)
    raw = [adapted_bump(x, lo, hi, plateau=alpha) for lo, hi in fam]
    total = np.sum(raw, axis=0)
    safe = np.where(total > 0, total, 1.0)
    weights = [np.where(total > 0.0, phi_K * b / safe, 0.0) for b in raw]
    return phi_K, weights


def _base_radius(exponent_base: int) -> float:
    return 4.0 ** (-float(exponent_base))


def chi_values(x, interval: tuple[float, float], j: int, exponent_base: int) -> np.ndarray:
    """1_I convolved with the scale-j dilate of the mollifier, exactly.

    The kernel at scale j is lam * rho(lam x) with lam = base^(-j), so the
    convolution is a difference of two exact kernel CDFs.
    """
    lam = float(exponent_base) ** (-j)
    r0 = _base_radius(exponent_base)
    lo, hi = interval
    x = np.asarray(x, dtype=float)
    return fejer_sq_cdf(lam * (x - lo), r0) - fejer_sq_cdf(lam * (x - hi), r0)


def mollified_partition(interval: tuple[float, float], j0: int, exponent_base: int, n: int = 2048):
    """Sampled chi for one interval: (x grid over 3 widths, chi values)."""
    lo, hi = interval
    pad = hi - lo
    xs = np.linspace(lo - pad, hi + pad, n)
    return xs, chi_values(xs, interval, j0, exponent_base)


def partition_check(
    j0: int,
    exponent_base: int,
    window: tuple[float, float],
    n: int = 512,
    tail: float = 1e-8,
    max_tiles: int = 200_000,
) -> float:
    """Max |1 - sum of the scale-j0 tile cutoffs ``chi_values``| on the window interior.

    The tiles have length base^(-j0), the scale relation, and are taken out
    to a margin where the kernel mass beyond contributes less than ``tail``
    per side, with the kernel scale lam = base^(-j0) that ``chi_values`` uses.
    The tiles are contiguous, so their chi values telescope to the chi of
    their union: the sum is two kernel CDFs per point, in closed form.  The
    kernel decays like the inverse cube of distance, so scales whose kernel
    is much wider than the tile need more than ``max_tiles`` tiles of margin
    and are rejected.
    """
    tile_len = float(exponent_base) ** (-j0)
    lam = tile_len  # the kernel scale of chi_values, base^(-j0)
    r0 = _base_radius(exponent_base)
    lo_m, hi_m = tile_len, tile_len
    while fejer_sq_cdf(-lam * hi_m, r0) > tail and hi_m < 1e9 * tile_len:
        hi_m *= 2.0
    while hi_m - lo_m > 1e-3 * tile_len:
        mid = 0.5 * (lo_m + hi_m)
        if fejer_sq_cdf(-lam * mid, r0) > tail:
            lo_m = mid
        else:
            hi_m = mid
    halfw = hi_m
    wlo, whi = window
    m_lo = math.floor((wlo - halfw) / tile_len)
    m_hi = math.ceil((whi + halfw) / tile_len)
    if m_hi - m_lo > max_tiles:
        raise ValueError(
            "kernel much wider than the tiles at this scale; use a smaller j0"
        )
    inset = tile_len
    xs = np.linspace(wlo + inset, whi - inset, n)
    total = chi_values(xs, (m_lo * tile_len, (m_hi + 1) * tile_len), j0, exponent_base)
    return float(np.max(np.abs(1.0 - total)))


# --- discretized model form ------------------------------------------------------


def _chi_coeffs(interval: tuple[float, float], xi: np.ndarray, spectrum: np.ndarray, L: float) -> np.ndarray:
    """Centered Fourier coefficients of the periodized mollified cutoff.

    ``spectrum`` is the scale-j kernel's transform on the frequencies ``xi``;
    the box transform of ``interval`` is evaluated only where it is nonzero,
    and the coefficients are exactly 0 elsewhere.
    """
    nz = np.flatnonzero(spectrum)
    x = xi[nz]
    lo, hi = interval
    with np.errstate(divide="ignore", invalid="ignore"):
        box = np.where(
            x == 0.0,
            hi - lo,
            (np.exp(-2j * np.pi * x * lo) - np.exp(-2j * np.pi * x * hi)) / (2j * np.pi * x),
        )
    out = np.zeros(len(xi), dtype=complex)
    out[nz] = box * spectrum[nz] / L
    return out


def _int_shift(value: float, L: float) -> int:
    slots = value * L
    if abs(slots - round(slots)) > 1e-9:
        raise ValueError(
            "parameter mismatch: modulation centers must sit on the frequency lattice 1/L"
        )
    return int(round(slots))


def build_adjoint_symbol(rects: Sequence[TileRect], alpha: float) -> SymbolSpec:
    """Sum over rectangles of the tensor tile bumps, anchored per segment."""
    data = [(*r.anchor, *r.omegas()) for r in rects]

    def ev(xi, eta):
        out = np.zeros(np.broadcast(xi, eta).shape)
        for a, b, om1, om2 in data:
            out = out + adapted_bump(xi - a, om1[0], om1[1], alpha) * adapted_bump(
                eta - b, om2[0], om2[1], alpha
            )
        return out

    return SymbolSpec(evaluator=ev, kind="smooth_adapted", bbox=None, label="tile_bump_sum")


def model_sum_eval(
    f: SampledFunction,
    g: SampledFunction,
    h: SampledFunction,
    tiles: Sequence[MultiTile],
    rects: Sequence[TileRect],
    seq: SequencePair,
    alpha: float,
    exponent_base: int,
) -> dict:
    """Evaluate the discretized trilinear model form and its direct counterpart.

    Model side: sum over multi-tiles of the integral of the mollified space
    cutoff times the three tile projections of the modulated, prefiltered
    inputs.  Direct side: the tile-bump symbol applied as a bilinear
    multiplier against raw f, g, paired with raw h.  With all bumps cut from
    the shared profile the two agree exactly up to rounding; ``deviation``
    is their relative gap.  Anchors must sit on the frequency lattice.
    """
    if not (f.N == g.N == h.N) or not (f.L == g.L == h.L):
        raise ValueError("common grid required")
    N, L = f.N, f.L
    M = 4 * N
    freqs_pad = _freq_grid(M, L)
    plateau_wide = math.sqrt(alpha)

    by_j: dict[int, list[MultiTile]] = {}
    for t in tiles:
        by_j.setdefault(t.j, []).append(t)

    cf, cg, ch = (_pad(fn.coeffs(), M) for fn in (f, g, h))

    def prefilter(c: np.ndarray, edges: list[tuple[float, float]]) -> np.ndarray:
        # support (1/alpha)-dilate of the edge, plateau its (1/sqrt(alpha))-dilate
        return c * soft_union(
            adapted_bump(freqs_pad, *_dilate(e, 1.0 / alpha), plateau=plateau_wide) for e in edges
        )

    def shifted(c: np.ndarray, shift_slots: int) -> np.ndarray:
        idx = np.arange(M) + shift_slots
        ok = (idx >= 0) & (idx < M)
        return np.where(ok, c[np.clip(idx, 0, M - 1)], 0.0)

    model_value = 0.0 + 0.0j
    model_abs = 0.0
    for j, group in sorted(by_j.items()):
        a_j, b_j = seq.a_at(j), seq.b_at(j)
        sa, sb = _int_shift(a_j, L), _int_shift(b_j, L)
        spectrum = fejer_sq_spectrum(freqs_pad / float(exponent_base) ** (-j), _base_radius(exponent_base))
        keys = sorted({t.rect_key for t in group})
        edges = [rects[k].edges() for k in keys]
        cfj, cgj, chj = (prefilter(c, [e[i] for e in edges]) for i, c in enumerate((cf, cg, ch)))

        # third-slot partition weights per rectangle
        fam_by_key: dict[int, list[tuple[float, float]]] = {}
        for t in group:
            fam = fam_by_key.setdefault(t.rect_key, [])
            if t.omega3 not in fam:
                fam.append(t.omega3)

        psi3: dict[tuple[int, tuple[float, float]], np.ndarray] = {}
        for key, fam in fam_by_key.items():
            _, weights = _omega3_weights(freqs_pad, rects[key], fam, alpha)
            for om3, w in zip(fam, weights):
                psi3[(key, om3)] = w

        group_value = 0.0 + 0.0j
        uv_cache: dict[int, np.ndarray] = {}
        q_cache: dict[tuple[int, tuple[float, float]], np.ndarray] = {}
        for t in group:
            key = t.rect_key
            if key not in uv_cache:
                u_hat = adapted_bump(freqs_pad, *t.omega1, plateau=alpha) * shifted(cfj, sa)
                v_hat = adapted_bump(freqs_pad, *t.omega2, plateau=alpha) * shifted(cgj, sb)
                uv_cache[key] = _synthesize(u_hat) * _synthesize(v_hat)
            qkey = (key, t.omega3)
            if qkey not in q_cache:
                w_hat = psi3[qkey] * shifted(chj, -sa - sb)
                q_cache[qkey] = _analyze(uv_cache[key] * _synthesize(w_hat))
            q_hat = q_cache[qkey]
            chi_hat = _chi_coeffs(t.I_P, freqs_pad, spectrum, L)
            group_value += _period_pairing(chi_hat, q_hat, L)
        model_value += group_value
        model_abs += abs(group_value)

    adjoint_value = 0.0 + 0.0j
    for j, group in sorted(by_j.items()):
        keys = sorted({t.rect_key for t in group})
        sym = build_adjoint_symbol([rects[k] for k in keys], alpha)
        B = apply_bilinear(sym, f, g)
        adjoint_value += _period_pairing(B.coeffs(), _pad(h.coeffs(), B.N), L)

    deviation = abs(model_value - adjoint_value) / (abs(adjoint_value) + 1e-30)
    return {
        "model_value": complex(model_value),
        "adjoint_value": complex(adjoint_value),
        "deviation": float(deviation),
        "model_abs": float(model_abs),
        "num_tiles": len(tiles),
    }
