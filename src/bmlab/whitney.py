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
from .engine import SampledFunction, _analyze, _freq_grid, _pad, _period_pairing, _synthesize
from .intervals import max_overlap

__all__ = [
    "RectCover",
    "MultiTile",
    "PolygonalGeometry",
    "CoverReport",
    "build_cover",
    "edge_interval_collections",
    "cube_condition",
    "enumerate_multitiles",
    "chi_values",
    "partition_check",
    "model_sum_eval",
    "r2_samples",
]

LATTICE_EXP = 10  # centers live on 2^(k - LATTICE_EXP) Z^2 for side 2^k


# --- polygon geometry ----------------------------------------------------------


@dataclass(frozen=True)
class PolygonalGeometry:
    """Vertices (a_j, b_j), j = first .. first + n, decreasing in both coords,
    with strictly decreasing segment slopes: a convex polygonal curve, so its
    epigraph is convex."""

    vertices: np.ndarray
    first_index: int = 0

    def __post_init__(self):
        pts = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", pts)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("need at least two vertices")
        if not (np.all(np.diff(pts[:, 0]) < 0) and np.all(np.diff(pts[:, 1]) < 0)):
            raise ValueError("vertices must be strictly decreasing in both coordinates")
        slopes = np.diff(pts[:, 1]) / np.diff(pts[:, 0])
        bad = np.flatnonzero(slopes[1:] >= slopes[:-1]) + 1
        if len(bad):
            k = int(bad[0])
            raise ValueError(f"segment {k} has slope {slopes[k]!r}, not below segment {k - 1}'s "
                             f"{slopes[k - 1]!r}: the vertices are not convex")

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

    def epigraph_contains(self, xi, eta) -> np.ndarray:
        return np.asarray(eta, dtype=float) >= self.curve_height(xi)


@dataclass(frozen=True, eq=False)
class RectCover:
    """Whitney rectangles of one segment, one per row: the scale ``k`` and the
    center (``cx``, ``cy``) of each generating square S = I x Jn, with the
    segment's index ``j``, ``anchor`` (a_j, b_j) and slope ``s_j``.

    Row i is the pushforward (a_j, b_j) + (-I) x (-s_j Jn) of its square, so
    its xi-side has the square's length and its eta-side is shorter by the
    factor s_j.  ``edges``, ``omegas`` and ``k_interval`` return (lo, hi) array
    pairs over the rows.
    """

    j: int
    anchor: tuple[float, float]
    s_j: float
    k: np.ndarray
    cx: np.ndarray
    cy: np.ndarray

    def __len__(self) -> int:
        return len(self.k)

    def _sides(self):
        """The square sides I and Jn."""
        h = 0.5 * 2.0**self.k
        return (self.cx - h, self.cx + h), (self.cy - h, self.cy + h)

    def edges(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The xi-extent a_j - I, the eta-extent b_j - s_j Jn and -edge1 - edge2
        (K shifted by -(a_j + b_j))."""
        (ilo, ihi), (jlo, jhi) = self._sides()
        a, b = self.anchor
        xlo, xhi, elo, ehi = a - ihi, a - ilo, b - self.s_j * jhi, b - self.s_j * jlo
        return (xlo, xhi), (elo, ehi), (-xhi - ehi, -xlo - elo)

    def omegas(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """omega1 = -I and omega2 = -s_j Jn: the rectangle's sides about its anchor."""
        (ilo, ihi), (jlo, jhi) = self._sides()
        return (-ihi, -ilo), (-self.s_j * jhi, -self.s_j * jlo)

    def k_interval(self) -> tuple[np.ndarray, np.ndarray]:
        """The output-frequency interval K = I + s_j Jn of the generating square."""
        (ilo, ihi), (jlo, jhi) = self._sides()
        return ilo + self.s_j * jlo, ihi + self.s_j * jhi


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
    hypotenuse, and check that every rectangle stays inside the epigraph
    (exactly: the epigraph is convex, so a rectangle's two bottom corners
    decide).

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

    # one rectangle per distinct square, in order of first selection: a stable
    # sort of the (k, cx/delta, cy/delta) rows puts each square's first sample first
    hit = np.flatnonzero(covered)
    keys = np.column_stack([k, np.round(cx / delta), np.round(cy / delta)])[hit]
    order = np.lexsort(keys.T[::-1])
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(np.diff(keys[order], axis=0) != 0, axis=1)
    pick = hit[np.sort(order[first])]
    rects = RectCover(j=j, anchor=(a_j, b_j), s_j=s_j, k=k[pick], cx=cx[pick], cy=cy[pick])

    (xlo, xhi), (elo, _) = rects.edges()[:2]
    ok = polygon.epigraph_contains(xlo, elo) & polygon.epigraph_contains(xhi, elo)
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


def edge_interval_collections(rects: RectCover, alpha: float) -> dict:
    """Dilated edge-interval families and their maximal overlap counts.

    For each rectangle the three edges are its xi-extent, its eta-extent and
    the negated sum of the two; each family is dilated by 1/alpha about
    interval centers before the overlap count, in which touching closed
    intervals overlap.  Family i is the (lo, hi) pair of arrays
    ``["intervals"][i]``; an empty cover counts 0 throughout.
    """
    fams = {i: _dilate(e, 1.0 / alpha) for i, e in enumerate(rects.edges(), start=1)}
    return {
        "intervals": fams,
        "max_overlap": {i: max_overlap(*fams[i]) for i in fams},
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


def _rows(rects: RectCover):
    """Per row: k, cx, cy, omega1, omega2 and K as Python scalars and pairs,
    from the cover's arrays built once."""
    (o1lo, o1hi), (o2lo, o2hi) = rects.omegas()
    klo, khi = rects.k_interval()
    pairs = lambda lo, hi: zip(lo.tolist(), hi.tolist())
    return zip(rects.k.tolist(), rects.cx.tolist(), rects.cy.tolist(),
               pairs(o1lo, o1hi), pairs(o2lo, o2hi), pairs(klo, khi))


def _omega3_family(
    k: int, cx: float, cy: float, s_j: float, K: tuple[float, float], C0: float, alpha: float,
    variant: str,
) -> list[tuple[tuple[float, float], tuple[float, float, float]]]:
    """Third-coordinate cubes whose stretched images cover supp phi_K.

    Returns (omega3, cube_center) pairs for the square of side 2^k centered
    at (cx, cy); omega3 = (1 + s_j) K', with the centers of K' a quarter side
    apart on the lattice.  Coverage target is the (1/sqrt(alpha))-dilation of
    K = I + s_j J, matching the plateau of the wide third-slot prefilter.
    """
    s = 2.0**k
    target = _dilate(K, 1.0 / math.sqrt(alpha))
    stretch = 1.0 + s_j
    delta = 2.0 ** (k - LATTICE_EXP)
    stride = max(1, int(round(0.25 * s / delta)))
    c_pred = 0.5 * (K[0] + K[1]) / stretch
    base_slot = int(round(c_pred / delta))
    out = []
    span = int(math.ceil((target[1] - target[0]) / (stretch * stride * delta))) + 4
    for step in range(-span, span + 1):
        cK = (base_slot + step * stride) * delta
        lo3 = stretch * (cK - 0.5 * s)
        hi3 = stretch * (cK + 0.5 * s)
        if hi3 < target[0] - 0.25 * stretch * s or lo3 > target[1] + 0.25 * stretch * s:
            continue
        center = (cx, cy, cK)
        if cube_condition(center, s, C0, variant):
            out.append(((lo3, hi3), center))
    return out


def enumerate_multitiles(
    C0: float,
    exponent_base: int,
    j: int,
    rects: RectCover,
    space_len: float,
    window: Optional[tuple[float, float]] = None,
    variant: str = "line",
    alpha: float = 0.9,
) -> list[MultiTile]:
    """Multi-tiles for one segment: frequency cubes paired with space tiles.

    The space tiles partition [0, space_len) dyadically with length
    base^(-j) per the scale relation; ``space_len`` must be an integer
    multiple of that length.  ``window``, when given, restricts the third
    cube coordinate.  A tile's ``rect_key`` is its rectangle's row in ``rects``.
    """
    tile_len = float(exponent_base) ** (-j)
    count = space_len / tile_len
    if abs(count - round(count)) > 1e-9 or round(count) < 1:
        raise ValueError("space_len must be a positive integer multiple of base^(-j)")
    count = int(round(count))
    if rects.j != j:
        raise ValueError("rect segment index does not match j")
    tiles = []
    for key, (k, cx, cy, om1, om2, K) in enumerate(_rows(rects)):
        fam = _omega3_family(k, cx, cy, rects.s_j, K, C0, alpha, variant)
        if window is not None:
            fam = [fc for fc in fam if window[0] <= fc[1][2] <= window[1]]
        for (om3, center) in fam:
            tiles.extend(
                MultiTile(I_P=(m * tile_len, (m + 1) * tile_len), omega1=om1, omega2=om2, omega3=om3,
                          j=j, scale_k=k, cube_center=center, rect_key=key)
                for m in range(count)
            )
    if window is not None and not tiles:
        raise ValueError("window too small to contain any cube")
    return tiles


# --- mollified partition of unity ------------------------------------------------


def omega3_partition_check(
    rects: RectCover,
    C0: float,
    alpha: float = 0.9,
    n: int = 10_000,
    variant: str = "line",
) -> float:
    """Max gap, over the rectangles, between the summed third-slot pieces and
    the wide output bump.

    The pieces are the output-interval bumps weighted to partition the bump
    that is 1 on K and supported on its (1/sqrt(alpha))-dilation.
    """
    gaps = []
    for k, cx, cy, _, _, K in _rows(rects):
        fam = [om for om, _ in _omega3_family(k, cx, cy, rects.s_j, K, C0, alpha, variant)]
        if not fam:
            raise ValueError("no admissible third-slot cubes for this rectangle")
        supp = _dilate(K, 1.0 / math.sqrt(alpha))
        pad = 0.5 * (supp[1] - supp[0])
        xs = np.linspace(supp[0] - pad, supp[1] + pad, n)
        phi, weights = _omega3_weights(xs, K, fam, alpha)
        pieces = np.zeros_like(xs)
        for w in weights:
            pieces += w
        gaps.append(float(np.max(np.abs(pieces - phi))))
    return max(gaps)


def _omega3_weights(x, K: tuple[float, float], fam, alpha: float):
    """The wide output bump phi_K at ``x`` and its partition over ``fam``.

    phi_K is 1 on K = I + s_j J and supported on its (1/sqrt(alpha))-dilation;
    the weight of each omega3 in ``fam`` is phi_K times that interval's adapted
    bump over the sum of all of them (0 where the sum vanishes).
    """
    plateau_wide = math.sqrt(alpha)
    supp = _dilate(K, 1.0 / plateau_wide)
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


def _chi_support(lo: np.ndarray, hi: np.ndarray, x: np.ndarray, spectrum: np.ndarray, L: float) -> np.ndarray:
    """Centered Fourier coefficients of the periodized mollified cutoffs of the
    intervals (lo[i], hi[i]), on the slots where the kernel spectrum is nonzero.

    ``spectrum`` is the scale-j kernel's transform at those slots' frequencies
    ``x``; every other coefficient is exactly 0.  Returns (len(lo), len(x)).
    """
    lo, hi = lo[:, None], hi[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        box = np.where(
            x == 0.0,
            hi - lo,
            (np.exp(-2j * np.pi * x * lo) - np.exp(-2j * np.pi * x * hi)) / (2j * np.pi * x),
        )
    return box * spectrum / L


def _int_shift(value: float, L: float) -> int:
    slots = value * L
    if abs(slots - round(slots)) > 1e-9:
        raise ValueError(
            "parameter mismatch: modulation centers must sit on the frequency lattice 1/L"
        )
    return int(round(slots))


def _tile_projections(f: SampledFunction, g: SampledFunction, h: SampledFunction, tiles: Sequence[MultiTile],
                      rects: RectCover, seq: SequencePair, alpha: float) -> dict:
    """The centered 4N-slot coefficients q_hat of the product of the three tile
    projections, one per (rect_key, omega3) entry of ``tiles`` in order of
    first appearance.  Anchors must sit on the frequency lattice."""
    N, L = f.N, f.L
    M = 4 * N
    freqs_pad = _freq_grid(M, L)
    plateau_wide = math.sqrt(alpha)
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

    j = rects.j
    sa, sb = _int_shift(seq.a_at(j), L), _int_shift(seq.b_at(j), L)
    keys = sorted({t.rect_key for t in tiles})
    cfj, cgj, chj = (prefilter(c, list(zip(lo[keys], hi[keys])))
                     for c, (lo, hi) in zip((cf, cg, ch), rects.edges()))

    # third-slot partition weights per rectangle
    fam_by_key: dict[int, list[tuple[float, float]]] = {}
    for t in tiles:
        fam = fam_by_key.setdefault(t.rect_key, [])
        if t.omega3 not in fam:
            fam.append(t.omega3)

    klo, khi = rects.k_interval()
    psi3: dict[tuple[int, tuple[float, float]], np.ndarray] = {}
    for key, fam in fam_by_key.items():
        _, weights = _omega3_weights(freqs_pad, (klo[key], khi[key]), fam, alpha)
        for om3, w in zip(fam, weights):
            psi3[(key, om3)] = w

    uv_cache: dict[int, np.ndarray] = {}
    q_hat: dict[tuple[int, tuple[float, float]], np.ndarray] = {}
    for t in tiles:
        key = t.rect_key
        if key not in uv_cache:
            u_hat = adapted_bump(freqs_pad, *t.omega1, plateau=alpha) * shifted(cfj, sa)
            v_hat = adapted_bump(freqs_pad, *t.omega2, plateau=alpha) * shifted(cgj, sb)
            uv_cache[key] = _synthesize(u_hat) * _synthesize(v_hat)
        qkey = (key, t.omega3)
        if qkey not in q_hat:
            w_hat = psi3[qkey] * shifted(chj, -sa - sb)
            q_hat[qkey] = _analyze(uv_cache[key] * _synthesize(w_hat))
    return q_hat


def model_sum_eval(
    f: SampledFunction,
    g: SampledFunction,
    h: SampledFunction,
    tiles: Sequence[MultiTile],
    rects: RectCover,
    seq: SequencePair,
    alpha: float,
    exponent_base: int,
) -> dict:
    """Evaluate the discretized trilinear model form and its direct counterpart.

    ``tiles`` come from ``enumerate_multitiles`` on ``rects``, one segment.
    Model side: sum over multi-tiles of the integral of the mollified space
    cutoff times the three tile projections of the modulated, prefiltered
    inputs.  The cutoff's coefficients vanish off the support of the scale-j
    kernel spectrum, so each tile pairs with its projections there only.
    Direct side: the tile-bump symbol sum_r phi_r(xi - a_j)
    psi_r(eta - b_j) over the tiles' rows r, applied to raw f, g as the tensor
    sum sum_r (phi_r-filtered f)(psi_r-filtered g) and paired with raw h.  With
    all bumps cut from the shared profile the two agree exactly up to
    rounding; ``deviation`` is their relative gap.  Anchors must sit on the
    frequency lattice.
    """
    if not (f.N == g.N == h.N) or not (f.L == g.L == h.L):
        raise ValueError("common grid required")
    if not tiles:
        raise ValueError("nonempty tile list required")
    j = rects.j
    if any(t.j != j for t in tiles):
        raise ValueError("tile segment index does not match the cover's j")
    N, L = f.N, f.L
    M = 4 * N
    q_hat = _tile_projections(f, g, h, tiles, rects, seq, alpha)

    # slot s pairs with slot M - s (slot 0 with itself), on the spectrum's support
    freqs_pad = _freq_grid(M, L)
    spectrum = fejer_sq_spectrum(freqs_pad / float(exponent_base) ** (-j), _base_radius(exponent_base))
    nz = np.flatnonzero(spectrum)
    q_rev = np.stack([q[(-nz) % M] for q in q_hat.values()])
    row = {qkey: i for i, qkey in enumerate(q_hat)}
    entry = [row[(t.rect_key, t.omega3)] for t in tiles]
    lo, hi = np.array([t.I_P for t in tiles]).T
    chi_hat = _chi_support(lo, hi, freqs_pad[nz], spectrum[nz], L)
    model_value = L * np.sum(chi_hat * q_rev[entry])

    # direct side on the 2N grid, which holds every pairwise frequency sum
    keys = sorted({t.rect_key for t in tiles})
    (o1lo, o1hi), (o2lo, o2hi) = rects.omegas()
    a, b = rects.anchor
    freqs, c, d = f.freqs(), f.coeffs(), g.coeffs()
    uv = sum(_synthesize(_pad(adapted_bump(freqs - a, o1lo[r], o1hi[r], alpha) * c, 2 * N))
             * _synthesize(_pad(adapted_bump(freqs - b, o2lo[r], o2hi[r], alpha) * d, 2 * N))
             for r in keys)
    adjoint_value = _period_pairing(_analyze(uv), _pad(h.coeffs(), 2 * N), L)

    deviation = abs(model_value - adjoint_value) / (abs(adjoint_value) + 1e-30)
    return {
        "model_value": complex(model_value),
        "adjoint_value": complex(adjoint_value),
        "deviation": float(deviation),
        "model_abs": float(abs(model_value)),
        "num_tiles": len(tiles),
    }
