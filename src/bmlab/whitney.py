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
from dataclasses import dataclass, replace

import numpy as np

from .bumps import adapted_bump, fejer_sq_cdf, fejer_sq_spectrum, soft_union
from .curves import SequencePair
from .engine import SampledFunction, _analyze, _freq_grid, _pad, _period_pairing, _synthesize
from .intervals import max_overlap
from .symbols import convex_polygon, polygon_height

__all__ = [
    "RectCover",
    "TileSet",
    "CoverReport",
    "segment",
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
PARTITION_POINTS = 512  # window points partition_check measures at
PARTITION_TAIL = 1e-8  # kernel mass partition_check may leave out per side
PARTITION_MAX_TILES = 200_000  # margin tiles partition_check allows before rejecting a scale


@dataclass(frozen=True, eq=False)
class RectCover:
    """Whitney rectangles of one segment, one per row: the scale ``k`` and the
    center (``cx``, ``cy``) of each generating square S = I x Jn, with the
    segment's index ``j``, ``anchor`` (a_j, b_j) and slope ``s_j``.

    Row i is the pushforward (a_j, b_j) + (-I) x (-s_j Jn) of its square, so
    its xi-side has the square's length and its eta-side is shorter by the
    factor s_j.  ``edges``, ``omegas`` and ``k_interval`` return (lo, hi) array
    pairs over the rows; ``lattice`` the integer centers.
    """

    j: int
    anchor: tuple[float, float]
    s_j: float
    k: np.ndarray
    cx: np.ndarray
    cy: np.ndarray

    def __len__(self) -> int:
        return len(self.k)

    def lattice(self) -> tuple[np.ndarray, np.ndarray]:
        """The integers (mx, my) with (cx, cy) = (mx, my) 2^(k - LATTICE_EXP)."""
        m = np.ldexp(np.stack([self.cx, self.cy]), LATTICE_EXP - self.k)
        if not np.all((m == np.round(m)) & (np.abs(m) < 2.0**63)):  # NaN and inf fail too
            raise ValueError("square centers off the 2^(k - LATTICE_EXP) lattice or beyond int64")
        return tuple(m.astype(np.int64))

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


def segment(seq: SequencePair, j: int) -> tuple[tuple[float, float], float, float]:
    """Segment j of the polygonal curve through the pair's vertices: its
    anchor (a_j, b_j), its width a_j - a_{j+1} and its slope."""
    seq.require_segment(j)
    a0, b0, a1, b1 = seq.a_at(j), seq.b_at(j), seq.a_at(j + 1), seq.b_at(j + 1)
    return (a0, b0), a0 - a1, (b0 - b1) / (a0 - a1)


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
            "anchor": list(self.rects.anchor),
            "s_j": self.rects.s_j,
            "alpha": self.alpha,
            "C0": self.C0,
            "num_rects": len(self.rects),
            "cover_ok": self.cover_ok,
            "containment_ok": self.containment_ok,
            "witnesses": [list(w) for w in self.witnesses],
            "containment_failures": self.containment_failures,
            "samples": self.samples_used,
        }


def build_cover(seq: SequencePair, j: int, alpha: float, C0: float, samples: int) -> CoverReport:
    """Select Whitney squares whose alpha-shrunk rectangles cover T_j, the
    triangle under segment j of the polygon through the pair's vertices, off
    its hypotenuse, and check that every rectangle stays inside the epigraph
    (exactly: the vertices must pass ``convex_polygon``, so the epigraph is
    convex and a rectangle's two bottom corners decide).

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
    vertices = convex_polygon(np.column_stack([seq.a, seq.b]))
    (a_j, b_j), w, s_j = segment(seq, j)

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
    ok = (elo >= polygon_height(vertices, xlo)) & (elo >= polygon_height(vertices, xhi))
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


def cube_condition(center, side: float, C0: float):
    """Dilation conditions for cubes in frequency 3-space, against the
    diagonal line {(t,t,t)}: the C0-dilate misses it iff the
    center-coordinate spread exceeds C0 * side, the 10 C0-dilate meets it iff
    the spread is at most 10 C0 * side.  The center's coordinates may be
    arrays; the result is then a bool array.
    """
    c1, c2, c3 = center
    spread = np.maximum(np.maximum(c1, c2), c3) - np.minimum(np.minimum(c1, c2), c3)
    return (C0 * side < spread) & (spread <= 10.0 * C0 * side)


@dataclass(frozen=True, eq=False)
class TileSet:
    """The multi-tiles of one segment's cover, as rows of arrays.

    Entry e pairs cover row ``rect[e]`` of ``rects`` with the third-slot
    interval omega3 = [``om3_lo[e]``, ``om3_hi[e]``] = (1 + s_j) K' of the
    generating cube I x J x K', whose center is (cx, cy, ``c3[e]``) for the
    row's square center (cx, cy).  Tile i is entry ``entry[i]`` on the space
    interval I_P = [m l, (m + 1) l) with m = ``m[i]`` and l = ``tile_len``
    = base^(-j).  omega1, omega2, j and the scale k are the row's, read from
    ``rects``.  ``len()`` counts tiles; indexing by a slice, an int array or a
    bool mask selects tiles and keeps every entry.
    """

    rects: RectCover
    exponent_base: int
    alpha: float
    rect: np.ndarray
    om3_lo: np.ndarray
    om3_hi: np.ndarray
    c3: np.ndarray
    entry: np.ndarray
    m: np.ndarray

    @property
    def j(self) -> int:
        return self.rects.j

    @property
    def tile_len(self) -> float:
        return float(self.exponent_base) ** (-self.j)

    def __len__(self) -> int:
        return len(self.entry)

    def __getitem__(self, sel) -> "TileSet":
        return replace(self, entry=self.entry[sel], m=self.m[sel])


def _rows(rects: RectCover):
    """Per row: k, cx, cy and K as Python scalars and pairs, from the cover's
    arrays built once."""
    klo, khi = rects.k_interval()
    return zip(rects.k.tolist(), rects.cx.tolist(), rects.cy.tolist(), zip(klo.tolist(), khi.tolist()))


def _omega3_family(
    k: int, cx: float, cy: float, s_j: float, K: tuple[float, float], C0: float, alpha: float,
) -> np.ndarray:
    """Third-coordinate cubes whose stretched images cover supp phi_K.

    Returns the rows (lo3, hi3, cK) for the square of side 2^k centered at
    (cx, cy): omega3 = [lo3, hi3] = (1 + s_j) K', and cK is the center of K',
    the centers a quarter side apart on the lattice.  Coverage target is the
    (1/sqrt(alpha))-dilation of K = I + s_j J, matching the plateau of the
    wide third-slot prefilter.
    """
    s = 2.0**k
    target = _dilate(K, 1.0 / math.sqrt(alpha))
    stretch = 1.0 + s_j
    delta = 2.0 ** (k - LATTICE_EXP)
    stride = max(1, int(round(0.25 * s / delta)))
    c_pred = 0.5 * (K[0] + K[1]) / stretch
    base_slot = int(round(c_pred / delta))
    span = int(math.ceil((target[1] - target[0]) / (stretch * stride * delta))) + 4
    cK = (base_slot + np.arange(-span, span + 1) * stride) * delta
    lo3 = stretch * (cK - 0.5 * s)
    hi3 = stretch * (cK + 0.5 * s)
    near = (hi3 >= target[0] - 0.25 * stretch * s) & (lo3 <= target[1] + 0.25 * stretch * s)
    keep = near & cube_condition((cx, cy, cK), s, C0)
    return np.stack([lo3, hi3, cK])[:, keep]


def enumerate_multitiles(
    rects: RectCover,
    C0: float,
    exponent_base: int,
    space_len: float,
    alpha: float,
) -> TileSet:
    """Multi-tiles for one segment's cover: frequency cubes paired with space tiles.

    Each row's third-slot cubes come from ``_omega3_family`` and are the
    set's entries, row by row; every entry is paired with each space tile
    of the dyadic partition of [0, space_len), of length base^(-j) per the
    scale relation.  ``space_len`` must be an integer multiple of that length.
    """
    tile_len = float(exponent_base) ** (-rects.j)
    count = space_len / tile_len
    if abs(count - round(count)) > 1e-9 or round(count) < 1:
        raise ValueError("space_len must be a positive integer multiple of base^(-j)")
    count = int(round(count))
    fams = [_omega3_family(k, cx, cy, rects.s_j, K, C0, alpha) for k, cx, cy, K in _rows(rects)]
    lo3, hi3, c3 = np.hstack([np.empty((3, 0)), *fams])
    sizes = np.array([fam.shape[1] for fam in fams], dtype=int)
    entries = len(c3)
    return TileSet(
        rects=rects, exponent_base=exponent_base, alpha=alpha, rect=np.repeat(np.arange(len(rects)), sizes),
        om3_lo=lo3, om3_hi=hi3, c3=c3,
        entry=np.repeat(np.arange(entries), count), m=np.tile(np.arange(count), entries),
    )


# --- mollified partition of unity ------------------------------------------------


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


def partition_check(j0: int, exponent_base: int, window: tuple[float, float]) -> float:
    """Max |1 - sum of the scale-j0 tile cutoffs ``chi_values``| at
    ``PARTITION_POINTS`` points of the window interior.

    The tiles have length base^(-j0), the scale relation, and are taken out
    to a margin where the kernel mass beyond contributes less than
    ``PARTITION_TAIL`` per side, with the kernel scale lam = base^(-j0) that
    ``chi_values`` uses.  The tiles are contiguous, so their chi values
    telescope to the chi of their union: the sum is two kernel CDFs per
    point, in closed form.  The kernel decays like the inverse cube of
    distance, so scales whose kernel is much wider than the tile need more
    than ``PARTITION_MAX_TILES`` tiles of margin and are rejected.
    """
    tile_len = float(exponent_base) ** (-j0)
    lam = tile_len  # the kernel scale of chi_values, base^(-j0)
    r0 = _base_radius(exponent_base)
    lo_m, hi_m = tile_len, tile_len
    while fejer_sq_cdf(-lam * hi_m, r0) > PARTITION_TAIL and hi_m < 1e9 * tile_len:
        hi_m *= 2.0
    while hi_m - lo_m > 1e-3 * tile_len:
        mid = 0.5 * (lo_m + hi_m)
        if fejer_sq_cdf(-lam * mid, r0) > PARTITION_TAIL:
            lo_m = mid
        else:
            hi_m = mid
    halfw = hi_m
    wlo, whi = window
    m_lo = math.floor((wlo - halfw) / tile_len)
    m_hi = math.ceil((whi + halfw) / tile_len)
    if m_hi - m_lo > PARTITION_MAX_TILES:
        raise ValueError(
            "kernel much wider than the tiles at this scale; use a smaller j0"
        )
    inset = tile_len
    xs = np.linspace(wlo + inset, whi - inset, PARTITION_POINTS)
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


def _tile_projections(f: SampledFunction, g: SampledFunction, h: SampledFunction,
                      tiles: TileSet) -> np.ndarray:
    """The centered 4N-slot coefficients of the product of the three tile
    projections, one row per entry of ``tiles`` (0 for an entry no tile
    uses).  A cover row's third-slot partition runs over the entries its
    tiles use.  The modulation shifts are the cover's anchor (a_j, b_j),
    which must sit on the frequency lattice."""
    N, L = f.N, f.L
    M = 4 * N
    rects, alpha = tiles.rects, tiles.alpha
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

    sa, sb = (_int_shift(v, L) for v in rects.anchor)
    used = np.unique(tiles.entry)
    rows = tiles.rect[used]
    keys = np.unique(rows)
    u_in, v_in, w_in = (shifted(prefilter(c, list(zip(lo[keys], hi[keys]))), shift)
                        for c, (lo, hi), shift in zip((cf, cg, ch), rects.edges(), (sa, sb, -sa - sb)))

    (o1lo, o1hi), (o2lo, o2hi) = rects.omegas()
    klo, khi = rects.k_interval()
    q_hat = np.zeros((len(tiles.rect), M), dtype=complex)
    for r in keys:
        uv = (_synthesize(adapted_bump(freqs_pad, o1lo[r], o1hi[r], plateau=alpha) * u_in)
              * _synthesize(adapted_bump(freqs_pad, o2lo[r], o2hi[r], plateau=alpha) * v_in))
        es = used[rows == r]
        fam = zip(tiles.om3_lo[es], tiles.om3_hi[es])
        _, weights = _omega3_weights(freqs_pad, (klo[r], khi[r]), fam, alpha)
        for e, w in zip(es, weights):
            q_hat[e] = _analyze(uv * _synthesize(w * w_in))
    return q_hat


def model_sum_eval(f: SampledFunction, g: SampledFunction, h: SampledFunction, tiles: TileSet) -> dict:
    """Evaluate the discretized trilinear model form and its direct counterpart.

    ``tiles`` come from ``enumerate_multitiles`` and carry their cover, base
    and alpha.  Model side: sum over multi-tiles of the integral of the
    mollified space cutoff times the three tile projections of the
    modulated, prefiltered inputs.  The cutoff's coefficients vanish off the
    support of the scale-j kernel spectrum, so each tile pairs with its
    entry's projections there only; tile m's cutoff is tile 0's times
    exp(-2 pi i xi m l), so the sum over tiles is a count of tiles per
    (entry, m) times one phase row per m.  Direct side: the tile-bump symbol
    sum_r phi_r(xi - a_j) psi_r(eta - b_j) over the tiles' rows r, applied
    to raw f, g as the tensor sum sum_r (phi_r-filtered f)(psi_r-filtered g)
    and paired with raw h.  With all bumps cut from the shared profile the
    two agree exactly up to rounding; ``deviation`` is their relative gap.
    The modulation shifts are the cover's anchor (a_j, b_j), which must sit
    on the frequency lattice.
    """
    if not (f.N == g.N == h.N) or not (f.L == g.L == h.L):
        raise ValueError("common grid required")
    if not len(tiles):
        raise ValueError("nonempty tile list required")
    rects, alpha, ell = tiles.rects, tiles.alpha, tiles.tile_len
    N, L = f.N, f.L
    M = 4 * N
    q_hat = _tile_projections(f, g, h, tiles)

    # slot s pairs with slot M - s (slot 0 with itself), on the spectrum's support
    freqs_pad = _freq_grid(M, L)
    spectrum = fejer_sq_spectrum(freqs_pad / ell, _base_radius(tiles.exponent_base))
    nz = np.flatnonzero(spectrum)
    x = freqs_pad[nz]
    chi0 = _chi_support(np.zeros(1), np.full(1, ell), x, spectrum[nz], L)[0]
    # tile m's cutoff is tile 0's times phase[m]; tally[e, m] counts the tiles of entry e at m
    count = int(tiles.m.max()) + 1
    phase = np.exp(-2j * np.pi * x * (np.arange(count) * ell)[:, None])
    tally = np.bincount(tiles.entry * count + tiles.m, minlength=len(q_hat) * count).reshape(-1, count)
    model_value = L * np.sum(chi0 * np.sum(q_hat[:, (-nz) % M] * (tally @ phase), axis=0))

    # direct side on the 2N grid, which holds every pairwise frequency sum
    (o1lo, o1hi), (o2lo, o2hi) = rects.omegas()
    a, b = rects.anchor
    freqs, c, d = f.freqs(), f.coeffs(), g.coeffs()
    uv = sum(_synthesize(_pad(adapted_bump(freqs - a, o1lo[r], o1hi[r], alpha) * c, 2 * N))
             * _synthesize(_pad(adapted_bump(freqs - b, o2lo[r], o2hi[r], alpha) * d, 2 * N))
             for r in np.unique(tiles.rect[tiles.entry]))
    adjoint_value = _period_pairing(_analyze(uv), _pad(h.coeffs(), 2 * N), L)

    deviation = abs(model_value - adjoint_value) / (abs(adjoint_value) + 1e-30)
    return {
        "model_value": complex(model_value),
        "adjoint_value": complex(adjoint_value),
        "deviation": float(deviation),
        "model_abs": float(abs(model_value)),
        "num_tiles": len(tiles),
    }
