"""Independent oracles kept deliberately naive.

These recompute results by brute force (direct double sums, exhaustive
coloring, point sampling) so the fast implementations are checked against
code that shares little of their structure.  What they do share with bmlab:

* the centered-layout helpers ``_analyze``, ``_synthesize``, ``_freq_grid``,
  ``_x_grid`` and ``_period_pairing`` (their numpy-shift twins below are
  checked against them bitwise) and ``lp_norm``;
* ``_bilinear_action``, which ``probe_reports_by_trial`` applies, so that
  oracle checks the probe's batching and draws, not the action;
* ``_tile_projections``, on which ``model_value_by_tile`` builds, so that
  oracle checks the tile sum, not the projections;
* ``whitney._rows``, ``_omega3_family`` and ``_omega3_weights``, on which
  ``omega3_partition_gap`` builds: it measures the partition they make.

The square-function ratio and the omega3 partition gap are measurements no
command runs; they live here, on the oracle projections.
"""

import math
from dataclasses import dataclass

import numpy as np

from bmlab.bumps import adapted_bump, fejer_sq_cdf, fejer_sq_spectrum
from bmlab.curves import CurveSpec
from bmlab.engine import (PROBE_FAMILIES, HolderChainReport, ProbeReport, SampledFunction, _bilinear_action,
                          _analyze, _freq_grid, _period_pairing, _synthesize, _x_grid, lp_norm)
from bmlab.intervals import neg_minkowski_sum, staircase_steps
from bmlab.whitney import (LATTICE_EXP, PARTITION_POINTS, PARTITION_TAIL, _dilate, _omega3_family,
                           _omega3_weights, _rows, _tile_projections, chi_values, r2_samples)


def bilinear_double_sum(sym, f, g):
    """Direct double frequency sum of the bilinear action, on the 2N grid;
    ``sym`` is any pointwise symbol (xi, eta) -> value."""
    c, d = f.coeffs(), g.coeffs()
    freqs = f.freqs()
    M = sym(freqs[:, None], freqs[None, :])
    n_out = 2 * f.N
    xs = f.L * np.arange(n_out) / n_out
    out = np.zeros(n_out, dtype=complex)
    for i in range(f.N):
        if c[i] == 0:
            continue
        for j in range(f.N):
            w = M[i, j] * c[i] * d[j]
            if w == 0:
                continue
            out += w * np.exp(2j * np.pi * (freqs[i] + freqs[j]) * xs)
    return out


def half_plane_evaluator(xi, eta):
    """The open half-plane eta > 0.4 xi - 0.3, cut to xi < 0.8."""
    return ((eta > xi * 0.4 - 0.3) & (xi < 0.8)).astype(float)


def bilinear_dense_table(ev, f, g):
    """The bilinear action through the pointwise symbol ``ev`` tabulated on the
    N x N grid: each product ev(xi_k, xi_l) c_k d_l lands in output slot
    k + l of the 2N grid.  Returns the output samples on the 2N grid."""
    N = f.N
    freqs = f.freqs()
    P = ev(freqs[:, None], freqs[None, :]) * np.outer(f.coeffs(), g.coeffs())
    k = np.arange(N)
    idx = (k[:, None] + k[None, :]).ravel()  # slot (k1 - N/2) + (k2 - N/2) + N in the 2N grid
    out = np.bincount(idx, weights=P.real.ravel(), minlength=2 * N).astype(complex)
    out += 1j * np.bincount(idx, weights=P.imag.ravel(), minlength=2 * N)
    return SampledFunction.from_coeffs(out, f.L).samples


def bilinear_integer_sum(sym, c, d, N, L):
    """The bilinear action of the pointwise symbol ``sym`` on the (N, L) grid
    in int64 arithmetic: the dense indicator sym(xi_k, xi_l) times c_k d_l,
    summed along each anti-diagonal k + l into output slot k + l of the 2N
    grid.  c and d must be Gaussian integers; the result is exact as complex
    while its parts stay below 2^53."""
    parts = [np.asarray(v) for v in (c.real, c.imag, d.real, d.imag)]
    if not all(np.array_equal(v, np.round(v)) for v in parts):
        raise ValueError("c and d must be Gaussian integers")
    cr, ci, dr, di = (v.astype(np.int64) for v in parts)
    freqs = _freq_grid(N, L)
    M = sym(freqs[:, None], freqs[None, :]).astype(np.int64)
    k = np.arange(N)
    slot = (k[:, None] + k[None, :]).ravel()
    out = np.zeros((2, 2 * N), dtype=np.int64)
    np.add.at(out[0], slot, (M * (np.outer(cr, dr) - np.outer(ci, di))).ravel())
    np.add.at(out[1], slot, (M * (np.outer(cr, di) + np.outer(ci, dr))).ravel())
    return out[0] + 1j * out[1]


# --- the centered layout through numpy's shift routines ----------------------------
# The engine's layout helpers as first written, with np.fft.fftshift/ifftshift,
# np.roll and a padded np.where; the engine swaps halves with slices instead.


def synthesize_shifted(c):
    return np.fft.ifft(np.fft.ifftshift(c, axes=-1), axis=-1) * c.shape[-1]


def analyze_shifted(x):
    return np.fft.fftshift(np.fft.fft(x, axis=-1), axes=-1) / x.shape[-1]


def period_pairing_rolled(u_hat, v_hat, L):
    return L * np.sum(u_hat * np.roll(v_hat[::-1], 1))


def masked_synthesis_padded(c, masks, M):
    N = c.shape[-1]
    cut = np.where(masks, c, 0.0)
    padded = np.zeros(cut.shape[:-1] + (M,), dtype=complex)
    padded[..., (M - N) // 2 : (M + N) // 2] = cut
    return synthesize_shifted(padded)


def sharp_projections(f, intervals, M):
    """(len(intervals), M) samples of the sharp cutoffs of f's coefficients to
    each interval (closure respected), synthesized on the M-point grid, M >= N."""
    masks = np.stack([iv.contains(f.freqs()) for iv in intervals])
    return masked_synthesis_padded(f.coeffs(), masks, M)


def carleson_maximal_dense(g):
    """Max over the prefix frequency sums' modulus from the full N x N table of
    waves (N^2 memory), the empty prefix included."""
    c = g.coeffs()
    x = g.L * np.arange(g.N) / g.N
    waves = np.exp(2j * np.pi * g.freqs()[:, None] * x[None, :]) * c[:, None]
    partial = np.cumsum(waves, axis=0)
    return np.maximum(np.max(np.abs(partial), axis=0), 0.0)


def exact_chromatic_number(intervals):
    """Smallest number of colors by exhaustive search (use only for <= 8)."""
    n = len(intervals)
    adj = [[intervals[i].overlaps(intervals[j]) for j in range(n)] for i in range(n)]

    def feasible(k):
        colors = [-1] * n

        def place(i):
            if i == n:
                return True
            used = {colors[j] for j in range(i) if adj[i][j]}
            for col in range(k):
                if col not in used:
                    colors[i] = col
                    if place(i + 1):
                        return True
            colors[i] = -1
            return False

        return place(0)

    for k in range(1, n + 1):
        if feasible(k):
            return k
    return n


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


def containment_failures_by_sampling(seq, rects, n=25):
    """Rows of ``rects`` with a point below the polygonal curve through the
    pair's vertices among ``n`` evenly spaced points on each of the
    rectangle's four edges, corners included.  The curve is interpolated
    here, end segments extended linearly.  Exact containment needs a convex
    polygon; this check does not."""
    ts = np.linspace(0.0, 1.0, n)
    (xlo, xhi), (elo, ehi) = ((lo[:, None], hi[:, None]) for lo, hi in rects.edges()[:2])
    edge_x = np.concatenate(
        [xlo + (xhi - xlo) * ts, xlo + (xhi - xlo) * ts,
         np.repeat(xlo, n, axis=1), np.repeat(xhi, n, axis=1)], axis=1
    )
    edge_y = np.concatenate(
        [np.repeat(elo, n, axis=1), np.repeat(ehi, n, axis=1),
         elo + (ehi - elo) * ts, elo + (ehi - elo) * ts], axis=1
    )
    xs, ys = seq.a[::-1], seq.b[::-1]
    s_lo, s_hi = (ys[1] - ys[0]) / (xs[1] - xs[0]), (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
    height = np.where(edge_x < xs[0], ys[0] + s_lo * (edge_x - xs[0]),
                      np.where(edge_x > xs[-1], ys[-1] + s_hi * (edge_x - xs[-1]), np.interp(edge_x, xs, ys)))
    ok = np.all(edge_y >= height, axis=1)
    return np.flatnonzero(~ok).tolist()


def tile_bump_evaluator(rects, rows, alpha):
    """The tile-bump symbol sum over ``rows`` of phi_r(xi - a_j) psi_r(eta - b_j),
    evaluated pointwise: the adapted bumps of the rows' omega1 and omega2."""
    a, b = rects.anchor
    (o1lo, o1hi), (o2lo, o2hi) = rects.omegas()
    data = [(o1lo[i], o1hi[i], o2lo[i], o2hi[i]) for i in rows]

    def ev(xi, eta):
        out = np.zeros(np.broadcast(xi, eta).shape)
        for lo1, hi1, lo2, hi2 in data:
            out = out + adapted_bump(xi - a, lo1, hi1, alpha) * adapted_bump(eta - b, lo2, hi2, alpha)
        return out

    return ev


def whitney_conditions_by_sampling(square, C0, n=1000):
    """(C0-dilate misses diagonal, 4C0-dilate meets it), by point sampling.

    The first condition samples the dilated square densely and requires a
    strictly one-sided xi - eta sign; the second scans diagonal points for
    membership in the larger dilate.
    """
    rng = np.random.default_rng(12345)
    s = square.side

    def misses(lam):
        half = 0.5 * lam * s
        pts = rng.uniform(-half, half, size=(n, 2))
        d = (square.cx + pts[:, 0]) - (square.cy + pts[:, 1])
        # also take the corners, where the extremes live
        for ex in (-half, half):
            for ey in (-half, half):
                d = np.append(d, (square.cx + ex) - (square.cy + ey))
        return bool(np.all(d > 0) or np.all(d < 0))

    def meets(lam):
        half = 0.5 * lam * s
        t = np.linspace(
            min(square.cx, square.cy) - half, max(square.cx, square.cy) + half, n
        )
        inside = (np.abs(t - square.cx) <= half) & (np.abs(t - square.cy) <= half)
        return bool(np.any(inside))

    return misses(C0), meets(4 * C0)


def omega3_partition_gap(rects, C0, alpha, n=10_000):
    """Max gap, over the cover's rows, between the summed third-slot pieces of
    ``whitney._omega3_weights`` and the wide output bump they partition, at
    ``n`` points across twice the bump's support."""
    gaps = []
    for k, cx, cy, K in _rows(rects):
        lo3, hi3, _ = _omega3_family(k, cx, cy, rects.s_j, K, C0, alpha)
        if not len(lo3):
            raise ValueError("no admissible third-slot cubes for this rectangle")
        lo, hi = _dilate(K, 1.0 / math.sqrt(alpha))
        xs = np.linspace(lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo), n)
        phi, weights = _omega3_weights(xs, K, list(zip(lo3, hi3)), alpha)
        gaps.append(float(np.max(np.abs(np.sum(weights, axis=0) - phi))))
    return max(gaps)


# --- curves --------------------------------------------------------------------


def piecewise_linear_curve(vertices) -> CurveSpec:
    """Curve interpolating vertices (a_j, b_j), a decreasing; slope is a step.

    Used to compare a vertex polygon against the generic epigraph machinery.
    The derivative is only weakly monotone, so this curve is not suitable for
    dyadic slope solving; its slope inverse is the vertex whose one-sided
    slopes bracket t.
    """
    pts = np.asarray(vertices, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two vertices")
    a = pts[:, 0]
    b = pts[:, 1]
    if not (np.all(np.diff(a) < 0) and np.all(np.diff(b) < 0)):
        raise ValueError("vertices must be strictly decreasing in both coordinates")
    xs = a[::-1]
    ys = b[::-1]
    slopes = np.diff(ys) / np.diff(xs)

    def gamma(x):
        return np.interp(np.asarray(x, dtype=float), xs, ys)

    def dgamma(x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(slopes) - 1)
        return slopes[idx]

    return CurveSpec(
        family="piecewise_linear",
        gamma=gamma,
        dgamma=dgamma,
        slope_inverse=lambda t: xs[np.searchsorted(slopes, t)],
        domain=(float(xs[0]), float(xs[-1])),
        a_limit=float(xs[0]),
        b_limit=float(ys[0]),
    )


def derivative_consistency(curve: CurveSpec, points, rel_step: float = 1e-6) -> float:
    """Max relative gap between dgamma and a central difference of gamma."""
    pts = np.asarray(points, dtype=float)
    h = rel_step * np.maximum(1.0, np.abs(pts))
    approx = (curve.gamma(pts + h) - curve.gamma(pts - h)) / (2.0 * h)
    exact = np.asarray(curve.dgamma(pts), dtype=float)
    return float(np.max(np.abs(approx - exact) / np.maximum(np.abs(exact), 1e-300)))


# --- naive symbol evaluators ---------------------------------------------------
# Each evaluates a symbol from its defining sum or set, step by step, sharing
# nothing with the column-bounds definitions in bmlab.symbols.


def staircase_evaluator(seq):
    a, b = seq.a, seq.b
    b_top = float(b[0])

    def ev(xi, eta):
        out = np.zeros(np.broadcast(xi, eta).shape)
        for k in range(1, len(a) - 1):
            step = (xi >= a[k + 1]) & (xi < a[k]) & (eta >= b[k]) & (eta < b_top)
            out = np.maximum(out, step.astype(float))
        return out

    return ev


def increasing_staircase_evaluator(u, v):
    uu, vv = u.a, v.a
    u0 = float(uu[0])

    def ev(xi, eta):
        out = np.zeros(np.broadcast(xi, eta).shape)
        for k in range(1, len(uu) - 1):
            step = (xi > u0) & (xi <= uu[k]) & (eta >= vv[k]) & (eta < vv[k + 1])
            out = np.maximum(out, step.astype(float))
        return out

    return ev


def rectangle_evaluator(xi_iv, eta_iv):
    (xlo, xhi), (elo, ehi) = xi_iv, eta_iv
    return lambda xi, eta: ((xi >= xlo) & (xi < xhi) & (eta >= elo) & (eta < ehi)).astype(float)


def constant_evaluator():
    return lambda xi, eta: np.ones(np.broadcast(xi, eta).shape)


def boundary_piece_evaluator(curve, seq, j):
    alo, ahi, btop = seq.a_at(j + 1), seq.a_at(j), seq.b_at(j)

    def ev(xi, eta):
        strip = (xi >= alo) & (xi < ahi)
        g = np.where(strip, curve.gamma(np.where(strip, xi, 0.5 * (alo + ahi))), 0.0)
        return (strip & (eta >= g) & (eta < btop)).astype(float)

    return ev


def epigraph_evaluator(curve, restriction):
    lo, hi = restriction

    def ev(xi, eta):
        strip = (xi >= lo) & (xi < hi)
        g = np.where(strip, curve.gamma(np.where(strip, xi, 0.5 * (lo + hi))), np.inf)
        return (strip & (eta >= g)).astype(float)

    return ev


def polygonal_epigraph_evaluator(vertices):
    pts = np.asarray(vertices, dtype=float)
    xs, ys = pts[::-1, 0], pts[::-1, 1]

    def ev(xi, eta):
        strip = (xi >= xs[0]) & (xi < xs[-1])
        return (strip & (eta >= np.interp(xi, xs, ys))).astype(float)

    return ev


def exponential_paraproduct_evaluators(J):
    def ev1(xi, eta):
        out = np.zeros(np.broadcast(xi, eta).shape)
        for j in range(0, J + 1):
            step = (xi >= -(j + 1)) & (xi < -j) & (eta >= 2.0**-j) & (eta < 1.0)
            out = np.maximum(out, step.astype(float))
        return out

    def ev2(xi, eta):
        out = np.zeros(np.broadcast(xi, eta).shape)
        for j in range(1, J + 1):
            step = (xi > 0.0) & (xi < j) & (eta >= 2.0**j) & (eta < 2.0 ** (j + 1))
            out = np.maximum(out, step.astype(float))
        return out

    def ev3(xi, eta):
        return ((xi <= 0.0) & (eta >= 1.0)).astype(float)

    return ev1, ev2, ev3


def hyp2_rewrite_evaluators(seq):
    a, b = seq.a, seq.b
    b_inf, b_top = float(seq.b_inf), float(b[0])
    truncated = seq.a_inf is None or not np.isfinite(seq.a_inf)

    def ev_rect(xi, eta):
        # a truncated tail closes the rectangle at a_last, as the staircase is
        left = (xi >= a[-1]) if truncated else (xi > float(seq.a_inf))
        return (left & (xi < a[0]) & (eta > b_inf) & (eta < b_top)).astype(float)

    def ev_comp(xi, eta):
        out = np.zeros(np.broadcast(xi, eta).shape)
        for k in range(0, len(a) - 1):
            step = (xi >= a[k + 1]) & (xi < a[k]) & (eta > b_inf) & (eta < b[k])
            out = np.maximum(out, step.astype(float))
        return out

    return ev_rect, ev_comp


def partition_sum_by_tiles(j0, B, window):
    """max |1 - sum of chi_values| over every scale-j0 tile, one tile at a time.

    Same points and margin as ``whitney.partition_check``: tiles of length
    B^(-j0) out to where the kernel CDF tail drops below ``PARTITION_TAIL`` on
    each side, measured at ``PARTITION_POINTS`` points.
    """
    tile_len = float(B) ** (-j0)
    lam, r0 = tile_len, 4.0 ** (-float(B))
    lo_m, hi_m = tile_len, tile_len
    while fejer_sq_cdf(-lam * hi_m, r0) > PARTITION_TAIL and hi_m < 1e9 * tile_len:
        hi_m *= 2.0
    while hi_m - lo_m > 1e-3 * tile_len:
        mid = 0.5 * (lo_m + hi_m)
        if fejer_sq_cdf(-lam * mid, r0) > PARTITION_TAIL:
            lo_m = mid
        else:
            hi_m = mid
    wlo, whi = window
    m_lo = math.floor((wlo - hi_m) / tile_len)
    m_hi = math.ceil((whi + hi_m) / tile_len)
    xs = np.linspace(wlo + tile_len, whi - tile_len, PARTITION_POINTS)
    total = np.zeros(PARTITION_POINTS)
    for m in range(m_lo, m_hi + 1):
        total += chi_values(xs, (m * tile_len, (m + 1) * tile_len), j0, B)
    return float(np.max(np.abs(1.0 - total)))


def max_overlap_sweep(intervals):
    """Most closed intervals (lo, hi) sharing a point, by a sweep over the
    sorted events: at a shared coordinate opens precede closes, so touching
    closed intervals count as overlapping."""
    if not intervals:
        return 0
    events = sorted([(lo, 0) for lo, _ in intervals] + [(hi, 1) for _, hi in intervals])
    best = cur = 0
    for _, kind in events:
        if kind == 0:
            cur += 1
            best = max(best, cur)
        else:
            cur -= 1
    return best


def max_point_overlap(intervals) -> int:
    """Most half-open intervals sharing a point, by counting the members of
    each candidate point: every endpoint and every midpoint of consecutive
    distinct endpoints, which with half-open data hits every combinatorial
    cell."""
    ivs = list(intervals)
    if not ivs:
        return 0
    ends = np.unique(np.array([v for iv in ivs for v in (iv.lo, iv.hi)], dtype=float))
    cand = np.concatenate([ends, 0.5 * (ends[:-1] + ends[1:])])
    return max(sum(bool(iv.contains(x)) for iv in ivs) for x in cand)


def coloring_is_certified(res) -> bool:
    """Re-scan each color class of a ``ColoringResult`` for pairwise
    disjointness and check that the number of colors matches the maximum
    point overlap."""
    for group in res.certificate.values():
        ordered = sorted(group, key=lambda iv: (iv.lo, iv.hi))
        if any(left.overlaps(right) for left, right in zip(ordered, ordered[1:])):
            return False
    return res.num_colors == max_point_overlap(iv for group in res.certificate.values() for iv in group)


def csv_text_by_rows(header, rows):
    """CSV text formatted one cell at a time: repr of each float (numpy
    floats included), str of anything else."""

    def fmt(v):
        return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)

    return "\n".join([",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]) + "\n"


def pgm_text_by_pixels(bitmap):
    """Plain PGM (P2) text written one pixel at a time, rows from the top of
    the eta axis down."""
    scaled = np.clip(np.rint(np.asarray(bitmap, dtype=float) * 255), 0, 255).astype(int)
    rows = scaled.T[::-1]
    lines = ["P2", f"{rows.shape[1]} {rows.shape[0]}", "255"]
    for row in rows:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def cover_squares_by_unique_rows(seq, j, alpha, C0, samples):
    """The (k, cx, cy) rows ``build_cover`` selects, found the first way it
    was written: snap every sample as ``build_cover`` does, then keep the
    first covered sample of each distinct (k, cx/delta, cy/delta) row by
    ``np.unique(axis=0)``."""
    w = seq.a_at(j) - seq.a_at(j + 1)
    uv = r2_samples(samples)
    x = w * np.maximum(uv[:, 0], uv[:, 1])
    y = w * np.minimum(uv[:, 0], uv[:, 1])
    keep = x - y > w * 1e-12
    x, y = x[keep], y[keep]
    k = np.floor(np.log2((x - y) / C0)).astype(int) - 1
    s, delta = 2.0**k, 2.0 ** (k - 2)
    cx, cy = np.round(x / delta) * delta, np.round(y / delta) * delta
    for _ in range(3):
        cg = cx - cy
        cy = np.where(cg > 4.0 * C0 * s, cy + delta, np.where(cg <= C0 * s, cy - delta, cy))
    covered = ((cx - cy > C0 * s) & (cx - cy <= 4.0 * C0 * s)
               & (np.abs(x - cx) <= 0.5 * alpha * s) & (np.abs(y - cy) <= 0.5 * alpha * s))
    keys = np.column_stack([k, np.round(cx / delta), np.round(cy / delta)])[covered]
    _, first_pos = np.unique(keys, axis=0, return_index=True)
    pick = np.flatnonzero(covered)[np.sort(first_pos)]
    return k[pick], cx[pick], cy[pick]


def chi_coeffs_dense(interval, j, B, M, L):
    """Centered Fourier coefficients of the periodized mollified cutoff,
    with the box transform and the kernel spectrum taken at every slot."""
    lam, r0 = float(B) ** (-j), 4.0 ** (-float(B))
    xi = _freq_grid(M, L)
    lo, hi = interval
    with np.errstate(divide="ignore", invalid="ignore"):
        box = np.where(
            xi == 0.0,
            hi - lo,
            (np.exp(-2j * np.pi * xi * lo) - np.exp(-2j * np.pi * xi * hi)) / (2j * np.pi * xi),
        )
    return box * fejer_sq_spectrum(xi / lam, r0) / L


def model_value_by_tile(f, g, h, tiles):
    """The model side of ``whitney.model_sum_eval`` as first written: each
    tile's cutoff coefficients on all 4N slots (``chi_coeffs_dense``) paired
    with its entry's projection coefficients by a full-length period pairing,
    and the pairings summed tile by tile over the set's (entry, m) pairs."""
    M, L, ell = 4 * f.N, f.L, tiles.tile_len
    q_hat = _tile_projections(f, g, h, tiles)
    total = 0.0 + 0.0j
    for e, m in zip(tiles.entry.tolist(), tiles.m.tolist()):
        chi = chi_coeffs_dense((m * ell, (m + 1) * ell), tiles.j, tiles.exponent_base, M, L)
        total += _period_pairing(chi, q_hat[e], L)
    return total


def _cube_condition_scalar(center, side, C0):
    """``whitney.cube_condition`` as first written, on one scalar center."""
    spread = max(center) - min(center)
    return C0 * side < spread <= 10.0 * C0 * side


def multitiles_by_object(rects, C0, exponent_base, space_len, alpha):
    """The multi-tiles of ``whitney.enumerate_multitiles`` as first written:
    one dict of ``I_P``, ``omega1``, ``omega2``, ``omega3``, ``j``,
    ``scale_k``, ``cube_center`` and ``rect_key`` per tile, built row by row,
    third-slot cube by cube (a scalar scan of the lattice steps) and space
    tile by space tile."""
    tile_len = float(exponent_base) ** (-rects.j)
    count = int(round(space_len / tile_len))
    (o1lo, o1hi), (o2lo, o2hi) = rects.omegas()
    klo, khi = rects.k_interval()
    tiles = []
    for key in range(len(rects)):
        k, cx, cy = int(rects.k[key]), float(rects.cx[key]), float(rects.cy[key])
        K = (float(klo[key]), float(khi[key]))
        s = 2.0**k
        c, half, factor = 0.5 * (K[0] + K[1]), 0.5 * (K[1] - K[0]), 1.0 / math.sqrt(alpha)
        target = (c - factor * half, c + factor * half)
        stretch = 1.0 + rects.s_j
        delta = 2.0 ** (k - LATTICE_EXP)
        stride = max(1, int(round(0.25 * s / delta)))
        base_slot = int(round(0.5 * (K[0] + K[1]) / stretch / delta))
        span = int(math.ceil((target[1] - target[0]) / (stretch * stride * delta))) + 4
        for step in range(-span, span + 1):
            cK = (base_slot + step * stride) * delta
            lo3, hi3 = stretch * (cK - 0.5 * s), stretch * (cK + 0.5 * s)
            if hi3 < target[0] - 0.25 * stretch * s or lo3 > target[1] + 0.25 * stretch * s:
                continue
            if not _cube_condition_scalar((cx, cy, cK), s, C0):
                continue
            tiles.extend(
                dict(I_P=(m * tile_len, (m + 1) * tile_len), omega1=(float(o1lo[key]), float(o1hi[key])),
                     omega2=(float(o2lo[key]), float(o2hi[key])), omega3=(lo3, hi3), j=rects.j, scale_k=k,
                     cube_center=(cx, cy, cK), rect_key=key)
                for m in range(count)
            )
    return tiles


# --- probes one trial at a time ---------------------------------------------------


def _wave_packets(rng, N, L, carrier):
    """Three Gaussian packets on the period grid; ``carrier(k0)`` gives the N
    samples of the wave e^(2 pi i k0 x / L)."""
    x = _x_grid(N, L)
    out = np.zeros(N, dtype=complex)
    for _ in range(3):
        x0 = rng.uniform(0, L)
        sigma = rng.uniform(L / 64, L / 8)
        k0 = rng.integers(-N // 3, N // 3 + 1)
        amp = rng.normal() + 1j * rng.normal()
        d = np.remainder(x - x0 + L / 2, L) - L / 2
        out += amp * np.exp(-(d**2) / (2 * sigma**2)) * carrier(k0)
    return out


def _wave_packets_scalar(rng, N, L):
    # at x = nL/N the wave is exactly the root of unity w^(k0 n), w = e^(2 pi i / N)
    roots = np.exp(2j * np.pi * np.arange(N) / N)
    out = _wave_packets(rng, N, L, lambda k0: roots[k0 * np.arange(N) % N])
    return out, _analyze(out)


def wave_packets_float_carrier(rng, N, L):
    """The wave-packet samples with each carrier evaluated as
    exp(2 pi i k0 x / L) at the float grid points, its phase rounded at up
    to 2 pi N / 3 rad: the exact carriers differ from it by rounding alone."""
    return _wave_packets(rng, N, L, lambda k0: np.exp(2j * np.pi * k0 * _x_grid(N, L) / L))


def _sparse_spectrum_scalar(rng, N, L):
    m = max(2, N // 16)
    slots = rng.choice(N, size=m, replace=False)
    c = np.zeros(N, dtype=complex)
    c[slots] = rng.normal(size=m) + 1j * rng.normal(size=m)
    return _synthesize(c), c


def _random_sign_scalar(rng, N, L):
    c = rng.choice([-1.0, 1.0], size=N).astype(complex)
    return _synthesize(c), c


SCALAR_TRIAL_FAMILIES = {
    "wave_packets": _wave_packets_scalar,
    "sparse_spectrum": _sparse_spectrum_scalar,
    "random_sign": _random_sign_scalar,
}


def trial_pair_by_scalar_draws(family, seed_key, N, L):
    """The probe trial pair drawn one generator and one 1-d array at a time,
    f's draws then g's: ((f, f's coefficients), (g, g's coefficients)), the
    coefficients as the family hands them out."""
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    gen = SCALAR_TRIAL_FAMILIES[family]
    (f, cf), (g, cg) = gen(rng, N, L), gen(rng, N, L)
    return (SampledFunction(f, L), cf), (SampledFunction(g, L), cg)


def probe_reports_by_trial(sym, triples, trials, resolutions, seed, L=32.0):
    """``engine.probe_reports`` one trial at a time: each trial pair drawn by
    ``trial_pair_by_scalar_draws``, its coefficients applied and its samples
    measured on their own; a trial
    whose denominator is 0 is skipped and the first maximal trial wins."""
    resolutions = sorted(int(N) for N in resolutions)
    reports = [ProbeReport(e, list(resolutions), trials, seed, float(L)) for e in triples]
    for ri, N in enumerate(resolutions):
        act = _bilinear_action(sym, _freq_grid(N, L))
        for fi, family in enumerate(PROBE_FAMILIES):
            best = [(0.0, -1)] * len(reports)
            for t in range(trials):
                (f, cf), (g, cg) = trial_pair_by_scalar_draws(family, (seed, ri, fi, t), N, L)
                out = SampledFunction.from_coeffs(act(cf, cg), L)
                for i, e in enumerate(triples):
                    denom = lp_norm(f, e.p1) * lp_norm(g, e.p2)
                    if denom == 0:
                        continue
                    ratio = lp_norm(out, e.p3_dual) / denom
                    if ratio > best[i][0]:
                        best[i] = (ratio, t)
            for report, (ratio, t) in zip(reports, best):
                report.rows.append({"family": family, "N": N, "max_ratio": float(ratio), "argmax_trial": t})
    lo, hi = resolutions[0], resolutions[-1]
    for report in reports:
        base, top = report.max_ratio_at(lo), report.max_ratio_at(hi)
        report.growth_factor = top / base if base > 0 else (math.inf if top > 0 else math.nan)
    return reports


def mixed_norm(fs, outer_p, inner="l2"):
    """L^p norm over the period of the pointwise inner norm ('l2' or 'linf')
    across the list of functions, which share one grid, as a Riemann sum."""
    N, L = fs[0].N, fs[0].L
    vals = np.abs(np.stack([f.samples for f in fs]))
    pointwise = np.sqrt(np.sum(vals**2, axis=0)) if inner == "l2" else np.max(vals, axis=0)
    return float(np.sum(pointwise**outer_p) * (L / N)) ** (1.0 / outer_p)


def square_function_ratio(f, coll, p):
    """Measured square-function ratios of f for a family of frequency intervals.

    upper_ratio = ||Sf||_p / ||f||_p with Sf the l2 aggregate of the sharp
    projections.  lower_ratio repeats the value only when the family covers
    every grid frequency (two-sided regime); otherwise None.
    """
    base = lp_norm(f, p)
    if base == 0:
        raise ValueError("f must be nonzero")
    masks = np.stack([iv.contains(f.freqs()) for iv in coll])
    rows = masked_synthesis_padded(f.coeffs(), masks, f.N)
    upper = mixed_norm([SampledFunction(r, f.L) for r in rows], p, "l2") / base
    covers = bool(np.all(np.any(masks, axis=0)))
    return {"upper_ratio": upper, "lower_ratio": upper if covers else None, "covers_band": covers}


def holder_chain_by_families(seq, f, g, h, e):
    """``holder_chain_check``'s report rebuilt one family at a time: each
    family by ``sharp_projections`` on the 2N grid, its norm by ``mixed_norm``,
    M_B from dense prefix sums of g's series at the cutoffs bounding the B_j
    (the empty prefix included), and the form as the direct triple sum
    L sum_j sum_{k + l + m = 0} c_k d_l e_m over the slots of A_j, B_j and
    -A_j - B_j.  The identity gap is the distance between that sum and the
    Riemann sum of the projections' products."""
    N, L, M = f.N, f.L, 2 * f.N
    h = SampledFunction(h.samples / lp_norm(h, e.p3), L)
    steps = staircase_steps(seq)
    As, Bs = [A for A, _ in steps], [B for _, B in steps]
    Cs = [neg_minkowski_sum(A, B) for A, B in steps]
    fa, gb, hc = sharp_projections(f, As, M), sharp_projections(g, Bs, M), sharp_projections(h, Cs, M)
    riemann = abs(np.sum(fa * gb * hc) * (L / M))

    freqs, kappa = f.freqs(), np.arange(-N // 2, N // 2)
    cf, cg, ch = f.coeffs(), g.coeffs(), h.coeffs()
    form = 0j
    for A, B, C in zip(As, Bs, Cs):
        ka, kb = np.flatnonzero(A.contains(freqs)), np.flatnonzero(B.contains(freqs))
        m = N // 2 - kappa[ka][:, None] - kappa[kb][None, :]  # the slot of -(xi_k + xi_l)
        on = (m >= 0) & (m < N)
        on[on] = C.contains(freqs[m[on]])
        form += np.sum((cf[ka][:, None] * cg[kb][None, :])[on] * ch[m[on]])
    lhs = abs(L * form)

    n1 = mixed_norm([SampledFunction(r, L) for r in fa], e.p1, "l2")
    n2 = mixed_norm([SampledFunction(r, L) for r in gb], e.p2, "linf")
    n3 = mixed_norm([SampledFunction(r, L) for r in hc], e.p3, "l2")

    cuts = {0}
    for B in Bs:
        slots = np.flatnonzero(B.contains(freqs))
        if len(slots):
            cuts.update((slots[0], slots[-1] + 1))
    cuts, top = sorted(cuts), max(cuts)
    roots = np.exp(2j * np.pi * np.arange(N) / N)  # wave k at sample n is roots[k n mod N]
    m_b = np.zeros(N)
    for n in np.array_split(np.arange(N), max(1, N // 256)):
        partial = np.cumsum(roots[(n[:, None] * kappa[:top]) % N] * cg[:top], axis=1)
        prefix = np.hstack([np.zeros((len(n), 1)), partial])  # column c: the sum over the slots below c
        m_b[n] = np.max(np.abs(prefix[:, cuts]), axis=1)
    worst = np.max(np.abs(sharp_projections(g, Bs, N)), axis=0)
    margin = max(0.0, float(np.max(worst - 2.0 * m_b)))
    gap = abs(riemann - lhs)
    rhs = n1 * n2 * n3
    return HolderChainReport(
        lhs=lhs,
        rhs_product=rhs,
        satisfied=bool(lhs <= rhs * (1.0 + 1e-10) + 1e-12 and gap <= 1e-8 * max(lhs, 1.0)),
        identity_gap=gap,
        carleson_margin=margin,
        carleson_ok=bool(margin <= 1e-10 * max(1.0, float(np.max(m_b)))),
        factors=(n1, n2, n3),
    )
