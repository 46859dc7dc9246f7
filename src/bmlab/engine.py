"""Discrete bilinear multiplier engine on periodic band-limited functions.

A function is N complex samples on a period-L grid, read as the trigonometric
polynomial with frequencies k/L, k = -N/2 .. N/2 - 1.  Multiplier action is
exact on this class: the bilinear application forms sum_{k,l} m(xi_k, xi_l)
c_k d_l at output frequency (k + l)/L, zero-padded to a 2N grid so no output
frequency aliases.  All integrals are period Riemann sums.  A pairing of two
trigonometric polynomials resolved by the grid is exact; an L^p norm is the
Riemann sum of |f|^p, which is not a trigonometric polynomial, so it is a
grid norm and may differ from the norm of f over the continuous period.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .intervals import neg_minkowski_sum, staircase_steps
from .curves import SequencePair
from .symbols import SymbolSpec, staircase_symbol

__all__ = [
    "SampledFunction",
    "ExponentTriple",
    "ProbeReport",
    "HolderChainReport",
    "apply_bilinear",
    "lp_norm",
    "holder_chain_check",
    "norm_probe",
    "probe_reports",
    "PROBE_FAMILIES",
]


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


# --- the centered layout ----------------------------------------------------------
# Slot k of N centered coefficients holds frequency (k - N/2)/L.  A band of N
# slots sits in an M-slot array at offset (M - N)/2, and in a period integral
# slot s pairs with slot M - s.  These helpers are the package's only FFT calls.


def _freq_grid(N: int, L: float) -> np.ndarray:
    """The frequencies k/L, k = -N/2 .. N/2 - 1, of the N centered slots."""
    return np.arange(-N // 2, N // 2) / L


def _x_grid(N: int, L: float) -> np.ndarray:
    """The N sample points n L / N of the period grid."""
    return L * np.arange(N) / N


def _pad(c: np.ndarray, M: int) -> np.ndarray:
    """Centered coefficients zero-padded to M slots on the last axis."""
    N = c.shape[-1]
    out = np.zeros(c.shape[:-1] + (M,), dtype=complex)
    out[..., (M - N) // 2 : (M + N) // 2] = c
    return out


def _swap_halves(a: np.ndarray) -> np.ndarray:
    """Centered order to FFT order and back: the halves of the even last axis swapped."""
    n = a.shape[-1] // 2
    return np.concatenate((a[..., n:], a[..., :n]), axis=-1)


def _synthesize(c: np.ndarray) -> np.ndarray:
    """Samples on the period grid of centered coefficients (last axis)."""
    return _synthesize_fft_order(_swap_halves(c))


def _magnitudes(c: np.ndarray) -> np.ndarray:
    """|samples| on the period grid of centered coefficients (last axis,
    power-of-two length M), the bits of np.abs(_synthesize(c)): read in FFT
    order, centered slot s is slot s - M/2, which only flips the sign of every
    other sample, and at power-of-two M the unscaled inverse is ifft(z) * M."""
    return np.abs(np.fft.ifft(c, axis=-1, norm="forward"))


def _analyze(x: np.ndarray) -> np.ndarray:
    """Centered coefficients of period-grid samples (last axis)."""
    return _swap_halves(np.fft.fft(x, axis=-1, norm="forward"))  # the bits of fft(x) / N


def _period_pairing(u_hat: np.ndarray, v_hat: np.ndarray, L: float) -> complex:
    """Period integral of u*v from M centered coefficients each: L times the
    sum of u_hat[s] v_hat[M - s], slot 0 pairing with itself (the M-point
    Riemann sum of u*v).  Exact when slot 0 of either is empty, as after
    zero-padding."""
    return L * np.sum(u_hat * np.concatenate((v_hat[:1], v_hat[:0:-1])))


def _masks(intervals, freqs: np.ndarray) -> np.ndarray:
    """(len(intervals), N) membership of the grid frequencies in each interval
    (closure respected)."""
    return np.stack([iv.contains(freqs) for iv in intervals])


def _synthesize_fft_order(z: np.ndarray) -> np.ndarray:
    """Samples on the period grid of coefficients in FFT order (last axis)."""
    x = np.fft.ifft(z, axis=-1)  # out=z is slower: numpy copies an overlapping input
    x *= z.shape[-1]  # the bits of ifft(z) * M, which norm="forward" does not keep at M = 6
    return x


@dataclass(frozen=True)
class SampledFunction:
    """N complex samples of one period of a band-limited function."""

    samples: np.ndarray
    L: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or not _is_pow2(len(samples)):
            raise ValueError("samples must be a 1-d array of power-of-two length")
        if not self.L > 0:
            raise ValueError("period must be positive")

    @property
    def N(self) -> int:
        return len(self.samples)

    def freqs(self) -> np.ndarray:
        return _freq_grid(self.N, self.L)

    def coeffs(self) -> np.ndarray:
        """Centered coefficients c_k, k = -N/2 .. N/2 - 1."""
        return _analyze(self.samples)

    @classmethod
    def from_coeffs(cls, coeffs: np.ndarray, L: float) -> "SampledFunction":
        return cls(samples=_synthesize(np.asarray(coeffs, dtype=complex)), L=L)


@dataclass(frozen=True)
class ExponentTriple:
    """Exponents p1, p2, p3 in (1, inf) with reciprocals summing to 1."""

    p1: float
    p2: float
    p3: float

    def __post_init__(self):
        for p in (self.p1, self.p2, self.p3):
            if not (1.0 < p < math.inf):
                raise ValueError("exponents must lie in (1, inf)")
        if abs(1.0 / self.p1 + 1.0 / self.p2 + 1.0 / self.p3 - 1.0) > 1e-12:
            raise ValueError("reciprocals must sum to 1 (the scaling relation)")

    @property
    def p3_dual(self) -> float:
        return self.p3 / (self.p3 - 1.0)

    def as_tuple(self):
        return (self.p1, self.p2, self.p3)


def _bilinear_action(sym: SymbolSpec, freqs: np.ndarray):
    """The map (c, d) -> centered 2N output coefficients of ``sym`` applied on
    the grid ``freqs``, for one pair of (N,) coefficient arrays or row by row
    for two (T, N) stacks; build it once per grid.

    The symbol is applied by rectangles: consecutive columns with equal
    eta-index range [l0, l1) form a block [k0, k1) x [l0, l1), which adds the
    linear convolution of c[k0:k1] and d[l0:l1] at output slot k0 + l0.  Every
    block is one ``np.convolve`` per row, but a thin one, narrow side n and
    long side m with n^2 < m: it sums its n shifted products of the long side
    over the whole stack in one scratch run, after the convolved blocks.  Each
    row's bits do not depend on the other rows.  Work is O(support), memory
    O(T N).
    """
    N = len(freqs)
    lo, hi = sym.columns(freqs, freqs)
    cut = np.flatnonzero((lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])) + 1
    convolved, thin = [], []  # thin: (c holds the narrow side, its first slot, n, the long side's, m, output slot)
    for k0, k1 in zip(np.r_[0, cut], np.r_[cut, N]):
        k0, k1, l0, l1 = int(k0), int(k1), int(lo[k0]), int(hi[k0])
        n, m = sorted((k1 - k0, l1 - l0))
        if n < 1:
            continue
        if n * n >= m:
            convolved.append((k0, k1, l0, l1))
        elif n == k1 - k0:
            thin.append((True, k0, n, l0, m, k0 + l0))
        else:
            thin.append((False, l0, n, k0, m, k0 + l0))
    run = max((n + m - 1 for _, _, n, _, m, _ in thin), default=0)

    def by_blocks(c, d):
        if c.ndim == 1:
            out = np.zeros(2 * N, dtype=complex)
            rows = ((out, c, d),)
        else:
            out = np.zeros((len(c), 2 * N), dtype=complex)
            rows = zip(out, c, d)
        for o, ci, di in rows:
            for k0, k1, l0, l1 in convolved:
                o[k0 + l0 : k1 + l1 - 1] += np.convolve(ci[k0:k1], di[l0:l1])
        if not thin:
            return out
        # the long side times each narrow value, shifted by its index, summed in one scratch run
        scratch, prod = np.empty((2,) + c.shape[:-1] + (run,), dtype=complex)
        with np.errstate():  # restores the buffer size on exit
            # numpy copies a ufunc's operands through its buffer when they are 4 or
            # more rows shorter than a quarter of it (8192 elements by default), at
            # 3-4x the cost of reading them in place; a 16-element buffer reads them
            # in place, so a stack of 4 rows is not slower than 4 pairs
            np.setbufsize(16)
            for c_narrow, s0, n, t0, m, o0 in thin:
                short, long = (c, d[..., t0 : t0 + m]) if c_narrow else (d, c[..., t0 : t0 + m])
                r, p = scratch[..., : n + m - 1], prod[..., :m]
                np.multiply(short[..., s0, None], long, out=r[..., :m])
                r[..., m:] = 0.0
                for i in range(1, n):
                    np.multiply(short[..., s0 + i, None], long, out=p)
                    r[..., i : i + m] += p
                out[..., o0 : o0 + n + m - 1] += r
        return out

    return by_blocks


@functools.lru_cache(maxsize=8)
def _grid_action(sym: SymbolSpec, N: int, L: float) -> Callable:
    """``_bilinear_action`` of ``sym`` on the (N, L) grid.  Symbols compare by their
    ``eta_bounds`` object, so a freshly built one is never served another's action."""
    return _bilinear_action(sym, _freq_grid(N, L))


def apply_bilinear(sym: SymbolSpec, f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Apply the symbol as a bilinear multiplier; output has 2N samples.

    The output spectrum is the exact set of pairwise frequency sums weighted
    by the symbol; zero-padding to 2N leaves no aliasing.
    """
    if f.N != g.N or f.L != g.L:
        raise ValueError("mismatched grids: f and g must share N and L")
    act = _grid_action(sym, f.N, f.L)
    return SampledFunction.from_coeffs(act(f.coeffs(), g.coeffs()), f.L)


def _outer_lp(pointwise: np.ndarray, p: float, L: float):
    """L^p norm over the period, as a Riemann sum, of pointwise values on a
    period-L grid (last axis): a float, or for a (T, M) batch a list of T
    floats."""
    if p < 1.0:
        raise ValueError("outer exponent must be >= 1")
    sums = np.add.reduce(pointwise**p, axis=-1) * (L / pointwise.shape[-1])
    if pointwise.ndim == 1:
        return float(sums) ** (1.0 / p)
    return [float(total) ** (1.0 / p) for total in sums]


def lp_norm(f: SampledFunction, p: float) -> float:
    return _outer_lp(np.abs(f.samples), p, f.L)


def _add_squares(acc, mags: np.ndarray) -> np.ndarray:
    """acc + mags[0]**2 + mags[1]**2 + ..., added in that order down the
    first axis: a sum of squares taken block by block has the bits of one
    np.add.reduce over every block's rows (acc starts as 0.0, which adds
    exactly)."""
    stack = np.empty((1 + len(mags),) + mags.shape[1:])
    stack[0] = acc
    np.square(mags, out=stack[1:])
    return np.add.reduce(stack, axis=0)


@dataclass
class HolderChainReport:
    lhs: float
    rhs_product: float
    satisfied: bool
    identity_gap: float
    carleson_margin: float
    carleson_ok: bool
    factors: tuple[float, float, float]


# Samples per stacked array: one block of a Hölder chain call (whole steps, at
# least one) or one (trials, N) batch of the probe (at least one trial).
# 128 KiB of complex samples, glibc's default mmap threshold.  Against 2^16 it
# cut a warm probe call's minor page faults by 60-75% below N = 4096; at
# N = 4096 a warm 16-trial call took about 10,200 faults at every cap from
# 2^13 to 2^16.
BATCH_SAMPLES = 2**13


class _ChainBlock(NamedTuple):
    """One stacked synthesis of the Hölder chain.  It synthesizes ``rows``
    rows, one per distinct non-empty (owner, mask) of its plan rows, from
    the flat positions ``fill`` in the block's FFT-order array and in the
    (3, N) centered coefficients of f, g and h.  Each plan row reads one of
    those rows, or -1 for an empty mask, which reads a zero row appended to
    the magnitudes when ``empty``: ``steps`` holds the f, g and h rows of
    each whole step, ``prefix`` those of the prefix rows that follow them,
    and ``fgh`` the f, g and h rows of the ``live`` steps (plan step
    numbers), those with no empty row."""

    rows: int
    empty: bool
    fill: tuple
    steps: np.ndarray
    prefix: np.ndarray
    live: np.ndarray
    fgh: np.ndarray


class _ChainPlan(NamedTuple):
    """What the Hölder chain needs of one staircase on one grid.  ``masks``
    holds, for each step j in turn, the frequency rows of A_j, B_j and
    -A_j - B_j, then the prefix rows: the grid slots below each cutoff that
    bounds a B_j (the empty prefix first).  ``owners`` names the input each
    row cuts: 0 for f, 1 for g, 2 for h.  ``blocks`` runs over the rows in
    ``_ChainBlock``s of at most ``BATCH_SAMPLES`` samples on the 2N grid (but
    at least one step): whole steps, the prefix rows filling the last block
    of steps before they take blocks of their own.  The arrays are
    read-only."""

    masks: np.ndarray
    owners: np.ndarray
    steps: int
    act: Callable
    blocks: tuple

    @classmethod
    def build(cls, masks: np.ndarray, owners: np.ndarray, steps: int, act: Callable) -> "_ChainPlan":
        N = masks.shape[1]
        M = 2 * N
        per_block = max(3, BATCH_SAMPLES // M)
        starts = list(range(0, 3 * steps, 3 * (per_block // 3)))
        starts += range(starts[-1] + per_block if starts else 0, len(masks), per_block)
        blocks = []
        for r0, r1 in zip(starts, starts[1:] + [len(masks)]):
            first = {}  # (owner, mask) -> (its row in the block, its first plan row)
            pick = np.array([first.setdefault((owners[r], masks[r].tobytes()), (len(first), r))[0]
                             if masks[r].any() else -1 for r in range(r0, r1)], dtype=np.intp)
            kept = np.array([r for _, r in first.values()], dtype=np.intp)
            rows, slots = np.nonzero(masks[kept])
            # centered slot s holds frequency s - N/2, at (s - N/2) mod M in FFT order
            fill = (rows * M + (slots - N // 2) % M, owners[kept[rows]] * N + slots)
            lead = max(0, min(r1, 3 * steps) - r0)  # the rows of whole steps lead the block
            fgh = pick[:lead].reshape(-1, 3)
            live = np.flatnonzero(np.all(fgh >= 0, axis=1))
            blk = _ChainBlock(len(first), bool(-1 in pick), fill, fgh, pick[lead:],
                              r0 // 3 + live, fgh[live].T.copy())
            for a in (*fill, *blk[3:]):
                a.flags.writeable = False
            blocks.append(blk)
        masks.flags.writeable = owners.flags.writeable = False
        return cls(masks, owners, steps, act, tuple(blocks))


@functools.lru_cache(maxsize=8)
def _chain_plan(a: bytes, b: bytes, direction: str, N: int, L: float) -> _ChainPlan:
    """The chain plan of one staircase on one grid, with the staircase action.
    Keyed on the sequence values, so an equal pair reuses the plan and a
    changed one can never be served a stale one."""
    seq = SequencePair(np.frombuffer(a), np.frombuffer(b), direction)
    freqs = _freq_grid(N, L)
    steps = staircase_steps(seq)
    step_masks = _masks([iv for A, B in steps for iv in (A, B, neg_minkowski_sum(A, B))], freqs)
    cuts = {0}
    for row in step_masks[1::3]:
        slots = np.flatnonzero(row)
        if len(slots):
            cuts.update((int(slots[0]), int(slots[-1]) + 1))
    masks = np.vstack([step_masks, np.arange(N) < np.array(sorted(cuts))[:, None]])
    owners = np.array([0, 1, 2] * len(steps) + [1] * len(cuts))
    return _ChainPlan.build(masks, owners, len(steps), _bilinear_action(staircase_symbol(seq), freqs))


def holder_chain_check(
    seq: SequencePair,
    f: SampledFunction,
    g: SampledFunction,
    h: SampledFunction,
    e: ExponentTriple,
) -> HolderChainReport:
    """Check the staircase trilinear form against its three-factor bound.

    h is normalized to unit L^{p3} norm.  The form integral is computed both
    through the bilinear application and as the sum over steps of triple
    products of the slot projections; the two must agree to 1e-8 relative
    (frequency support bookkeeping).  The bound multiplies the L^{p1}(l2),
    L^{p2}(linf) and L^{p3}(l2) norms of the projection families, with the
    middle family also checked against twice the maximal partial-sum operator
    pointwise.

    Each P_{B_j} g is S_hi - S_lo, the partial sums S_c below the cutoffs
    bounding B_j, so it is checked against twice M_B, the max of |S_c| over
    those cutoffs (the empty prefix included).  M_B is at most the maximal,
    so a pass against 2 M_B is a pass against twice the maximal; the margin
    is by how much the worst sample exceeds 2 M_B, if at all.

    Every projection, the partial sums included, comes from one stacked
    synthesis on the 2N grid, in blocks of whole steps of at most
    ``BATCH_SAMPLES`` samples, each reduced before the next is built.  A
    block synthesizes each distinct non-empty row once.  The reductions keep
    the bits of synthesizing every row: a step with an empty row has a zero
    product, the f and h squares add in step order (an empty row adds 0.0,
    a repeated row adds again), and a repeated or zero row keeps a maximum.
    """
    if not (f.N == g.N == h.N) or not (f.L == g.L == h.L):
        raise ValueError("common grid required")
    nh = lp_norm(h, e.p3)
    if nh == 0:
        raise ValueError("h must be nonzero")

    N, L = f.N, f.L
    plan = _chain_plan(seq.a.tobytes(), seq.b.tobytes(), seq.direction, N, L)
    M = 2 * N  # triple products have bandwidth < 1.5 N, resolved at 2N
    coeffs = _analyze(np.array([f.samples, g.samples, h.samples / nh]))
    flat = coeffs.reshape(-1)
    prod = np.zeros((plan.steps, M), dtype=complex)  # the triple products, summed at the end
    sq_fh = max_g = m_b = 0.0  # running reductions down the rows, pointwise
    for blk in plan.blocks:
        dst, src = blk.fill
        z = np.zeros((blk.rows, M), dtype=complex)
        z.reshape(-1)[dst] = flat[src]
        x = _synthesize_fft_order(z)
        mag = np.zeros((blk.rows + blk.empty, M))  # an empty row reads row -1
        np.abs(x, out=mag[: blk.rows])
        xf, xg, xh = x[blk.fgh]  # a step with an empty row keeps a zero product
        xf *= xg
        xf *= xh
        prod[blk.live] = xf
        if len(blk.steps):
            sq_fh = _add_squares(sq_fh, mag[blk.steps[:, ::2]])  # per step: f, h
            max_g = np.maximum(max_g, np.maximum.reduce(mag[blk.steps[:, 1]], axis=0))
        if len(blk.prefix):
            # every other sample at 2N is a partial sum on g's own grid
            m_b = np.maximum(m_b, np.maximum.reduce(mag[blk.prefix, ::2], axis=0))
    lhs_sum = abs(np.add.reduce(prod, axis=None) * (L / M))

    # the 2N output slots N/2 + 1 .. 3N/2 pair with h's N slots in reverse
    cf, cg, ch = coeffs
    b_hat = plan.act(cf, cg)
    lhs_direct = abs(L * np.add.reduce(b_hat[N // 2 + 1 : 3 * N // 2 + 1][::-1] * ch))

    scale = max(lhs_sum, lhs_direct, 1e-300)
    identity_gap = abs(lhs_sum - lhs_direct)

    n1 = _outer_lp(np.sqrt(sq_fh[0]), e.p1, L)
    n2 = _outer_lp(max_g, e.p2, L)
    n3 = _outer_lp(np.sqrt(sq_fh[1]), e.p3, L)
    rhs = n1 * n2 * n3
    satisfied = lhs_sum <= rhs * (1.0 + 1e-10) + 1e-12

    # fl(a - c) is monotone in a, so the max over g's rows can come first
    margin = max(0.0, float(np.maximum.reduce(max_g[::2] - 2.0 * m_b)))
    carleson_ok = margin <= 1e-10 * max(1.0, float(np.maximum.reduce(m_b)))

    return HolderChainReport(
        lhs=float(lhs_sum),
        rhs_product=float(rhs),
        satisfied=bool(satisfied and identity_gap <= 1e-8 * max(scale, 1.0)),
        identity_gap=float(identity_gap),
        carleson_margin=float(margin),
        carleson_ok=bool(carleson_ok),
        factors=(float(n1), float(n2), float(n3)),
    )


# --- norm probing ---------------------------------------------------------------


# Each family maps a list of generators to (len(rngs), N) arrays of samples
# and of their centered coefficients, one row per generator, drawing from
# each generator in turn; the draws and the arithmetic of a row do not depend
# on the other rows.  A family that draws a spectrum hands it out as drawn.
_Trial = tuple[np.ndarray, np.ndarray]
_SIGNS = np.array([-1.0, 1.0], dtype=complex)  # _SIGNS[integers(0, 2)] draws as choice([-1.0, 1.0])


@functools.lru_cache(maxsize=8)
def _packet_grid(N: int, L: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points nL/N, the slot numbers n and the roots e^(2 pi i n / N) of the (N, L)
    grid, read-only: the carrier e^(2 pi i k0 x / L) at x = nL/N is roots[k0 n mod N]."""
    x, n = _x_grid(N, L), np.arange(N)
    roots = np.exp(2j * np.pi * n / N)
    x.flags.writeable = n.flags.writeable = roots.flags.writeable = False
    return x, n, roots


def _trial_wave_packets(rngs: list[np.random.Generator], N: int, L: float) -> _Trial:
    x, n, roots = _packet_grid(N, L)
    # per generator, three packets of (center, 2 sigma^2, k0, amplitude); uniform(a, b) as a + (b - a) * random()
    draws = [[(L * rng.random(), 2 * (L / 64 + (L / 8 - L / 64) * rng.random()) ** 2,
               rng.integers(-N // 3, N // 3 + 1), rng.normal() + 1j * rng.normal())
              for _ in range(3)] for rng in rngs]
    out = np.zeros((len(rngs), N), dtype=complex)
    d, wave = np.empty(out.shape), np.empty_like(out)
    for packet in zip(*draws):
        x0, two_var, k0, amp = (np.array(column)[:, None] for column in zip(*packet))
        np.subtract(x, x0, out=d)
        d += L / 2  # in (-L/2, 3L/2): one period's shift lands it in [0, L), exactly
        below, above = d < 0, d >= L
        np.add(d, L, out=d, where=below)
        np.subtract(d, L, out=d, where=above)
        d -= L / 2
        np.square(d, out=d)
        np.negative(d, out=d)
        d /= two_var  # exp(-d^2 / 2 sigma^2) next
        np.exp(d, out=d)
        np.multiply(amp, d, out=wave)
        wave *= roots[(k0 * n) & (N - 1)]
        out += wave
    return out, _analyze(out)


def _trial_sparse_spectrum(rngs: list[np.random.Generator], N: int, L: float) -> _Trial:
    m = max(2, N // 16)
    c = np.zeros((len(rngs), N), dtype=complex)
    for row, rng in zip(c, rngs):
        slots = rng.choice(N, size=m, replace=False)
        row[slots] = rng.normal(size=m) + 1j * rng.normal(size=m)
    return _synthesize(c), c


def _trial_random_sign(rngs: list[np.random.Generator], N: int, L: float) -> _Trial:
    c = np.array([_SIGNS[rng.integers(0, 2, size=N)] for rng in rngs])
    return _synthesize(c), c


PROBE_FAMILIES = {
    "wave_packets": _trial_wave_packets,
    "sparse_spectrum": _trial_sparse_spectrum,
    "random_sign": _trial_random_sign,
}


def _trial_batch(family: str, seed_keys, N: int, L: float) -> tuple[_Trial, _Trial]:
    """(trials, N) samples and coefficients of f and of g, one row per integer
    seed key: every key's generator draws its f, then its g."""
    rngs = [np.random.default_rng(np.random.SeedSequence(key)) for key in seed_keys]
    gen = PROBE_FAMILIES[family]
    return gen(rngs, N, L), gen(rngs, N, L)


def _trial_keys(seed: int, ri: int, family: str, ts) -> tuple[tuple[int, int, int, int], ...]:
    """The integer seed keys of the probe's trials ``ts`` of ``family`` at its
    ``ri``-th resolution."""
    fi = list(PROBE_FAMILIES).index(family)
    return tuple((seed, ri, fi, t) for t in ts)


@functools.lru_cache(maxsize=16)
def _trial_stacks(family: str, seed_keys: tuple, N: int, L: float) -> tuple[np.ndarray, ...]:
    """|f|, the coefficients of f, |g| and the coefficients of g of
    ``_trial_batch``, read-only.  A trial's draws depend on its seed key, N
    and L alone, so every symbol and triple probed on one seed shares them.
    16 entries: a sweep over four resolutions and three families reuses a
    batch 12 entries later."""
    (fs, cf), (gs, cg) = _trial_batch(family, seed_keys, N, L)
    stacks = (np.abs(fs), cf, np.abs(gs), cg)
    for a in stacks:
        a.flags.writeable = False
    return stacks


def _batch_ratios(act, family: str, seed_keys: tuple, N: int, L: float,
                  triples: Sequence[ExponentTriple]) -> list[list[float]]:
    """Per triple, the ratio ||B(f,g)||_{p3'} / (||f||_{p1} ||g||_{p2}) of each
    trial pair of the batch, B the bilinear action ``act`` applied to the
    batch as one stack; NaN where the denominator is 0.  A batch of at most
    ``BATCH_SAMPLES`` samples is drawn through the cache, so it holds at most
    16 x 48 B x ``BATCH_SAMPLES``; a larger one (one trial at N above it) is
    drawn afresh."""
    draw = _trial_stacks if len(seed_keys) * N <= BATCH_SAMPLES else _trial_stacks.__wrapped__
    af, cf, ag, cg = draw(family, seed_keys, N, L)
    denoms = [[nf * ng for nf, ng in zip(_outer_lp(af, e.p1, L), _outer_lp(ag, e.p2, L))] for e in triples]
    out = _magnitudes(act(cf, cg))
    return [[num / denom if denom != 0 else math.nan
             for num, denom in zip(_outer_lp(out, e.p3_dual, L), row)] for e, row in zip(triples, denoms)]


@dataclass
class ProbeReport:
    triple: ExponentTriple
    resolutions: list[int]
    trials: int
    seed: int
    L: float
    rows: list[dict] = field(default_factory=list)
    growth_factor: float = math.nan

    def max_ratio_at(self, N: int) -> float:
        return max(row["max_ratio"] for row in self.rows if row["N"] == N)

    def witness(self) -> tuple[str, int, SampledFunction, SampledFunction]:
        """The family, the resolution N and the trial pair (f, g) of the
        largest ratio at the last resolution, drawn again from its seed key."""
        ri, N = len(self.resolutions) - 1, self.resolutions[-1]
        best = max((r for r in self.rows if r["N"] == N), key=lambda r: r["max_ratio"])
        keys = _trial_keys(self.seed, ri, best["family"], [best["argmax_trial"]])
        (fs, _), (gs, _) = _trial_batch(best["family"], keys, N, self.L)
        return best["family"], N, SampledFunction(fs[0], self.L), SampledFunction(gs[0], self.L)

    def csv_rows(self):
        p1, p2, p3 = self.triple.as_tuple()
        for row in self.rows:
            yield (p1, p2, p3, row["N"], row["family"], row["max_ratio"])

    def as_dict(self):
        return {
            "p1": self.triple.p1,
            "p2": self.triple.p2,
            "p3": self.triple.p3,
            "resolutions": self.resolutions,
            "trials": self.trials,
            "seed": self.seed,
            "L": self.L,
            "rows": self.rows,
            "growth_factor": self.growth_factor,
        }


def norm_probe(
    sym: SymbolSpec,
    e: ExponentTriple,
    trials: int,
    resolutions: Sequence[int],
    seed: int,
    L: float = 32.0,
) -> ProbeReport:
    """``probe_reports`` for the one triple e."""
    return probe_reports(sym, [e], trials, resolutions, seed, L)[0]


def probe_reports(sym: SymbolSpec, triples: Sequence[ExponentTriple], trials: int,
                  resolutions: Sequence[int], seed: int, L: float = 32.0) -> list[ProbeReport]:
    """Empirical operator-ratio probes over the ``PROBE_FAMILIES`` test families.

    For each resolution, family and triple the maximal ratio
    ||B(f,g)||_{p3'} / (||f||_{p1} ||g||_{p2}) over ``trials`` draws is
    recorded; the growth factor compares the largest against the smallest
    resolution.  Each trial pair is drawn and applied once for all triples.
    Trials run in batches of max(1, ``BATCH_SAMPLES`` // N), each
    row drawn and measured as it would be alone; a batch is drawn once per
    process (``_trial_stacks``).  Fully deterministic for a fixed seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (math.isfinite(L) and L > 0):
        raise ValueError(f"period L = {L!r} must be finite and > 0")
    if not len(resolutions):
        raise ValueError("resolutions must name at least one N")
    for N in resolutions:
        if N != int(N) or not _is_pow2(int(N)):
            raise ValueError(f"resolution {N} is not a power of two >= 2")
    resolutions = sorted(int(N) for N in resolutions)
    reports = [ProbeReport(e, list(resolutions), trials, seed, float(L)) for e in triples]
    for ri, N in enumerate(resolutions):
        act = _grid_action(sym, N, L)
        per_batch = max(1, BATCH_SAMPLES // N)
        for family in PROBE_FAMILIES:
            best = [(0.0, -1)] * len(reports)
            for t0 in range(0, trials, per_batch):
                ts = range(t0, min(trials, t0 + per_batch))
                ratios = _batch_ratios(act, family, _trial_keys(seed, ri, family, ts), N, L, triples)
                for i, row in enumerate(ratios):
                    for t, ratio in zip(ts, row):
                        if ratio > best[i][0]:  # the first maximal trial wins; NaN never does
                            best[i] = (ratio, t)
            for report, (ratio, t) in zip(reports, best):
                report.rows.append({"family": family, "N": N, "max_ratio": float(ratio), "argmax_trial": t})
    lo, hi = resolutions[0], resolutions[-1]
    for report in reports:
        base, top = report.max_ratio_at(lo), report.max_ratio_at(hi)
        # degenerate at the smallest resolution (symbol support outside the
        # band, or annihilating trials): flag rather than divide
        report.growth_factor = top / base if base > 0 else (math.inf if top > 0 else math.nan)
    return reports
