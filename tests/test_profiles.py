"""Column profiles against the naive oracles.

Every symbol kind that carries column bounds is checked bitwise against a
step-by-step evaluator from ``oracles.py`` (pointwise, through its grid
profile and through ``sample_symbol``), and its profile-based application is
checked against the direct double sum.  The dyadic sequences put the step
edges a_j, b_j on the frequency lattice 1/L, so grid frequencies land exactly
on the boundaries where the closure conventions matter.  ``sample_symbol``
reads the profile, so it is also checked against pointwise evaluation on
grids whose eta cell centres are column bounds.
"""

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from bmlab import curves
from bmlab.config import SYMBOL_KINDS, RunConfig
from bmlab.engine import SampledFunction, _freq_grid, apply_bilinear
from bmlab.symbols import (
    FrequencyGrid,
    boundary_piece_symbol,
    constant_symbol,
    epigraph_symbol,
    exponential_paraproduct_sum,
    exponential_paraproduct_symbols,
    hyp2_rewrite_pair,
    increasing_staircase_symbol,
    polygonal_epigraph_symbol,
    rectangle_symbol,
    sample_symbol,
    staircase_symbol,
)

import oracles
from oracles import bilinear_double_sum

# a_j = -j/8, b_j = 3/8 + 2^-(j+2), j = 1..5: segment slopes 2^-j, all
# values on the lattice 1/128
_J = np.arange(1, 6)
DYADIC = curves.SequencePair(
    a=-_J / 8.0, b=3.0 / 8.0 + 2.0 ** -(_J + 2.0), j0=1, a_inf=-np.inf, b_inf=3.0 / 8.0
)
DYADIC_FINITE_TAIL = curves.SequencePair(
    a=DYADIC.a, b=DYADIC.b, j0=1, a_inf=-1.0, b_inf=3.0 / 8.0
)
VERTS = np.column_stack([DYADIC.a, DYADIC.b])
POLYGON = oracles.piecewise_linear_curve(VERTS)
RESTRICTION = (float(DYADIC.a[-1]), float(DYADIC.a[0]))
HYPER = curves.build_dyadic_slope_sequence(curves.hyperboloid(), 8)
UP_U = curves.SequencePair(a=np.arange(6) / 8.0, b=np.arange(1.0, 7.0), direction="increasing")
UP_V = curves.SequencePair(a=(2 + np.arange(6)) / 16.0, b=np.arange(1.0, 7.0), direction="increasing")


def _cases():
    lattice = (256, 128.0)  # N, L: band [-1, 1), lattice 1/128
    yield "staircase", staircase_symbol(DYADIC), oracles.staircase_evaluator(DYADIC), lattice
    yield ("staircase_hyperboloid", staircase_symbol(HYPER), oracles.staircase_evaluator(HYPER),
           (256, 48.0))
    yield ("increasing_staircase", increasing_staircase_symbol(UP_U, UP_V),
           oracles.increasing_staircase_evaluator(UP_U, UP_V), lattice)
    yield ("rectangle", rectangle_symbol((-3 / 8, 1 / 4), (-1 / 8, 1 / 2)),
           oracles.rectangle_evaluator((-3 / 8, 1 / 4), (-1 / 8, 1 / 2)), (64, 8.0))
    yield "constant", constant_symbol(), oracles.constant_evaluator(), (64, 8.0)
    for j in (1, 3, 4):
        yield (f"boundary_piece{j}", boundary_piece_symbol(POLYGON, DYADIC, j),
               oracles.boundary_piece_evaluator(POLYGON, DYADIC, j), lattice)
    yield ("epigraph", epigraph_symbol(POLYGON, RESTRICTION),
           oracles.epigraph_evaluator(POLYGON, RESTRICTION), lattice)
    power = curves.power_law(1.0)
    yield ("epigraph_unbounded_left", epigraph_symbol(power, (-np.inf, -1 / 8)),
           oracles.epigraph_evaluator(power, (-np.inf, -1 / 8)), (256, 32.0))
    yield ("polygonal", polygonal_epigraph_symbol(VERTS),
           oracles.polygonal_epigraph_evaluator(VERTS), lattice)
    for seq, tag in ((DYADIC, "truncated"), (DYADIC_FINITE_TAIL, "finite_tail")):
        rect, comp = hyp2_rewrite_pair(seq)
        ev_rect, ev_comp = oracles.hyp2_rewrite_evaluators(seq)
        yield f"rewrite_rect_{tag}", rect, ev_rect, lattice
        yield f"rewrite_complement_{tag}", comp, ev_comp, lattice
    for name, sym, ev in zip(("exp_m1", "exp_m2", "exp_m3"), exponential_paraproduct_symbols(2),
                             oracles.exponential_paraproduct_evaluators(2)):
        yield name, sym, ev, (128, 8.0)  # band [-8, 8), lattice 1/8
    ev1, ev2, ev3 = oracles.exponential_paraproduct_evaluators(2)
    yield ("exp_sum", exponential_paraproduct_sum(2),
           lambda xi, eta: ev1(xi, eta) + ev2(xi, eta) + ev3(xi, eta), (128, 8.0))


CASES = list(_cases())
IDS = [case[0] for case in CASES]


@pytest.mark.parametrize("name,sym,ev,grid", CASES, ids=IDS)
def test_profile_matches_oracle_bitwise(name, sym, ev, grid):
    N, L = grid
    freqs = np.arange(-N // 2, N // 2) / L
    want = ev(freqs[:, None], freqs[None, :])
    assert want.any()
    assert np.array_equal(sym(freqs[:, None], freqs[None, :]), want)
    lo, hi = sym.columns(freqs, freqs)
    k = np.arange(N)
    assert np.array_equal(((k >= lo[:, None]) & (k < hi[:, None])).astype(float), want)
    window = FrequencyGrid(window=(-N / (2 * L), N / (2 * L), -N / (2 * L), N / (2 * L)),
                           nx=N + 1, ny=N - 1)
    cells = ev(window.xi_values()[:, None], window.eta_values()[None, :])
    assert np.array_equal(sample_symbol(sym, window), cells)


@pytest.mark.parametrize("name,sym,ev,grid", CASES, ids=IDS)
def test_profile_apply_matches_double_sum(name, sym, ev, grid):
    N, L = grid
    rng = np.random.default_rng(sum(map(ord, name)))
    f, g = (SampledFunction(rng.normal(size=N) + 1j * rng.normal(size=N), L) for _ in range(2))
    fast = apply_bilinear(sym, f, g).samples
    slow = bilinear_double_sum(ev, f, g)
    assert np.max(np.abs(fast - slow)) <= 1e-10 * max(1.0, float(np.max(np.abs(slow))))


@pytest.mark.parametrize("kind", ["staircase", "polygonal"])
def test_profile_apply_memory_at_large_N(kind):
    """At N = 8192 a dense N x N complex table alone would take 1 GiB."""
    sym = (staircase_symbol(HYPER) if kind == "staircase"
           else polygonal_epigraph_symbol(np.column_stack([HYPER.a, HYPER.b])))
    N, L = 8192, 48.0
    rng = np.random.default_rng(5)
    f, g = (SampledFunction(rng.normal(size=N) + 1j * rng.normal(size=N), L) for _ in range(2))
    tracemalloc.start()
    try:
        out = apply_bilinear(sym, f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.N == 2 * N and np.any(out.samples != 0)
    assert peak < 16 * 2**20


# the rewrite pair at b_inf = 0.0 (power law) and 1.0 (hyperboloid), beside
# the dyadic b_inf = 3/8 of CASES
CURVED_REWRITES = [(curves.build_dyadic_slope_sequence(curves.power_law(1.0), 6), "power_law"),
                   (HYPER, "hyperboloid")]
REWRITE_SEQUENCES = [(DYADIC, "truncated"), (DYADIC_FINITE_TAIL, "finite_tail"), *CURVED_REWRITES]


def _exactness_cases():
    for name, sym, _, (N, L) in CASES:
        yield name, sym, (-N / (2 * L), N / (2 * L))
    for seq, tag in CURVED_REWRITES:
        window = (float(seq.a[-1]) - 1 / 8, float(seq.a[0]) + 1 / 8)
        for sym in hyp2_rewrite_pair(seq):
            yield f"{sym.label}_{tag}", sym, window
    for family, c in (("hyperboloid", None), ("power_law", 1.0)):
        cfg = RunConfig(family=family, c=c, J=6)
        a = cfg.sequence().a
        pad = 0.25 * float(np.ptp(a))
        for kind, build in SYMBOL_KINDS.items():
            xi_window = ((-cfg.J - 1.5, cfg.J + 0.5) if kind == "exponential_paraproduct"
                         else (float(a.min()) - pad, float(a.max()) + pad))
            yield f"{kind}-{family}", build(cfg), xi_window


EXACT_CASES = list(_exactness_cases())


def _finite_bounds(sym, xi_window, nx=64):
    """The finite column bounds of ``sym`` at the xi cell centres of
    ``xi_window``, ascending."""
    xi = FrequencyGrid(window=(*xi_window, 0.0, 1.0), nx=nx, ny=1).xi_values()
    with np.errstate(all="ignore"):
        bounds = np.unique(np.concatenate(sym.eta_bounds(xi)))
    return bounds[np.isfinite(bounds)]


def _grid_on(v, xi_window, nx=64):
    """A 32-row grid with an eta cell centre exactly at ``v``: the width is a
    power of two near |v|/32, so the window ends and the centres are exact
    unless the window crosses into a coarser binade."""
    width = 2.0 ** (math.frexp(v)[1] - 5) if v else 1.0
    for k in (16, 31, 0):  # near the middle, or clear of the binade above or below v
        lo = v - width * (2 * k + 1) / 64
        grid = FrequencyGrid(window=(*xi_window, lo, lo + width), nx=nx, ny=32)
        if v in grid.eta_values():
            return grid
    raise AssertionError(f"no grid centres {v!r}")


@pytest.mark.parametrize("name,sym,xi_window", EXACT_CASES, ids=[case[0] for case in EXACT_CASES])
def test_sample_symbol_is_the_pointwise_bitmap(name, sym, xi_window):
    # sample_symbol reads sym.columns; sym(xi, eta) compares each pixel with
    # the column bounds, so the two must agree on every pixel, and most of
    # all on the grids with a cell centre on a bound
    bounds = _finite_bounds(sym, xi_window)
    eta_window = (bounds[0] - 1 / 8, bounds[-1] + 1 / 8) if len(bounds) else (-1.0, 1.0)
    wide = FrequencyGrid(window=(*xi_window, *eta_window), nx=64, ny=257)
    for grid in [wide, *(_grid_on(v, xi_window) for v in bounds.tolist())]:
        want = sym(grid.xi_values()[:, None], grid.eta_values()[None, :])
        assert np.array_equal(sample_symbol(sym, grid), want)
        assert grid is not wide or want.any()


@dataclass(frozen=True)
class AxesGrid:
    """A grid given by its two axes, for eta values that no uniform window
    has as cell centres (a float and its neighbours)."""

    xi: np.ndarray
    eta: np.ndarray

    def xi_values(self):
        return self.xi

    def eta_values(self):
        return self.eta


@pytest.mark.parametrize("seq,tag", REWRITE_SEQUENCES, ids=[tag for _, tag in REWRITE_SEQUENCES])
def test_rewrite_pair_is_open_at_b_inf(seq, tag):
    # the pair stores its open lower bound b_inf as the next float above it;
    # on eta axes holding b_inf, its two neighbours and +-0.0 the sampled
    # bitmap, pointwise evaluation and the literal evaluator (eta > b_inf) agree
    b_inf = float(seq.b_inf)
    xi = np.sort(np.concatenate([seq.a, np.linspace(float(seq.a[-1]) - 1 / 8, float(seq.a[0]) + 1 / 8, 48)]))
    near = [np.nextafter(b_inf, -np.inf), b_inf, np.nextafter(b_inf, np.inf), -0.0, 0.0]
    eta = np.sort(np.concatenate([near, seq.b, np.linspace(b_inf - 1 / 4, float(seq.b[0]) + 1 / 4, 40)]))
    grid = AxesGrid(xi, eta)
    for sym, ev in zip(hyp2_rewrite_pair(seq), oracles.hyp2_rewrite_evaluators(seq)):
        want = ev(xi[:, None], eta[None, :])
        assert np.array_equal(sym(xi[:, None], eta[None, :]), want)
        assert np.array_equal(sample_symbol(sym, grid), want)
        column = want[np.argmax(want.any(axis=1))]
        assert column[eta == b_inf].max() == 0.0 and column[eta == near[2]].max() == 1.0


STRIP_CURVES = [("power_law", curves.power_law(1.0)), ("rational", curves.rational(1.0)),
                ("arctan", curves.arctan_curve()), ("hyperboloid", curves.hyperboloid())]


@pytest.mark.parametrize("name,curve", STRIP_CURVES, ids=[name for name, _ in STRIP_CURVES])
def test_rewrite_is_the_staircase_on_the_whole_strip(name, curve):
    # rect - comp = staircase at every point of [a_last, a_first), a_last
    # included: on frequency grids where a_last = -16 of power_law(1) is a
    # slot, with every a_j, b_j and their float neighbours added to both axes
    seq = curves.build_dyadic_slope_sequence(curve, 8)
    rect, comp = hyp2_rewrite_pair(seq)
    stair = staircase_symbol(seq)
    ends = np.concatenate([seq.a, seq.b])
    near = np.concatenate([np.nextafter(ends, -np.inf), ends, np.nextafter(ends, np.inf)])
    for N, L in ((1024, 32.0), (2048, 64.0), (4096, 16.0)):
        eta = np.union1d(_freq_grid(N, L), near)
        xi = eta[(eta >= seq.a[-1]) & (eta < seq.a[0])]
        assert xi[0] == seq.a[-1]
        grid = AxesGrid(xi, eta)
        want = sample_symbol(stair, grid)
        assert want.any()
        assert np.array_equal(sample_symbol(rect, grid) - sample_symbol(comp, grid), want)
        xx, ee = xi[:, None], eta[None, :]
        assert np.array_equal(rect(xx, ee) - comp(xx, ee), stair(xx, ee))
