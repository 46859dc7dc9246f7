import math

import numpy as np
import pytest

from bmlab import curves
from bmlab.symbols import (
    FrequencyGrid,
    bitmap_to_pgm,
    boundary_piece_symbol,
    constant_symbol,
    epigraph_symbol,
    exponential_paraproduct_symbols,
    hyp2_rewrite_pair,
    increasing_staircase_symbol,
    polygonal_epigraph_symbol,
    sample_symbol,
    staircase_symbol,
)

from oracles import pgm_text_by_pixels, piecewise_linear_curve


def test_staircase_boundary_conventions(power1_seq):
    st = staircase_symbol(power1_seq)
    # top row excluded by half-openness
    assert st(-1.5, power1_seq.b_at(0)) == 0.0
    # step j=1 membership with c = 1 closed forms
    assert st(-(2.0**0.75), 2.0**-0.3) == 1.0
    assert st(-(2.0**0.75), 2.0**-0.9) == 0.0  # below the step, above the curve
    # left edge of a step included, right edge excluded
    assert st(power1_seq.a_at(2), 0.9) == 1.0
    assert st(power1_seq.a_at(1), 0.9) == 0.0


def test_staircase_terms_disjoint(power1_seq):
    seq = power1_seq.truncate(6)
    st = staircase_symbol(seq)
    grid = FrequencyGrid(window=(float(seq.a[-1]), float(seq.a[0]), 0.0, 1.2), nx=256, ny=256)
    total = np.zeros((256, 256))
    peak = np.zeros((256, 256))
    xi = grid.xi_values()[:, None]
    eta = grid.eta_values()[None, :]
    for j in range(1, seq.J):
        term = (
            (xi >= seq.a_at(j + 1)) & (xi < seq.a_at(j))
            & (eta >= seq.b_at(j)) & (eta < seq.b_at(0))
        ).astype(float)
        total += term
        peak = np.maximum(peak, term)
    assert np.array_equal(total, peak)  # disjoint supports: sum equals max
    assert np.array_equal(peak, sample_symbol(st, grid))


def test_staircase_rejects_increasing():
    u = curves.SequencePair(a=np.arange(5.0), b=2.0 ** np.arange(5), direction="increasing")
    with pytest.raises(ValueError, match="increasing_staircase_symbol"):
        staircase_symbol(u)


def test_increasing_staircase_membership():
    u = curves.SequencePair(a=np.arange(8.0), b=np.arange(1.0, 9.0), direction="increasing")
    v = curves.SequencePair(a=2.0 ** np.arange(8), b=3.0 ** np.arange(8), direction="increasing")
    sym = increasing_staircase_symbol(u, v)
    assert sym(0.5, 2.5) == 1.0  # j = 1 term: (0,1] x [2,4)
    assert sym(0.0, 2.5) == 0.0  # xi = u_0 excluded from every term
    assert sym(-1.0, 8.0) == 0.0
    assert sym(1.0, 2.0) == 1.0  # closed corners: xi = u_1, eta = v_1


def test_boundary_piece(power1_seq):
    curve = curves.power_law(1.0)
    piece = boundary_piece_symbol(curve, power1_seq, 0)
    assert piece(-1.2, 0.9) == 1.0  # gamma(-1.2) = 5/6 <= 0.9 < 1
    assert piece(-1.2, 0.5) == 0.0  # below the curve
    assert piece(-1.2, 1.0) == 0.0  # at the top, excluded
    with pytest.raises(ValueError):
        boundary_piece_symbol(curve, power1_seq, power1_seq.last_index())


def test_epigraph_closed_at_graph():
    hy = curves.hyperboloid()
    epi = epigraph_symbol(hy, (-0.5, 0.5))
    assert epi(0.0, 1.0) == 1.0
    assert epi(0.0, 0.999) == 0.0
    x = 0.3
    assert epi(x, float(hy.gamma(x))) == 1.0


@pytest.mark.parametrize("curve_fn", [curves.power_law(1.0), curves.hyperboloid()])
def test_decomposition_identity(curve_fn):
    seq = curves.build_dyadic_slope_sequence(curve_fn, 8)
    grid = FrequencyGrid(
        window=(float(seq.a[-1]), float(seq.a[0]), float(seq.b[-1]), float(seq.b[0])),
        nx=512,
        ny=512,
    )
    epi = sample_symbol(epigraph_symbol(curve_fn, (float(seq.a[-1]), float(seq.a[0]))), grid)
    epi = epi * (grid.eta_values()[None, :] < seq.b_at(seq.j0))
    total = sample_symbol(staircase_symbol(seq), grid)
    for j in seq.segments():
        total = total + sample_symbol(boundary_piece_symbol(curve_fn, seq, j), grid)
    assert np.array_equal(epi, total)


def test_hyp2_rewrite_identity(hyperboloid_seq):
    seq = curves.build_dyadic_slope_sequence(curves.hyperboloid(), 8)
    rect, comp = hyp2_rewrite_pair(seq)
    st = staircase_symbol(seq)
    grid = FrequencyGrid(window=(float(seq.a[-1]), float(seq.a[0]), 0.9, 1.3), nx=512, ny=512)
    diff = sample_symbol(rect, grid) - sample_symbol(comp, grid) - sample_symbol(st, grid)
    assert np.array_equal(diff, np.zeros_like(diff))


def test_hyp2_rewrite_pointwise_cases(hyperboloid_seq):
    seq = hyperboloid_seq
    rect, comp = hyp2_rewrite_pair(seq)
    # below the limit everything vanishes
    assert rect(0.3, 0.99) == 0.0 and comp(0.3, 0.99) == 0.0
    # inside a complement step: rectangle and complement both 1, staircase 0
    xi = 0.5 * (seq.a_at(3) + seq.a_at(2))
    eta = 0.5 * (1.0 + seq.b_at(2))
    assert rect(xi, eta) == 1.0 and comp(xi, eta) == 1.0
    assert staircase_symbol(seq)(xi, eta) == 0.0


def test_hyp2_rewrite_needs_limit():
    seq = curves.SequencePair(a=np.array([3.0, 2.0, 1.0]), b=np.array([2.0, 1.5, 1.0]))
    with pytest.raises(ValueError, match="limit required"):
        hyp2_rewrite_pair(seq)


def test_exponential_paraproduct_memberships():
    m1, m2, m3 = exponential_paraproduct_symbols(6)
    assert m1(-1.5, 0.6) == 1.0
    assert m3(-5.0, 7.0) == 1.0 and m3(0.1, 7.0) == 0.0
    assert m3(0.0, 1.0) == 1.0  # closed quadrant corner
    assert m2(0.5, 2.5) == 1.0  # j = 1 column (0,1) x [2,4)
    assert m2(1.0, 2.5) == 0.0  # xi-interval open at j


def test_exponential_paraproduct_disjoint_and_inscribed():
    m1, m2, m3 = exponential_paraproduct_symbols(5)
    grid = FrequencyGrid(window=(-8.0, 8.0, -8.0, 8.0), nx=512, ny=512)
    s = sample_symbol(m1, grid) + sample_symbol(m2, grid) + sample_symbol(m3, grid)
    assert float(s.max()) <= 1.0
    # inscribed in the epigraph of 2^xi
    XI, ETA = np.broadcast_arrays(grid.xi_values()[:, None], grid.eta_values()[None, :])
    inside = s > 0
    assert np.all(ETA[inside] >= np.exp2(XI[inside]))


def test_m2_matches_increasing_staircase():
    J = 6
    _, m2, _ = exponential_paraproduct_symbols(J)
    u = curves.SequencePair(a=np.arange(J + 1, dtype=float), b=np.arange(1.0, J + 2.0),
                            direction="increasing")
    v = curves.SequencePair(a=2.0 ** np.arange(J + 1), b=3.0 ** np.arange(J + 1),
                            direction="increasing")
    sym = increasing_staircase_symbol(u, v)
    grid = FrequencyGrid(window=(-1.0, float(J), 0.5, 2.0**J), nx=511, ny=509)
    # cell centers avoid the integer xi lines where the two closures differ
    assert np.array_equal(sample_symbol(m2, grid), sample_symbol(sym, grid))


def test_polygonal_slope_validation():
    verts = [(0.0, 0.0), (-1.0, -0.5), (-2.0, -2.0)]  # second segment slope 1.5
    with pytest.raises(ValueError, match="segment 1"):
        polygonal_epigraph_symbol(verts)


def test_polygonal_matches_piecewise_linear_curve(hyperboloid_seq):
    seq = curves.build_dyadic_slope_sequence(curves.hyperboloid(), 8)
    verts = np.column_stack([seq.a, seq.b])
    poly = polygonal_epigraph_symbol(verts)
    curve = piecewise_linear_curve(verts)
    epi = epigraph_symbol(curve, (float(seq.a[-1]), float(seq.a[0])))
    grid = FrequencyGrid(window=(float(seq.a[-1]), float(seq.a[0]), 0.9, 1.4), nx=512, ny=512)
    assert np.array_equal(sample_symbol(poly, grid), sample_symbol(epi, grid))


def test_polygon_between_curve_and_chord(hyperboloid_seq):
    seq = hyperboloid_seq
    hy = curves.hyperboloid()
    verts = np.column_stack([seq.a, seq.b])
    poly = polygonal_epigraph_symbol(verts)
    epi = epigraph_symbol(hy, (float(seq.a[-1]), float(seq.a[0])))
    xm = 0.5 * (seq.a_at(1) + seq.a_at(2))
    chord = float(np.interp(xm, seq.a[::-1], seq.b[::-1]))
    curve_val = float(hy.gamma(xm))
    probe = 0.5 * (chord + curve_val)  # above the curve, below the chord
    assert curve_val < probe < chord
    assert poly(xm, probe) == 0.0
    assert epi(xm, probe) == 1.0


def test_sample_symbol_pixel_count(power1_seq):
    seq = power1_seq.truncate(6)
    st = staircase_symbol(seq)
    grid = FrequencyGrid(window=(float(seq.a[-1]), float(seq.a[0]), 0.0, 1.0), nx=400, ny=300)
    bitmap = sample_symbol(st, grid)
    xi = grid.xi_values()
    eta = grid.eta_values()
    expect = 0
    for j in range(1, seq.J):
        nx_j = int(np.sum((xi >= seq.a_at(j + 1)) & (xi < seq.a_at(j))))
        ny_j = int(np.sum((eta >= seq.b_at(j)) & (eta < seq.b_at(0))))
        expect += nx_j * ny_j
    assert int(bitmap.sum()) == expect


def test_sample_symbol_all_ones_and_half_plane():
    grid = FrequencyGrid(window=(-1.0, 1.0, -1.0, 1.0), nx=64, ny=64)
    ones = sample_symbol(constant_symbol(), grid)
    assert np.array_equal(ones, np.ones((64, 64)))
    from bmlab.symbols import SymbolSpec

    # open at eta = xi: the lower bound is the next float above xi
    half = SymbolSpec(eta_bounds=lambda xi: (np.nextafter(xi, np.inf), np.full_like(xi, np.inf)))
    bitmap = sample_symbol(half, grid)
    off_diag = 64 * 64 - 64  # symmetric window: centers pair off across the diagonal
    assert int(bitmap.sum()) == off_diag // 2


def test_pgm_format():
    bitmap = np.array([[0.0, 1.0], [1.0, 0.5]])
    text = bitmap_to_pgm(bitmap)
    lines = text.strip().split("\n")
    assert lines[0] == "P2" and lines[1] == "2 2" and lines[2] == "255"
    assert lines[3].split() == ["255", "128"]


def _bitmaps():
    rng = np.random.default_rng(3)
    return {
        "1x1": np.ones((1, 1)),
        "3x5": (rng.random((3, 5)) > 0.5).astype(float),
        "non-contiguous": rng.random((9, 12))[::2, 1::3],
        "fractional": np.array([[-0.3, 0.0, 0.5 / 255, 1.5 / 255, 2.5 / 255, 0.5, 1.0, 1.7, 1e300]]),
        "zero-width": np.zeros((0, 3)),
        "zero-height": np.zeros((4, 0)),
    }


@pytest.mark.parametrize("name", list(_bitmaps()))
def test_pgm_matches_per_pixel_writer(name):
    bitmap = _bitmaps()[name]
    assert bitmap_to_pgm(bitmap) == pgm_text_by_pixels(bitmap)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pgm_rejects_non_finite_pixels(bad):
    # a NaN pixel used to be written as -9223372036854775808
    bitmap = np.zeros((3, 4))
    bitmap[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        bitmap_to_pgm(bitmap)
