import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from bmlab import cli, curves, reporting, symbols, whitney
from bmlab.config import RunConfig
from bmlab.bumps import fejer_sq_spectrum
from bmlab.engine import SampledFunction, _freq_grid, _pad, _period_pairing, _synthesize
from bmlab.intervals import max_overlap
from bmlab.symbols import polygon_height, polygonal_epigraph_symbol
from bmlab.whitney import (
    RectCover,
    build_cover,
    chi_values,
    cube_condition,
    edge_interval_collections,
    enumerate_multitiles,
    model_sum_eval,
    partition_check,
    r2_samples,
    segment,
)

from oracles import (
    WhitneySquare, bilinear_dense_table, bilinear_double_sum, chi_coeffs_dense, containment_failures_by_sampling,
    cover_squares_by_unique_rows, csv_text_by_rows, enumerate_whitney_squares, max_overlap_sweep, model_value_by_tile,
    multitiles_by_object, omega3_partition_gap, partition_sum_by_tiles, tile_bump_evaluator,
    whitney_conditions_by_sampling,
)


def dyadic_seq(n=7):
    js = np.arange(1, n + 1)
    return curves.SequencePair(
        a=-js.astype(float), b=2.0 ** (1 - js), direction="decreasing",
        j0=1, a_inf=-math.inf, b_inf=0.0,
    )


def segment_cover(seq, squares, j=1):
    """The RectCover on segment j of ``seq`` with one row per (cx, cy, k) square."""
    cx, cy, k = (np.array(v) for v in zip(*squares))
    anchor, _, s_j = segment(seq, j)
    return RectCover(j=j, anchor=anchor, s_j=s_j, k=k, cx=cx, cy=cy)


def demo_rect():
    seq = dyadic_seq()
    return seq, segment_cover(seq, [(0.75, 0.25, -3)])


def test_lattice_gives_integer_centers_and_rejects_off_lattice_ones():
    seq = dyadic_seq()
    cover = segment_cover(seq, [(0.75, 0.25, -3), (-1.5, 2.0**-10, 0), (0.0, -2.0**-13, -3)])
    mx, my = cover.lattice()  # the units are 2^-13, 2^-10 and 2^-13
    assert mx.dtype == my.dtype == np.int64
    assert (mx.tolist(), my.tolist()) == ([6144, -1536, 0], [2048, 1, -1])
    for cx, cy, k in [(0.1, 0.25, -3), (0.75, 2.0**-14, -3), (math.nan, 0.25, -3), (0.75, math.inf, -3),
                      (2.0**60, 0.25, -3)]:
        with pytest.raises(ValueError, match="lattice"):
            segment_cover(seq, [(cx, cy, k)]).lattice()


@pytest.mark.parametrize(
    "d,expect", [(3.0, False), (4.0, False), (5.0, True), (16.0, True), (17.0, False)]
)
def test_square_conditions_annulus(d, expect):
    sq = WhitneySquare(cx=0.0, cy=d, k=0)
    assert sq.satisfies(4.0) is expect


def test_square_on_diagonal_rejected():
    assert not WhitneySquare(cx=1.0, cy=1.0, k=-2).satisfies(1.0)


def test_conditions_match_sampling_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = int(rng.integers(-4, 3))
        s = 2.0**k
        sq = WhitneySquare(
            cx=float(rng.uniform(-4, 4)), cy=float(rng.uniform(-4, 4)), k=k
        )
        C0 = float(rng.choice([1.0, 2.0, 4.0]))
        misses, meets = whitney_conditions_by_sampling(sq, C0)
        assert sq.satisfies(C0) == (misses and meets)


def test_enumeration_literal_lattice_small():
    squares = enumerate_whitney_squares(
        C0=1.0, window=(0.0, 1.0, -1.0, 0.5), scale_range=(-4, -3), lattice_exp=4
    )
    assert squares
    for sq in squares:
        assert sq.satisfies(1.0)
        step = 2.0 ** (sq.k - 4)
        assert abs(sq.cx / step - round(sq.cx / step)) < 1e-12
    # doubling C0 doubles the admissible gap band at every scale
    doubled = enumerate_whitney_squares(
        C0=2.0, window=(0.0, 1.0, -1.0, 0.5), scale_range=(-4, -3), lattice_exp=4
    )
    for sq in doubled:
        gap = abs(sq.cx - sq.cy)
        assert 2.0 * sq.side < gap <= 8.0 * sq.side


def test_enumeration_guards():
    with pytest.raises(ValueError, match="empty scale range"):
        enumerate_whitney_squares(1.0, (0, 1, 0, 1), (2, 1))
    with pytest.raises(ValueError, match="too large"):
        enumerate_whitney_squares(16.0, (0.0, 4.0, 0.0, 4.0), (-6, 0), lattice_exp=10)


def test_polygon_geometry(hyperboloid_seq):
    seq = hyperboloid_seq
    j = seq.j0
    (a_j, b_j), w, s_j = segment(seq, j)
    assert (a_j, b_j) == (seq.a[0], seq.b[0])
    assert w == a_j - seq.a[1]
    assert s_j == (seq.b[0] - seq.b[1]) / (seq.a[0] - seq.a[1]) and 0.0 < s_j < 1.0
    # the height passes through the vertices and extends the end segments linearly
    verts = np.column_stack([seq.a, seq.b])
    assert np.array_equal(polygon_height(verts, seq.a), seq.b)
    for end, inner, dx in ((-1, -2, -0.01), (0, 1, 0.01)):
        (x0, y0), (x1, y1) = verts[end], verts[inner]
        height = polygon_height(verts, x0 + dx)
        assert abs(height - (y0 + (y1 - y0) / (x1 - x0) * dx)) <= 1e-15
        assert (height < y0) if dx < 0 else (height > y0)


def test_build_cover_rejects_segments_outside_the_pair(hyperboloid_seq):
    seq = hyperboloid_seq
    assert seq.j0 == 1
    for j in (seq.j0 - 1, seq.last_index()):
        with pytest.raises(ValueError, match=f"segment {j} outside \\[1, {seq.last_index()}\\)"):
            build_cover(seq, j, alpha=0.9, C0=16.0, samples=100)


@pytest.mark.parametrize(
    "verts,message",
    [([(0.0, 0.0), (-1.0, -0.25), (-2.0, -1.0)], "segment 1 .* not convex"),
     ([(0.0, 0.0), (-1.0, -0.5), (-2.0, -1.0)], "segment 1 .* not convex"),
     ([(0.0, 0.0), (-1.0, -0.5), (-2.0, -1.5)], "segment 1 has slope 1.0 outside \\(0, 1\\)")],
    ids=["concave", "collinear", "steep"],
)
def test_polygon_rejects_non_convex_vertices(verts, message):
    # the polygonal symbol and the Whitney cover accept the same polygons: the
    # corner containment test of build_cover is exact only on a convex one
    seq = curves.SequencePair(a=[v[0] for v in verts], b=[v[1] for v in verts])
    with pytest.raises(ValueError, match=message) as symbol_err:
        polygonal_epigraph_symbol(verts)
    with pytest.raises(ValueError, match=message) as cover_err:
        build_cover(seq, 0, alpha=0.9, C0=16.0, samples=100)
    assert str(symbol_err.value) == str(cover_err.value)


@pytest.mark.parametrize(
    "curve",
    [curves.hyperboloid(), curves.power_law(1.0), curves.exponential(), curves.circle_arc(),
     curves.rational(1.0)],
    ids=lambda c: c.family,
)
def test_corner_containment_matches_sampling_on_failing_covers(curve):
    # at C0 = 0.25 most rectangles leave the epigraph, the deepest by 0.1 to
    # 0.36 below the polygon; at C0 = 0.5 the rectangles that fail only touch
    # it, a rounding below it decides them, and an ulp's move of a vertex can
    # add or remove them, so there only agreement with sampling is asserted
    seq = curves.build_dyadic_slope_sequence(curve, 8)
    deep = build_cover(seq, seq.j0, alpha=0.9, C0=0.25, samples=2000)
    expect = containment_failures_by_sampling(seq, deep.rects)
    assert expect and not deep.containment_ok
    assert deep.containment_failures == expect
    touching = build_cover(seq, seq.j0, alpha=0.9, C0=0.5, samples=2000)
    assert touching.containment_failures == containment_failures_by_sampling(seq, touching.rects)


@pytest.mark.parametrize("J,segments", [(14, 7), (12, 4)], ids=["criterion-10", "cli-config"])
def test_corner_containment_matches_sampling_on_proof_covers(J, segments):
    # the covers of acceptance criterion 10 and of the benchmark's CLI config
    seq = curves.build_dyadic_slope_sequence(curves.hyperboloid(), J)
    for j in seq.segments()[:segments]:
        rep = build_cover(seq, j, alpha=0.9, C0=16.0, samples=10_000)
        assert rep.containment_failures == containment_failures_by_sampling(seq, rep.rects) == []


def _assert_same_squares(seq, j, alpha, C0, samples):
    rep = build_cover(seq, j, alpha=alpha, C0=C0, samples=samples)
    want = cover_squares_by_unique_rows(seq, j, alpha, C0, samples)
    got = (rep.rects.k, rep.rects.cx, rep.rects.cy)
    assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64)) if a.dtype.kind == "f"
               else np.array_equal(a, b) for a, b in zip(got, want))
    return len(rep.rects)


@pytest.mark.parametrize("J,segments", [(14, 7), (12, 4)], ids=["criterion-10", "cli-config"])
def test_cover_dedup_matches_unique_rows_on_proof_covers(J, segments):
    # the 1-d dedup picks the squares np.unique(axis=0) picked, in the same order
    seq = curves.build_dyadic_slope_sequence(curves.hyperboloid(), J)
    for j in seq.segments()[:segments]:
        assert _assert_same_squares(seq, j, 0.9, 16.0, 10_000) > 1


@pytest.mark.parametrize(
    "curve",
    [curves.hyperboloid(), curves.power_law(1.0), curves.exponential(), curves.circle_arc(),
     curves.rational(1.0)],
    ids=lambda c: c.family,
)
def test_cover_dedup_matches_unique_rows_on_failing_covers(curve):
    seq = curves.build_dyadic_slope_sequence(curve, 8)
    j = seq.j0
    assert _assert_same_squares(seq, j, 0.9, 0.5, 2000) > 1
    # at C0 = 1e-3 no sample is covered: an empty cover, every sample a witness
    assert _assert_same_squares(seq, j, 0.9, 1e-3, 2000) == 0
    rep = build_cover(seq, j, alpha=0.9, C0=1e-3, samples=2000)
    assert not rep.cover_ok and len(rep.witnesses) == rep.samples_used > 0
    assert rep.containment_ok
    assert edge_interval_collections(rep.rects, 0.9)["max_overlap"] == {1: 0, 2: 0, 3: 0}


def test_build_cover_hyperboloid_segments(hyperboloid_seq):
    seq = hyperboloid_seq
    for j in seq.segments()[:3]:
        rep = build_cover(seq, j, alpha=0.9, C0=16.0, samples=3000)
        assert rep.cover_ok, rep.witnesses[:3]
        assert rep.containment_ok
        rects = rep.rects
        assert len(rects)
        for k, cx, cy in zip(rects.k.tolist(), rects.cx.tolist(), rects.cy.tolist()):
            assert WhitneySquare(cx=cx, cy=cy, k=k).satisfies(16.0)
        # the aspect of the first 50 rows is exact in exact arithmetic; float
        # cancellation at deep scales leaves a relative error of order
        # (b_j / eta-extent) * eps
        (xlo, xhi), (elo, ehi) = ((lo[:50], hi[:50]) for lo, hi in rects.edges()[:2])
        assert np.all(np.abs((ehi - elo) / (xhi - xlo) - rects.s_j) < 1e-9 * rects.s_j)


def test_build_cover_steep_segment():
    # slope close to 1 on the first segment
    seq = curves.SequencePair(a=[0.0, -1.0, -2.0, -3.0], b=[0.0, -0.95, -1.85, -2.65])
    rep = build_cover(seq, 0, alpha=0.9, C0=16.0, samples=3000)
    assert rep.cover_ok and rep.containment_ok


def test_build_cover_validation(hyperboloid_seq):
    j = hyperboloid_seq.j0
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 0.999\)"):
        build_cover(hyperboloid_seq, j, alpha=1.2, C0=16.0, samples=1000)
    with pytest.raises(ValueError, match="alpha below 0.8"):
        build_cover(hyperboloid_seq, j, alpha=0.5, C0=16.0, samples=1000)


def test_rect_geometry_identities():
    seq, rect = demo_rect()
    (xlo, xhi), (elo, ehi), e3 = ((lo[0], hi[0]) for lo, hi in rect.edges())
    side = 2.0 ** rect.k[0]
    assert (xhi - xlo) == side
    assert abs((ehi - elo) - rect.s_j * side) < 1e-15
    klo, khi = (v[0] for v in rect.k_interval())
    assert abs((khi - klo) - (1.0 + rect.s_j) * side) < 1e-15
    # membership: points of the mapped square have -xi-eta in K
    rng = np.random.default_rng(0)
    h = 0.5 * side
    ilo, ihi = rect.cx[0] - h, rect.cx[0] + h
    jlo, jhi = rect.cy[0] - h, rect.cy[0] + h
    for _ in range(1000):
        u = rng.uniform(ilo, ihi)
        v = rng.uniform(jlo, jhi)
        xi, eta = -u, -rect.s_j * v
        val = -xi - eta
        assert klo - 1e-12 <= val <= khi + 1e-12
    # edge3 is K shifted by the negated anchor sum
    a, b = rect.anchor
    assert abs(e3[0] - (klo - a - b)) < 1e-12
    assert abs(e3[1] - (khi - a - b)) < 1e-12


def test_edge_collections_single_and_adjacent():
    seq, rect = demo_rect()
    single = edge_interval_collections(rect, 0.9)
    assert single["max_overlap"] == {1: 1, 2: 1, 3: 1}
    # the demo square and an abutting square of the same scale
    both = edge_interval_collections(segment_cover(seq, [(0.75, 0.25, -3), (0.875, 0.375, -3)]), 0.9)
    assert all(1 <= v <= 2 for v in both["max_overlap"].values())
    assert both["max_overlap"][1] == 2  # dilated abutting edges overlap


# endpoints from a small pool, so families share endpoints, repeat intervals
# and hold zero-length ones
_ENDPOINT = st.sampled_from([-1.5, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0])
_LENGTH = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 3.0])


@seed(17)
@given(st.lists(st.tuples(_ENDPOINT, _LENGTH), max_size=40))
@settings(max_examples=300, deadline=None)
def test_max_overlap_matches_sweep(family):
    # the edge families' counter: closed intervals, the empty family included
    intervals = [(lo, lo + length) for lo, length in family]
    lo, hi = [v for v, _ in intervals], [v for _, v in intervals]
    assert max_overlap(lo, hi) == max_overlap_sweep(intervals)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def test_cover_arrays_match_tile_rects(hyperboloid_seq):
    # every range, edge, omega and K the arrays give equals, bit for bit, the
    # one derived per row in scalars from the square's own I and Jn
    seq = hyperboloid_seq
    for j in seq.segments()[:3]:
        cover = build_cover(seq, j, alpha=0.9, C0=16.0, samples=3000).rects
        (a, b), _, s_j = segment(seq, j)
        expect = {i: [] for i in ("xi", "eta", "e3", "om1", "om2", "K")}
        for i in range(len(cover)):
            cx, cy, k = float(cover.cx[i]), float(cover.cy[i]), int(cover.k[i])
            h = 0.5 * 2.0**k
            (ilo, ihi), (jlo, jhi) = (cx - h, cx + h), (cy - h, cy + h)
            xi, eta = (a - ihi, a - ilo), (b - s_j * jhi, b - s_j * jlo)
            expect["xi"].append(xi)
            expect["eta"].append(eta)
            expect["e3"].append((-xi[1] - eta[1], -xi[0] - eta[0]))
            expect["om1"].append((-ihi, -ilo))
            expect["om2"].append((-s_j * jhi, -s_j * jlo))
            expect["K"].append((ilo + s_j * jlo, ihi + s_j * jhi))
        got = dict(zip(("xi", "eta", "e3"), cover.edges()))
        got.update(zip(("om1", "om2"), cover.omegas()), K=cover.k_interval())
        for name, pairs in expect.items():
            assert np.array_equal(_bits(np.column_stack(got[name])), _bits(pairs)), name
        fams = [expect[name] for name in ("xi", "eta", "e3")]
        dilated = {i: [whitney._dilate(e, 1.0 / 0.9) for e in fams[i - 1]] for i in (1, 2, 3)}
        result = edge_interval_collections(cover, 0.9)
        for i in (1, 2, 3):
            assert np.array_equal(_bits(np.column_stack(result["intervals"][i])), _bits(dilated[i]))
        assert result["max_overlap"] == {i: max_overlap_sweep(dilated[i]) for i in (1, 2, 3)}


def test_write_csv_matches_per_cell_rows(tmp_path):
    floats = np.array([0.0, -0.0, 1e-300, 5e-324, -5e-324, 0.1, 1.0 / 3.0, 2.5e17, -0.0, 0.1,
                       np.inf, -np.inf, np.nan])
    n = len(floats)
    columns = [
        np.arange(n) - 4,  # int64 array
        floats,
        floats[::-1].copy(),
        [np.float64(v) for v in floats],  # numpy float scalars in a list
        [np.int64(v) for v in range(n)],
        [float(v) for v in floats],
        ["fam"] * n,
        np.arange(n) % 3 == 0,  # bool array
        np.repeat(np.array([-0.0, 0.0, 7.0]), [5, 5, n - 10]),
    ]
    header = [f"c{i}" for i in range(len(columns))]
    path = tmp_path / "t.csv"
    reporting.write_csv(str(path), header, columns)
    assert path.read_text().split("\n") == csv_text_by_rows(header, zip(*columns)).split("\n")
    reporting.write_csv(str(path), header, [])
    assert path.read_text().split("\n") == csv_text_by_rows(header, []).split("\n")
    with pytest.raises(ValueError, match="differ in length"):
        reporting.write_csv(str(path), ["a", "b"], [np.zeros(3), np.zeros(4)])


def test_write_csv_matches_per_cell_rows_on_edge_values(tmp_path):
    floats = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e16, 1e16 + 2, 0.1, 1e22])
    ints = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1], dtype=np.int64)
    n = 44  # a multiple of both lengths
    columns = [
        np.resize(floats, n),
        np.resize(ints, n),
        np.resize(np.array([True, False, True]), n),
        tuple(np.resize(floats, n).tolist()),  # a tuple of python floats, as probe.csv passes
        tuple(range(n)),
        tuple(["wave_packets", "random_sign"] * (n // 2)),
        np.resize(np.array([-0.0, 0.0], dtype=np.float32), n),
        np.resize(ints, (n // 4, 4)),  # 2-d: written in ravel order
    ]
    header = [f"c{i}" for i in range(len(columns))]
    path = tmp_path / "t.csv"
    reporting.write_csv(str(path), header, columns)
    want = csv_text_by_rows(header, zip(*columns[:-1], columns[-1].ravel()))
    assert path.read_text().split("\n") == want.split("\n")
    for cols in ([], [np.zeros(0)], [np.zeros(0), ()]):  # zero columns, zero rows
        reporting.write_csv(str(path), header[: len(cols)], cols)
        assert path.read_text().split("\n") == csv_text_by_rows(header[: len(cols)], zip(*cols)).split("\n")


@pytest.mark.parametrize("offset", [-1, 0, 1, reporting.CSV_BLOCK_ROWS + 1])
def test_write_csv_across_block_boundaries(tmp_path, offset):
    # row counts just below, at and just above one block, and past two blocks
    n = reporting.CSV_BLOCK_ROWS + offset
    rng = np.random.default_rng(n)
    columns = [np.arange(n), rng.normal(size=n), np.round(rng.normal(size=n), 1), ["x"] * n]
    path = tmp_path / "t.csv"
    reporting.write_csv(str(path), ["i", "a", "b", "s"], columns)
    assert path.read_text().split("\n") == csv_text_by_rows(["i", "a", "b", "s"], zip(*columns)).split("\n")


def test_write_csv_formats_each_column_once_per_distinct_bit_pattern(tmp_path):
    a = np.array([0.1, -0.0, 1.0 / 3.0, 2.5, np.nan])
    b = np.array([2.5, 0.0, 0.1, 0.1, np.inf])  # repeats 0.1; 0.0 against a's -0.0
    f64 = np.array([0.1, 0.0, 1.0 / 3.0, 2.5, np.inf])
    f32 = f64.astype(np.float32)  # the same numbers, rounded to float32: other texts
    columns = [a, b, f32, f64, np.arange(5)]
    for col in columns:
        text, index = reporting._column_text(col)
        assert len(text) == len(np.unique(col.view(f"u{col.itemsize}")))
        assert len(index) == len(col)
    path = tmp_path / "t.csv"
    reporting.write_csv(str(path), ["a", "b", "f32", "f64", "i"], columns)
    want = csv_text_by_rows(["a", "b", "f32", "f64", "i"], zip(*columns))
    assert path.read_text().split("\n") == want.split("\n")
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert (rows[1][0], rows[1][1]) == ("-0.0", "0.0")
    assert [r[2] for r in rows[:3]] == ["0.10000000149011612", "0.0", "0.3333333432674408"]
    assert [r[3] for r in rows[:3]] == ["0.1", "0.0", "0.3333333333333333"]
    assert (rows[4][0], rows[4][1], rows[4][2]) == ("nan", "inf", "inf")


def test_write_csv_memory_follows_one_column_at_a_time(tmp_path):
    # three 262,144-row float64 columns with few distinct values, as repeat/tile
    # columns of a 512 x 512 grid; a text table shared across the float64
    # columns, with the sort of all their cells at once, peaked at 36.8 MiB,
    # a table per column at 14.3 MiB
    n = 512
    xi, eta = np.linspace(-2.0, 0.0, n), np.linspace(0.0, 1.0, n)
    columns = [np.repeat(xi, n), np.tile(eta, n), (np.add.outer(xi, eta) > -0.5).astype(float).ravel()]
    path = tmp_path / "t.csv"
    tracemalloc.start()
    try:
        reporting.write_csv(str(path), ["xi", "eta", "amplitude"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text().count("\n") == 1 + n * n
    assert peak <= 22 * 2**20, peak / 2**20


def _grid_csv_by_cells(header, xi, eta, lo, hi):
    k = np.arange(len(eta))
    values = ((k >= lo[:, None]) & (k < hi[:, None])).astype(float)
    return csv_text_by_rows(header, zip(np.repeat(xi, len(eta)), np.tile(eta, len(xi)), values.ravel()))


def _random_profile(rng, nx, ny):
    """Eta-index ranges lo <= hi of nx columns over ny slots: each column
    drawn at random, empty (at a random index), full or one slot wide."""
    lo, hi = np.sort(rng.integers(ny + 1, size=(2, nx)), axis=0)
    shape = rng.integers(4, size=nx)
    hi = np.where(shape == 1, lo, hi)
    lo, hi = np.where(shape == 2, 0, lo), np.where(shape == 2, ny, hi)
    if ny:
        one = shape == 3
        lo = np.where(one, np.minimum(lo, ny - 1), lo)
        hi = np.where(one, lo + 1, hi)
    return lo, hi


EDGE_FLOATS = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.0])


# kind names the axes: "bitmap" cell centres of a window, "normal" floats
# drawn from a normal law, "edge" xi from EDGE_FLOATS and eta starting -0.0, 0.0
@pytest.mark.parametrize("nx, ny, kind", [
    (1, 1, "normal"), (1, 9, "normal"), (9, 1, "normal"), (3, 40, "normal"), (24, 16, "bitmap"),
    (7, 6, "edge"), (3, reporting.CSV_BLOCK_ROWS // 3 + 1, "bitmap"), (1, reporting.CSV_BLOCK_ROWS + 1, "edge"),
    (0, 4, "bitmap"), (4, 0, "bitmap"), (0, 0, "bitmap"), (1, 0, "bitmap"), (0, 1, "bitmap"),
    (2, reporting.CSV_BLOCK_ROWS // 2, "bitmap"), (3, reporting.CSV_BLOCK_ROWS // 2, "bitmap"),
    (reporting.CSV_BLOCK_ROWS, 1, "normal"), (reporting.CSV_BLOCK_ROWS + 1, 1, "edge"),
])
def test_write_grid_csv_matches_per_cell_rows(tmp_path, nx, ny, kind):
    rng = np.random.default_rng(nx * 1000 + ny)
    if kind == "bitmap":
        grid = symbols.FrequencyGrid(window=(-2.0, 0.0, 0.0, 1.0), nx=nx, ny=ny)
        xi, eta = grid.xi_values(), grid.eta_values()
    elif kind == "normal":
        xi, eta = rng.normal(size=nx), np.sort(rng.normal(size=ny))
    else:
        xi, eta = EDGE_FLOATS[rng.integers(len(EDGE_FLOATS), size=nx)], np.linspace(-1.0, 1.0, ny)
        eta[: min(ny, 2)] = [-0.0, 0.0][: min(ny, 2)]
    lo, hi = _random_profile(rng, nx, ny)
    path = tmp_path / "g.csv"
    header = ["xi", "eta", "amplitude"]
    reporting.write_grid_csv(str(path), header, xi, eta, lo, hi)
    # compared line by line: pytest would diff a failing pair of whole texts for minutes
    assert path.read_text().split("\n") == _grid_csv_by_cells(header, xi, eta, lo, hi).split("\n")


def test_write_grid_csv_validation(tmp_path):
    path = tmp_path / "g.csv"
    for n_lo, n_hi in ((2, 3), (3, 4)):
        with pytest.raises(ValueError, match=f"{n_lo} lo and {n_hi} hi entries for 3 xi rows"):
            reporting.write_grid_csv(str(path), ["a", "b", "c"], np.zeros(3), np.zeros(4),
                                     np.zeros(n_lo, int), np.zeros(n_hi, int))
    assert not path.exists()


def test_write_grid_csv_memory_on_the_pipeline_bitmap(tmp_path):
    # the cli_pipeline symbol's 512 x 512 grid, whose columns are eta-suffixes;
    # the (nx*ny,) repeat/tile columns that write_csv would take, with its sort
    # of them, peak at about 18 MiB
    nx = ny = 512
    xi, eta = np.linspace(-2.0, 0.0, nx), np.linspace(0.0, 1.0, ny)
    values = (np.add.outer(xi, eta) > -0.5).astype(float)
    lo, hi = ny - values.sum(axis=1).astype(int), np.full(nx, ny)
    path = tmp_path / "g.csv"
    tracemalloc.start()
    try:
        reporting.write_grid_csv(str(path), ["xi", "eta", "amplitude"], xi, eta, lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text().count("\n") == 1 + nx * ny  # the bytes: cli_golden_pipeline.json
    assert peak <= 12 * 2**20, peak / 2**20


def test_cube_condition_variants():
    assert cube_condition((0.0, 0.5, 0.25), side=0.125, C0=2.0)
    assert not cube_condition((0.0, 0.1, 0.05), side=0.125, C0=2.0)  # too close
    assert not cube_condition((0.0, 9.0, 4.0), side=0.125, C0=2.0)  # too far


def test_multitiles_structure():
    seq, rect = demo_rect()
    tiles = enumerate_multitiles(rect, C0=2.0, exponent_base=2, space_len=16.0, alpha=0.9)
    assert len(tiles)
    tile_len = 2.0**-1
    per_cube = int(16.0 / tile_len)
    entries = len(tiles.c3)
    assert len(np.unique(tiles.om3_lo)) == entries
    assert len(tiles) == entries * per_cube
    assert tiles.j == 1 and tiles.tile_len == tile_len and np.all(tiles.rect == 0)
    assert np.array_equal(tiles.entry, np.repeat(np.arange(entries), per_cube))
    assert np.array_equal(tiles.m, np.tile(np.arange(per_cube), entries))
    s = 2.0 ** rect.k[0]
    assert np.all(cube_condition((rect.cx[0], rect.cy[0], tiles.c3), s, 2.0))
    # omega3 is the stretched third interval
    stretch = 1.0 + rect.s_j
    assert np.all(np.abs((tiles.om3_hi - tiles.om3_lo) - stretch * s) < 1e-12)
    # omega1 is the negated square face
    (o1lo, o1hi), _ = rect.omegas()
    assert abs(o1lo[0] + rect.cx[0] + 0.5 * s) < 1e-15 and abs(o1hi[0] + rect.cx[0] - 0.5 * s) < 1e-15


def test_multitiles_validation():
    seq, rect = demo_rect()
    with pytest.raises(ValueError, match="integer multiple"):
        enumerate_multitiles(rect, 2.0, 2, space_len=16.3, alpha=0.9)


def tile_fields(tiles):
    """Each tile's multi-tile fields, derived from the set's arrays and its cover."""
    rects, ell = tiles.rects, tiles.tile_len
    (o1lo, o1hi), (o2lo, o2hi) = rects.omegas()
    out = []
    for e, m in zip(tiles.entry.tolist(), tiles.m.tolist()):
        r = int(tiles.rect[e])
        out.append(dict(
            I_P=(m * ell, (m + 1) * ell), omega1=(float(o1lo[r]), float(o1hi[r])),
            omega2=(float(o2lo[r]), float(o2hi[r])), omega3=(float(tiles.om3_lo[e]), float(tiles.om3_hi[e])),
            j=tiles.j, scale_k=int(rects.k[r]), cube_center=(float(rects.cx[r]), float(rects.cy[r]),
                                                             float(tiles.c3[e])), rect_key=r,
        ))
    return out


@pytest.mark.parametrize(
    "squares,C0,count",
    [([(0.75, 0.25, -3)], 2.0, 1408),
     ([(0.75, 0.25, -3), (0.375, 0.125, -4), (1.25, 0.5, -3)], 2.0, 4224),
     ([(0.75, 0.7265625, -8)], 16.0, 0)],
    ids=["one-row", "three-row", "no-cube"],
)
def test_tile_set_matches_the_per_tile_objects(squares, C0, count):
    # every derived field of every tile, in order, bitwise (repr keeps the sign of 0)
    seq, _ = demo_rect()
    rects = segment_cover(seq, squares)
    tiles = enumerate_multitiles(rects, C0=C0, exponent_base=2, space_len=64.0, alpha=0.9)
    want = multitiles_by_object(rects, C0=C0, exponent_base=2, space_len=64.0, alpha=0.9)
    assert len(tiles) == len(want) == count
    assert repr(tile_fields(tiles)) == repr(want)
    if not count:
        rng = np.random.default_rng(3)
        f = SampledFunction(rng.normal(size=512) + 0j, 64.0)
        with pytest.raises(ValueError, match="nonempty tile list"):
            model_sum_eval(f, f, f, tiles)


def test_omega3_partition_reconstructs_wide_bump():
    seq, rect = demo_rect()
    assert omega3_partition_gap(rect, C0=2.0, alpha=0.9, n=10_000) <= 1e-8


def test_omega3_partition_check_is_max_over_rows():
    seq, _ = demo_rect()
    squares = [(0.75, 0.25, -3), (0.375, 0.125, -4), (0.75, 0.7265625, -8)]
    rows = [omega3_partition_gap(segment_cover(seq, [sq]), C0=2.0, alpha=0.9, n=2000) for sq in squares]
    assert omega3_partition_gap(segment_cover(seq, squares), C0=2.0, alpha=0.9, n=2000) == max(rows)


def test_omega3_partition_check_needs_an_admissible_cube():
    # a square deep along the diagonal: at C0 = 2 its third-slot cubes
    # partition the wide bump, at C0 = 16 every cube near the output interval
    # has a center spread below C0 times its side, so none is admissible
    seq, _ = demo_rect()
    assert WhitneySquare(cx=0.75, cy=0.7265625, k=-8).satisfies(2.0)
    rect = segment_cover(seq, [(0.75, 0.7265625, -8)])
    assert omega3_partition_gap(rect, C0=2.0, alpha=0.9) <= 1e-8
    with pytest.raises(ValueError, match="no admissible"):
        omega3_partition_gap(rect, C0=16.0, alpha=0.9)


PARTITION_CASES = [(-3, 2), (-2, 2), (-1, 2), (-1, 3)]


@pytest.mark.parametrize("j0,B", PARTITION_CASES)
def test_partition_of_unity(j0, B):
    width = 8.0 * float(B) ** (-j0)
    assert partition_check(j0, B, (0.0, width)) <= 1e-6


@pytest.mark.parametrize("j0,B", PARTITION_CASES)
def test_partition_check_sums_chi_values(j0, B):
    # the closed form telescopes the per-tile sum of the same chi_values
    window = (0.0, 8.0 * float(B) ** (-j0))
    assert abs(partition_check(j0, B, window) - partition_sum_by_tiles(j0, B, window)) <= 1e-14


def test_partition_rejects_wide_kernel_scales():
    with pytest.raises(ValueError, match="wider than the tiles"):
        partition_check(2, 8, (0.0, 8.0 * 8.0**-2))


def test_chi_range_and_concentration():
    B, j0 = 2, -3
    tile = float(B) ** (-j0)
    xs = np.linspace(-tile, 2.0 * tile, 2048)
    chi = chi_values(xs, (0.0, tile), j0, B)
    assert np.all(chi >= -1e-12) and np.all(chi <= 1.0 + 1e-12)
    center_val = chi_values(np.array([tile / 2]), (0.0, tile), j0, B)[0]
    assert center_val >= 0.5  # kernel mass concentrates inside a long tile
    # at a much coarser tile scale the kernel dwarfs the tile
    spread_val = chi_values(np.array([0.5]), (0.0, 1.0), 1, B)[0]
    assert spread_val < 0.5


def test_chi_coeffs_match_dense_spectrum(rng):
    # on the kernel spectrum's support the coefficients are the dense ones,
    # off it the dense ones are 0, and the pairing on the support is the
    # full-grid period pairing up to rounding
    seq, rect = demo_rect()
    tiles = enumerate_multitiles(rect, C0=2.0, exponent_base=2, space_len=64.0, alpha=0.9)[:128]
    M, L = 2048, 64.0
    xi = _freq_grid(M, L)
    spectrum = fejer_sq_spectrum(xi / 2.0**-1, 4.0**-2)
    nz = np.flatnonzero(spectrum)
    assert 0 < len(nz) < M // 10
    ell = tiles.tile_len
    support = whitney._chi_support(tiles.m * ell, (tiles.m + 1) * ell, xi[nz], spectrum[nz], L)
    assert support.shape == (len(tiles), len(nz))
    for m, row in zip(tiles.m.tolist(), support):
        dense = chi_coeffs_dense((m * ell, (m + 1) * ell), tiles.j, 2, M, L)
        assert np.array_equal(row, dense[nz])
        assert not np.any(np.delete(dense, nz))
        q_hat = rng.normal(size=M) + 1j * rng.normal(size=M)
        terms = row * q_hat[(-nz) % M]
        assert abs(L * np.sum(terms) - _period_pairing(dense, q_hat, L)) <= 1e-15 * L * np.sum(np.abs(terms))


def test_cli_demo_model_value_matches_the_per_tile_pairing(monkeypatch):
    # the inputs the whitney subcommand's demo passes, at the pipeline seed
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return model_sum_eval(*args, **kwargs)

    monkeypatch.setattr(whitney, "model_sum_eval", spy)
    got = cli._demo_model_sum(RunConfig(seed=7).validate())["model_value"]
    (f, g, h, tiles), _ = calls[0]
    assert len(tiles) == 1408
    want = model_value_by_tile(f, g, h, tiles)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_r2_samples_deterministic():
    assert np.array_equal(r2_samples(100), r2_samples(100))
    pts = r2_samples(1000)
    assert np.all((pts >= 0) & (pts < 1))


class TestModelSum:
    def setup_method(self):
        self.seq, self.rect = demo_rect()
        self.tiles = enumerate_multitiles(self.rect, C0=2.0, exponent_base=2, space_len=64.0, alpha=0.9)
        self.L, self.N = 64.0, 512

    def mk(self, rng):
        return SampledFunction(
            rng.normal(size=self.N) + 1j * rng.normal(size=self.N), self.L
        )

    def test_zero_input_gives_zero(self, rng):
        z = SampledFunction(np.zeros(self.N, dtype=complex), self.L)
        res = model_sum_eval(z, self.mk(rng), self.mk(rng), self.tiles)
        assert res["model_value"] == 0.0 and res["adjoint_value"] == 0.0

    def test_identity_random_inputs(self, rng):
        res = model_sum_eval(self.mk(rng), self.mk(rng), self.mk(rng), self.tiles)
        assert res["deviation"] <= 1e-6
        assert abs(res["adjoint_value"]) > 0

    def test_single_tile_single_frequency(self):
        # one space tile and one cube, chosen so that its output interval
        # holds the K-center in its plateau; with a single cube the partition
        # piece is the wide bump itself, equal to 1 there.  All tile weights
        # are then exactly 1 at grid frequencies near the cube centers, and
        # the model term is a plain quadrature of chi * f * g * h.
        klo, khi = self.rect.k_interval()
        k_mid = 0.5 * (klo[0] + khi[0])
        tiles = self.tiles
        i = int(np.argmin(np.abs(0.5 * (tiles.om3_lo + tiles.om3_hi)[tiles.entry] - k_mid)))
        t = tiles[[i]]
        ell, m = t.tile_len, int(t.m[0])
        (o1lo, o1hi), (o2lo, o2hi) = self.rect.omegas()
        x = self.L * np.arange(self.N) / self.N

        def grid_exp(freq):
            k = round(freq * self.L)
            return k / self.L, SampledFunction(np.exp(2j * np.pi * (k / self.L) * x), self.L)

        a1, b1 = self.seq.a_at(1), self.seq.b_at(1)
        _, f = grid_exp(0.5 * (o1lo[0] + o1hi[0]) + a1)
        _, g = grid_exp(0.5 * (o2lo[0] + o2hi[0]) + b1)
        _, h = grid_exp(k_mid - a1 - b1)
        res = model_sum_eval(f, g, h, t)
        # direct quadrature against the periodized space cutoff
        M = 8 * self.N
        xs = self.L * np.arange(M) / M
        chi = np.zeros_like(xs)
        for shift in range(-64, 65):
            chi = chi + chi_values(xs + shift * self.L, (m * ell, (m + 1) * ell), t.j, 2)
        prod = np.prod([_synthesize(_pad(fn.coeffs(), M)) for fn in (f, g, h)], axis=0)
        direct = np.sum(chi * prod) * (self.L / M)
        assert abs(res["model_value"] - direct) <= 1e-8 * max(1.0, abs(direct))

    def test_groups_additive(self, rng):
        # two rectangles with disjoint output intervals: the model form over
        # the union of their tiles splits into the per-rectangle sums
        f, g, h = self.mk(rng), self.mk(rng), self.mk(rng)
        assert WhitneySquare(cx=0.375, cy=0.125, k=-4).satisfies(2.0)
        rects = segment_cover(self.seq, [(0.75, 0.25, -3), (0.375, 0.125, -4)])
        tiles = enumerate_multitiles(rects, C0=2.0, exponent_base=2, space_len=64.0, alpha=0.9)
        row = tiles.rect[tiles.entry]
        whole = model_sum_eval(f, g, h, tiles)
        p1 = model_sum_eval(f, g, h, tiles[row == 0])
        p2 = model_sum_eval(f, g, h, tiles[row == 1])
        got = p1["model_value"] + p2["model_value"]
        assert abs(got - whole["model_value"]) <= 1e-8 * max(1.0, abs(whole["model_value"]))
        assert whole["deviation"] <= 1e-6

    @pytest.mark.parametrize(
        "squares",
        [[(0.75, 0.25, -3)], [(0.75, 0.25, -3), (0.375, 0.125, -4), (1.25, 0.5, -3)]],
        ids=["one-row", "three-row"],
    )
    def test_adjoint_matches_dense_tile_bump_oracle(self, rng, squares):
        # the tensor sum against the tile-bump symbol tabulated on the N x N grid
        rects = segment_cover(self.seq, squares)
        tiles = enumerate_multitiles(rects, C0=2.0, exponent_base=2, space_len=64.0, alpha=0.9)
        assert np.array_equal(np.unique(tiles.rect[tiles.entry]), np.arange(len(squares)))
        f, g, h = self.mk(rng), self.mk(rng), self.mk(rng)
        res = model_sum_eval(f, g, h, tiles)
        ev = tile_bump_evaluator(rects, range(len(squares)), 0.9)
        B = SampledFunction(bilinear_dense_table(ev, f, g), self.L)
        dense = _period_pairing(B.coeffs(), _pad(h.coeffs(), B.N), self.L)
        assert abs(res["adjoint_value"] - dense) <= 1e-13 * abs(dense)
        assert res["deviation"] <= 1e-6

    @pytest.mark.parametrize(
        "squares,step",
        [([(0.75, 0.25, -3)], 1), ([(0.75, 0.25, -3), (0.375, 0.125, -4), (1.25, 0.5, -3)], 1),
         ([(0.75, 0.25, -3)], 3)],
        ids=["one-row", "three-row", "every-third-tile"],
    )
    def test_model_value_matches_the_per_tile_pairing(self, rng, squares, step):
        # over all space tiles the cutoffs sum to 1, so only the zero
        # frequency survives; every third tile keeps the others in the sum
        rects = segment_cover(self.seq, squares)
        tiles = enumerate_multitiles(rects, C0=2.0, exponent_base=2, space_len=64.0, alpha=0.9)[::step]
        f, g, h = self.mk(rng), self.mk(rng), self.mk(rng)
        got = model_sum_eval(f, g, h, tiles)["model_value"]
        want = model_value_by_tile(f, g, h, tiles)
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_dense_table_matches_double_sum(self, rng):
        # the adjoint test's reference against the direct sum, on a grid
        # (N = 32, L = 6.1) that meets both bumps' plateaus and transitions
        rects = segment_cover(self.seq, [(1.0, 0.5, 0), (2.0, 1.0, 0)])
        ev = tile_bump_evaluator(rects, range(2), 0.9)
        N, L = 32, 6.1
        f, g = (SampledFunction(rng.normal(size=N) + 1j * rng.normal(size=N), L) for _ in range(2))
        table = ev(f.freqs()[:, None], f.freqs()[None, :])
        assert np.any((table > 0) & (table < 1))
        slow = bilinear_double_sum(ev, f, g)
        assert np.max(np.abs(bilinear_dense_table(ev, f, g) - slow)) <= 1e-12 * np.max(np.abs(slow))

    def test_lattice_misalignment_rejected(self, rng):
        seq = curves.SequencePair(
            a=np.array([-1.0 + 1e-4, -2.0, -3.0]),
            b=np.array([1.0, 0.5, 0.25]),
            direction="decreasing", j0=1, b_inf=0.0,
        )
        rect = segment_cover(seq, [(0.75, 0.25, -3)])
        tiles = enumerate_multitiles(rect, C0=2.0, exponent_base=2, space_len=64.0, alpha=0.9)
        with pytest.raises(ValueError, match="parameter mismatch"):
            model_sum_eval(self.mk(rng), self.mk(rng), self.mk(rng), tiles)

    def test_tiles_must_come_from_the_cover(self, rng):
        f, g, h = self.mk(rng), self.mk(rng), self.mk(rng)
        with pytest.raises(ValueError, match="nonempty tile list"):
            model_sum_eval(f, g, h, self.tiles[:0])

    def test_memory_stays_below_tiles_by_slots(self, rng):
        # N = 8192, L = 1024: 22,528 tiles; a (tiles, S) or (tiles, M) array
        # alone would take more than the bound
        N, L = 8192, 1024.0
        tiles = enumerate_multitiles(self.rect, C0=2.0, exponent_base=2, space_len=L, alpha=0.9)
        assert len(tiles) == 22_528
        f, g, h = (SampledFunction(rng.normal(size=N) + 1j * rng.normal(size=N), L) for _ in range(3))
        tracemalloc.start()
        try:
            res = model_sum_eval(f, g, h, tiles)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert res["deviation"] <= 1e-6
