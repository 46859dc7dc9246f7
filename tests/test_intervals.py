import math

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from bmlab import curves
from bmlab.intervals import (
    ColoringResult,
    HalfOpenInterval,
    build_hyp_collection,
    check_hypothesis,
    max_overlap,
    min_disjoint_split,
    neg_minkowski_sum,
    staircase_steps,
)
from bmlab.symbols import staircase_symbol

from oracles import coloring_is_certified, exact_chromatic_number, max_overlap_sweep, max_point_overlap


def RO(lo, hi):
    return HalfOpenInterval(lo, hi, closure="right_open")


def LO(lo, hi):
    return HalfOpenInterval(lo, hi, closure="left_open")


def test_neg_minkowski_basic():
    r = neg_minkowski_sum(RO(0, 1), RO(2, 3))
    assert (r.lo, r.hi, r.closure) == (-4, -2, "left_open")


def test_neg_minkowski_left_open_pair():
    r = neg_minkowski_sum(LO(0, 1), LO(2, 3))
    assert (r.lo, r.hi, r.closure) == (-4, -2, "right_open")


def test_neg_minkowski_mixed_is_right_closed_superset():
    r = neg_minkowski_sum(LO(0, 1), RO(2, 3))
    assert (r.lo, r.hi, r.closure) == (-4, -2, "left_open")


@given(
    st.floats(-50, 50), st.floats(0.01, 10), st.floats(-50, 50), st.floats(0.01, 10),
    st.sampled_from(["right_open", "left_open"]), st.sampled_from(["right_open", "left_open"]),
)
@settings(max_examples=200, deadline=None)
def test_neg_minkowski_length_additive(a, la, c, lc, cl1, cl2):
    A = HalfOpenInterval(a, a + la, closure=cl1)
    B = HalfOpenInterval(c, c + lc, closure=cl2)
    r = neg_minkowski_sum(A, B)
    assert math.isclose(r.hi - r.lo, (A.hi - A.lo) + (B.hi - B.lo), rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_power_law_hyp1_inclusion(c):
    seq = curves.build_dyadic_slope_sequence(curves.power_law(c), 10)
    b0 = c ** (-c / (c + 1.0))
    coll = build_hyp_collection(seq, "hyp1")
    for j, iv in enumerate(coll, start=seq.j0 + 1):
        lo_bound = abs(seq.a_at(j)) - b0
        hi_bound = abs(seq.a_at(j + 1))
        assert iv.lo >= lo_bound - 1e-12
        assert iv.hi <= hi_bound + 1e-12


def test_hyperboloid_hyp2_items(hyperboloid_seq):
    seq = hyperboloid_seq.truncate(6)
    coll = build_hyp_collection(seq, "hyp2")
    assert len(coll) == 6
    for j, iv in enumerate(coll, start=seq.j0):
        assert iv.closure == "left_open"
        assert abs(iv.lo - (-seq.a_at(j) - seq.b_at(j))) < 1e-12
        assert abs(iv.hi - (-seq.a_at(j + 1) - 1.0)) < 1e-12


def test_power_law_hyp1_count_and_left_endpoints(power1_seq):
    coll = build_hyp_collection(power1_seq.truncate(6), "hyp1")
    assert len(coll) == 5
    for j, iv in enumerate(coll, start=power1_seq.j0 + 1):
        # with c = 1 the top value is 1, so left endpoints are |a_j| - 1
        assert abs(iv.lo - (abs(power1_seq.a_at(j)) - 1.0)) < 1e-12


def test_hyp2_needs_limit():
    seq = curves.SequencePair(
        a=np.array([3.0, 2.0, 1.0]), b=np.array([2.0, 1.5, 1.0]), b_inf=None
    )
    with pytest.raises(ValueError, match="limit required"):
        build_hyp_collection(seq, "hyp2")


def test_increasing_variant_items():
    u = np.arange(8, dtype=float)
    v = 2.0 ** np.arange(8)
    seq = curves.SequencePair(a=u, b=v, direction="increasing")
    coll = build_hyp_collection(seq, "hyp1")
    assert len(coll) == 6
    for j, iv in enumerate(coll, start=seq.j0 + 1):
        assert abs(iv.lo - (-u[j] - v[j + 1])) < 1e-12
        assert abs(iv.hi - (-u[0] - v[j])) < 1e-12


def test_touching_half_open_disjoint():
    assert not RO(0, 1).overlaps(RO(1, 2))
    assert not LO(0, 1).overlaps(LO(1, 2))
    assert LO(0, 1).overlaps(RO(1, 2))  # both contain 1
    assert not RO(0, 1).overlaps(LO(1, 2))  # neither contains 1


def test_split_disjoint_single_color():
    res = min_disjoint_split((RO(0, 1), RO(1, 2), RO(3, 4)))
    assert res.num_colors == 1
    assert coloring_is_certified(res)


def test_split_common_point_needs_k_colors():
    ivs = tuple(RO(-k, 1.0 + 0.1 * k) for k in range(5))
    res = min_disjoint_split(ivs)
    assert res.num_colors == 5
    assert coloring_is_certified(res)
    assert res.num_colors == exact_chromatic_number(list(ivs))


def test_split_empty_rejected():
    with pytest.raises(ValueError):
        min_disjoint_split(())


def test_greedy_matches_bruteforce_randomized(rng):
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        ivs = []
        for _ in range(n):
            lo = float(rng.uniform(-5, 5))
            ln = float(rng.uniform(0.05, 4.0))
            cl = "right_open" if rng.integers(2) else "left_open"
            ivs.append(HalfOpenInterval(lo, lo + ln, closure=cl))
        res = min_disjoint_split(ivs)
        assert coloring_is_certified(res)
        assert res.num_colors == exact_chromatic_number(ivs)


def test_coloring_certificate_detects_corruption():
    ivs = (RO(0, 2), RO(1, 3))
    res = min_disjoint_split(ivs)
    bad = ColoringResult(num_colors=1, assignment=[0, 0], certificate={0: list(ivs)})
    assert coloring_is_certified(res)
    assert not coloring_is_certified(bad)


def test_max_point_overlap_half_open():
    assert max_point_overlap([RO(0, 1), RO(1, 2)]) == 1
    assert max_point_overlap([LO(0, 1), RO(1, 2)]) == 2
    assert max_point_overlap([LO(0, 1), LO(1, 2)]) == 1
    assert max_overlap([], []) == 0
    assert max_overlap([0.0, 1.0], [1.0, 1.0]) == 2  # touching closed ends, zero length


@seed(23)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 4)), max_size=30))
@settings(max_examples=300, deadline=None)
def test_max_overlap_matches_the_closed_sweep(family):
    # integer ends, so families share endpoints and touch
    lo = np.array([float(a) for a, _ in family])
    hi = np.array([float(a + n) for a, n in family])
    assert max_overlap(lo, hi) == max_overlap_sweep(list(zip(lo, hi)))


def test_hyperboloid_hyp2_two_colors(hyperboloid_seq):
    coll = build_hyp_collection(hyperboloid_seq.truncate(10), "hyp2")
    res = min_disjoint_split(coll)
    assert res.num_colors == 2
    assert coloring_is_certified(res)


def test_check_hypothesis_power_law(power1_seq):
    seq = curves.build_dyadic_slope_sequence(curves.power_law(1.0), 24)
    rep = check_hypothesis(seq, "hyp1", 12)
    assert rep.n >= 1 and rep.stable
    # lacunarity forces gaps past the top value from some index on
    gaps = np.abs(np.diff(seq.a))
    j0 = next(j for j in range(1, 20) if all(gaps[k - 1] > 1.0 for k in range(j, 20)))
    assert j0 <= 6


def test_check_hypothesis_convex_case(exp_norm_seq):
    rep = check_hypothesis(exp_norm_seq, "hyp1", 12)
    assert rep.n <= 3 and rep.stable


def test_check_hypothesis_concave_cases(hyperboloid_seq):
    mono = curves.build_dyadic_slope_sequence(curves.monomial(2.0), 24)
    rep = check_hypothesis(mono, "hyp2", 12)
    assert rep.n <= 3 and rep.stable
    seq24 = curves.build_dyadic_slope_sequence(curves.hyperboloid(), 24)
    rep = check_hypothesis(seq24, "hyp2", 12)
    assert rep.n == 2 and rep.stable


def test_check_hypothesis_needs_double_truncation(power1_seq):
    with pytest.raises(ValueError, match="2J"):
        check_hypothesis(power1_seq, "hyp1", 12)


def test_report_serialization(hyperboloid_seq):
    seq = curves.build_dyadic_slope_sequence(curves.hyperboloid(), 12)
    rep = check_hypothesis(seq, "hyp2", 6)
    d = rep.as_dict()
    assert d["hypothesis"] == "hyp2" and d["n"] == rep.n
    assert len(d["intervals"]) == 6
    assert all(set(row) == {"lo", "hi", "closure", "color"} for row in d["intervals"])


def test_convex_chained_estimate(exp_norm_seq):
    # renormalized exponential: top value 0, so |b_j| accumulates the steps
    seq = exp_norm_seq
    for j in range(1, 13):
        assert abs(seq.b_at(j)) <= 2.0 * abs(seq.a_at(j) - seq.a_at(j - 1)) + 1e-12


def test_concave_chained_estimate(hyperboloid_seq):
    cases = [
        (curves.build_dyadic_slope_sequence(curves.monomial(2.0), 14), 1.0),
        (
            curves.build_dyadic_slope_sequence(
                curves.renormalize(curves.hyperboloid(), "vanishing_limits"), 14
            ),
            1.0 / math.sqrt(3.0),
        ),
    ]
    for seq, domain_len in cases:
        tail = 2.0**-seq.J * domain_len
        for j in seq.segments():
            assert abs(seq.b_at(j)) <= 2.0 * abs(seq.a_at(j) - seq.a_at(j + 1)) + tail


@pytest.mark.parametrize("name", ["hyperboloid_seq", "power1_seq"])
def test_staircase_steps_tile_the_staircase_symbol(request, name):
    seq = request.getfixturevalue(name).truncate(8)
    sym = staircase_symbol(seq)
    xlo, xhi, ylo, yhi = sym.bbox
    # a 256-point axis per side: the step edges themselves plus a uniform
    # grid over the symbol box and a margin beyond it
    xi = np.unique(np.r_[seq.a, np.linspace(xlo - 0.5, xhi + 0.5, 256 - len(seq.a))])
    eta = np.unique(np.r_[seq.b, np.linspace(ylo - 0.5, yhi + 0.5, 256 - len(seq.b))])
    assert len(xi) == len(eta) == 256
    union = np.zeros((len(xi), len(eta)), dtype=bool)
    for A, B in staircase_steps(seq):
        union |= A.contains(xi)[:, None] & B.contains(eta)[None, :]
    assert np.array_equal(union.astype(float), sym(xi[:, None], eta[None, :]))
