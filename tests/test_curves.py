import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmlab import curves
from bmlab.curves import (
    CurveSpec,
    SequencePair,
    TruncationError,
    build_dyadic_slope_sequence,
    classify_sequence,
    renormalize,
    slope_band_check,
)

from oracles import derivative_consistency

ALL_FAMILIES = [
    curves.power_law(0.5),
    curves.power_law(1.0),
    curves.power_law(2.0),
    curves.hyperboloid(),
    curves.exponential(),
    curves.monomial(2.0),
    curves.circle_arc(),
    curves.rational(1.0),
    curves.arctan_curve(),
]


def vertex_indices(seq):
    """The vertex indices j0 .. last of a pair."""
    return range(seq.j0, seq.last_index() + 1)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_power_law_closed_form(c):
    seq = build_dyadic_slope_sequence(curves.power_law(c), 12)
    j = np.arange(13)
    exact = -((c * 2.0**j) ** (1.0 / (c + 1.0)))
    assert seq.j0 == 0
    assert np.max(np.abs(seq.a - exact)) < 1e-10
    assert np.max(np.abs(seq.b - np.abs(exact) ** (-c))) < 1e-10


def test_power_law_c1_values():
    seq = build_dyadic_slope_sequence(curves.power_law(1.0), 4)
    j = np.arange(5)
    assert np.allclose(seq.a, -(2.0 ** (j / 2)), atol=1e-12)
    assert np.allclose(seq.b, 2.0 ** (-j / 2), atol=1e-12)


def test_hyperboloid_closed_form(hyperboloid_seq):
    seq = hyperboloid_seq
    assert seq.j0 == 1
    j = np.arange(1, seq.J + 2)
    exact = 1.0 / np.sqrt(2.0 ** (2 * j) - 1.0)
    assert np.max(np.abs(seq.a - exact)) < 1e-12
    assert abs(seq.a_at(1) - 1.0 / math.sqrt(3.0)) < 1e-12


def test_segments_and_their_range_check(hyperboloid_seq, power1_seq):
    # segment j joins vertex j to vertex j + 1; one message names any other j
    for seq, j0 in ((hyperboloid_seq, 1), (power1_seq, 0)):
        last = seq.last_index()
        assert seq.j0 == j0 and seq.segments() == range(j0, last) and len(seq.segments()) == seq.J
        for j in seq.segments():
            seq.require_segment(j)
        for j in (j0 - 1, last):
            with pytest.raises(ValueError, match=rf"^segment {j} outside \[{j0}, {last}\)$"):
                seq.require_segment(j)


def test_hyperboloid_b_over_a_identity(hyperboloid_seq):
    seq = hyperboloid_seq
    js = np.array(vertex_indices(seq))
    assert np.max(np.abs(seq.b - 2.0**js * seq.a)) < 1e-12


def test_exponential_unit_differences():
    seq = build_dyadic_slope_sequence(curves.exponential(), 6)
    # closed form: a_j = -j - log2(ln 2), so consecutive gaps are exactly 1
    assert np.max(np.abs(np.diff(seq.a) + 1.0)) < 1e-10
    assert abs(seq.a[0] + math.log2(math.log(2.0))) < 1e-10


@pytest.mark.parametrize("curve", ALL_FAMILIES, ids=lambda c: c.family + str(c.c or ""))
def test_dyadic_slope_identity(curve):
    seq = build_dyadic_slope_sequence(curve, 10)
    for j in vertex_indices(seq):
        val = float(curve.dgamma(np.float64(seq.a_at(j)))) * 2.0**j
        assert abs(val - 1.0) <= 1e-10


@pytest.mark.parametrize("curve", ALL_FAMILIES, ids=lambda c: c.family + str(c.c or ""))
def test_b_matches_gamma(curve):
    seq = build_dyadic_slope_sequence(curve, 8)
    gamma_vals = np.asarray(curve.gamma(seq.a))
    rel = np.abs(seq.b - gamma_vals) / np.maximum(np.abs(gamma_vals), 1e-300)
    assert np.max(rel) < 1e-10


@pytest.mark.parametrize("curve", ALL_FAMILIES, ids=lambda c: c.family + str(c.c or ""))
def test_derivative_consistency(curve):
    seq = build_dyadic_slope_sequence(curve, 8)
    pts = 0.5 * (seq.a[:-1] + seq.a[1:])
    assert derivative_consistency(curve, pts) <= 1e-6


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_lacunarity_ratio_exact(c):
    seq = build_dyadic_slope_sequence(curves.power_law(c), 12)
    ratios = np.abs(seq.a[1:]) / np.abs(seq.a[:-1])
    assert np.max(np.abs(ratios - 2.0 ** (1.0 / (c + 1.0)))) < 1e-12


# gamma'^{-1}(t) of each family, written again for mpmath; c is the family's parameter
EXACT_SLOPE_INVERSE = {
    "power_law": lambda t, c: -((c / t) ** (1 / (c + 1))),
    "hyperboloid": lambda t, c: t / mpmath.sqrt(1 - t * t),
    "exponential": lambda t, c: mpmath.log(t / mpmath.log(2), 2),
    "monomial": lambda t, c: t ** (1 / (c - 1)),
    "circle_arc": lambda t, c: t / mpmath.sqrt(1 + t * t),
    "rational": lambda t, c: -c - mpmath.sqrt(c / t),
    "arctan": lambda t, c: -mpmath.sqrt(1 / t - 1),
}


@pytest.mark.parametrize("curve", ALL_FAMILIES, ids=lambda c: c.family + str(c.c or ""))
def test_slope_points_match_a_200_bit_inverse(curve):
    try:
        seq = build_dyadic_slope_sequence(curve, 40)
    except TruncationError as err:  # the hyperboloid and the circle arc stop near J = 26
        seq = build_dyadic_slope_sequence(curve, err.max_feasible_j)
    exact_inverse = EXACT_SLOPE_INVERSE[curve.family]
    with mpmath.workprec(200):
        for j in vertex_indices(seq):
            exact = exact_inverse(mpmath.mpf(2) ** -j, None if curve.c is None else mpmath.mpf(curve.c))
            assert abs(mpmath.mpf(seq.a_at(j)) - exact) <= 1e-14 * abs(exact), j


def test_arctan_slope_one_sits_at_positive_zero():
    # gamma' = 1 - x^2 + ... is flat at the origin, where a search of gamma' for
    # slope 1 can miss by sqrt(eps) = 7.45e-9
    a0 = build_dyadic_slope_sequence(curves.arctan_curve(), 4).a_at(0)
    assert a0 == 0.0 and math.copysign(1.0, a0) == 1.0
    ren = renormalize(curves.arctan_curve(), "unit_slope_origin")
    assert float(ren.gamma(-1.0)) == math.atan(-1.0)


def test_truncation_error_reports_feasible_j():
    # slope range [0.25, 1] only: 2^-3 is out of reach
    curve = CurveSpec("custom", gamma=lambda x: x * x / 2, dgamma=lambda x: x, slope_inverse=lambda t: t,
                      domain=(0.25, 1.0))
    with pytest.raises(TruncationError) as err:
        build_dyadic_slope_sequence(curve, 8)
    assert err.value.max_feasible_j == 2
    assert "truncation exceeds curve range" in str(err.value)


def test_classify_power_law_lacunary(power1_seq):
    cls = classify_sequence(power1_seq)
    assert "lacunary" in cls.labels and "convex" in cls.labels
    assert abs(cls.lacunary_q - math.sqrt(2.0)) < 1e-12


@given(st.floats(min_value=0.2, max_value=4.0))
@settings(max_examples=25, deadline=None)
def test_classify_power_law_lacunary_any_c(c):
    seq = build_dyadic_slope_sequence(curves.power_law(c), 6)
    assert "lacunary" in classify_sequence(seq).labels


def test_classify_arithmetic_tie():
    j = np.arange(8, dtype=float)
    seq = SequencePair(a=j + 1.0, b=2.0**j, direction="increasing")
    cls = classify_sequence(seq)
    assert set(cls.labels) >= {"convex", "concave", "arithmetic"}


def test_classify_hyperboloid_concave(hyperboloid_seq):
    cls = classify_sequence(hyperboloid_seq)
    assert "concave" in cls.labels
    assert cls.concave_failures == []


def test_classify_circle_arc_concave_reports_failures():
    seq = build_dyadic_slope_sequence(curves.circle_arc(), 12)
    cls = classify_sequence(seq)
    # failures, if any, are reported by index rather than guessed
    assert isinstance(cls.concave_failures, list)
    assert "concave" in cls.labels or cls.concave_failures


def test_classify_rejects_nonmonotone_magnitudes():
    seq = build_dyadic_slope_sequence(curves.exponential(), 6)
    # raw exponential has a_0 > 0 > a_1, so |a_j| is not monotone
    with pytest.raises(ValueError, match="classification undefined"):
        classify_sequence(seq)


def test_classify_needs_three_steps(power1_seq):
    with pytest.raises(ValueError):
        classify_sequence(power1_seq.truncate(2))


def test_slope_band_power_law(power1_seq):
    curve = curves.power_law(1.0)
    j = 3
    inf_s, sup_s, ok = slope_band_check(curve, power1_seq.a_at(j + 1), power1_seq.a_at(j))
    assert ok
    assert abs(inf_s - 2.0 ** (-j - 1)) < 1e-12
    assert sup_s <= 2.0**-j and sup_s > 2.0**-j * 0.999


def test_slope_band_two_octaves_fails(power1_seq):
    curve = curves.power_law(1.0)
    inf_s, sup_s, ok = slope_band_check(curve, power1_seq.a_at(4), power1_seq.a_at(2))
    assert not ok
    assert sup_s / inf_s > 2.0


def test_slope_band_linear_segment():
    line = CurveSpec("custom", gamma=lambda x: 0.375 * x, dgamma=lambda x: np.full(np.shape(x), 0.375),
                     slope_inverse=lambda t: math.nan, domain=(0.0, 4.0))  # no single point has slope t
    inf_s, sup_s, ok = slope_band_check(line, 1.0, 3.0)
    assert (inf_s, sup_s, ok) == (0.375, 0.375, True)


def test_slope_band_rejects_empty():
    with pytest.raises(ValueError):
        slope_band_check(curves.hyperboloid(), 0.3, 0.3)


def test_renormalize_exponential():
    ren = renormalize(curves.exponential(), "unit_slope_origin")
    assert abs(float(ren.gamma(0.0))) < 1e-9
    assert abs(float(ren.dgamma(0.0)) - 1.0) < 1e-9
    seq = build_dyadic_slope_sequence(ren, 6)
    assert np.max(np.abs(seq.a + np.arange(7))) < 1e-9
    assert abs(seq.b[0]) < 1e-9


def test_renormalize_vanishing_limits():
    ren = renormalize(curves.hyperboloid(), "vanishing_limits")
    assert ren.b_limit == 0.0
    assert abs(float(ren.gamma(1e-9)) - 0.0) < 1e-8


def test_renormalize_rejects_unattained_slope():
    with pytest.raises(ValueError, match="slope 1"):
        renormalize(curves.hyperboloid(), "unit_slope_origin")


def test_float64_depth_limit_is_a_truncation():
    # past slope 2^-26 the hyperboloid's points repeat in float64
    with pytest.raises(TruncationError, match="float64 cannot separate") as info:
        build_dyadic_slope_sequence(curves.hyperboloid(), 60)
    J = info.value.max_feasible_j
    assert J == 25
    assert build_dyadic_slope_sequence(curves.hyperboloid(), J).J == J
    with pytest.raises(TruncationError):
        build_dyadic_slope_sequence(curves.hyperboloid(), J + 1)


def test_sequence_pair_validation():
    with pytest.raises(ValueError, match="strictly decreasing"):
        SequencePair(a=np.array([1.0, 1.0, 0.5]), b=np.array([3.0, 2.0, 1.0]))
    good = SequencePair(a=np.array([2.0, 1.0, 0.5]), b=np.array([3.0, 2.0, 1.0]))
    assert good.J == 2
    assert good.a_at(1) == 1.0
    with pytest.raises(ValueError):
        good.truncate(5)


def test_sequence_pair_rejects_indices_outside_its_range():
    # storage row j - j0 must not wrap around (j = 0 with j0 = 1 read the
    # last vertex) or run past the end
    seq = SequencePair(a=np.array([-1.0, -2.0, -3.0]), b=np.array([1.0, 0.5, 0.25]), j0=1)
    assert (seq.a_at(1), seq.b_at(3)) == (-1.0, 0.25)
    for j in (0, -1, 4):
        for at in (seq.a_at, seq.b_at):
            with pytest.raises(ValueError, match=rf"index {j} outside \[1, 3\]"):
                at(j)


@given(st.floats(min_value=1.05, max_value=3.0), st.integers(min_value=4, max_value=10))
@settings(max_examples=30, deadline=None)
def test_classify_geometric_is_lacunary_and_convex(r, n):
    vals = r ** np.arange(n)
    seq = SequencePair(a=vals, b=vals + 1.0, direction="increasing")
    cls = classify_sequence(seq)
    assert "lacunary" in cls.labels
    assert abs(cls.lacunary_q - r) < 1e-9 * r
    assert "convex" in cls.labels
