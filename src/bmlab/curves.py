"""Convex curve families, dyadic-slope sequences, and sequence classifiers.

A curve here is an increasing, strictly convex C^1 function gamma on an open
(or half-open) interval, carried together with its derivative and that
derivative's closed-form inverse.  The central construction reads the points
a_j with gamma'(a_j) = 2^-j off the inverse and records b_j = gamma(a_j);
the resulting pairs of strictly decreasing sequences feed the interval
combinatorics and the symbol builders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

__all__ = [
    "CurveSpec",
    "SequencePair",
    "TruncationError",
    "power_law",
    "hyperboloid",
    "exponential",
    "monomial",
    "circle_arc",
    "rational",
    "arctan_curve",
    "renormalize",
    "build_dyadic_slope_sequence",
    "classify_sequence",
    "slope_band_check",
]

CLASSIFY_TOL = 1e-10
SLOPE_BAND_SAMPLES = 10_000  # points at which slope_band_check samples gamma'


class TruncationError(ValueError):
    """A requested dyadic slope is outside the range of gamma'."""

    def __init__(self, message, max_feasible_j):
        super().__init__(message)
        self.max_feasible_j = max_feasible_j


@dataclass(frozen=True)
class CurveSpec:
    """An evaluable convex curve with derivative and working domain.

    ``slope_inverse(t)`` is the x with gamma'(x) = t, in closed form; where no
    point of the domain has slope t it may return any x outside the domain,
    an infinity or NaN.  ``domain`` endpoints may be infinite; finite
    endpoints are treated as evaluable (the families below extend
    continuously to them).  ``a_limit``
    and ``b_limit`` record lim a_j and lim gamma at the flat end of the
    domain, when known.
    """

    family: str
    gamma: Callable[[np.ndarray], np.ndarray]
    dgamma: Callable[[np.ndarray], np.ndarray]
    slope_inverse: Callable[[float], float]
    domain: tuple[float, float]
    c: Optional[float] = None
    a_limit: Optional[float] = None
    b_limit: Optional[float] = None


def power_law(c: float) -> CurveSpec:
    """gamma(xi) = |xi|^-c on xi < 0, c > 0."""
    if c <= 0:
        raise ValueError("power_law needs c > 0")
    return CurveSpec(
        family="power_law",
        gamma=lambda x: np.abs(x) ** (-c),
        dgamma=lambda x: c * np.abs(x) ** (-c - 1.0),
        slope_inverse=lambda t: -(c ** (1.0 / (c + 1.0))) * t ** (-1.0 / (c + 1.0)),  # c / t overflows
        domain=(-math.inf, 0.0),
        c=c,
        a_limit=-math.inf,
        b_limit=0.0,
    )


def hyperboloid() -> CurveSpec:
    """gamma(xi) = sqrt(1 + xi^2), working branch (0, 1/sqrt(3)]."""
    return CurveSpec(
        family="hyperboloid",
        gamma=lambda x: np.sqrt(1.0 + x * x),
        dgamma=lambda x: x / np.sqrt(1.0 + x * x),
        slope_inverse=lambda t: t / np.sqrt(1.0 - t * t),
        domain=(0.0, 1.0 / math.sqrt(3.0)),
        a_limit=0.0,
        b_limit=1.0,
    )


def exponential() -> CurveSpec:
    """gamma(xi) = 2^xi on the real line."""
    ln2 = math.log(2.0)
    return CurveSpec(
        family="exponential",
        gamma=lambda x: np.exp2(x),
        dgamma=lambda x: ln2 * np.exp2(x),
        slope_inverse=lambda t: np.log2(t) - math.log2(ln2),  # t / ln2 rounds off bits of a subnormal t
        domain=(-math.inf, math.inf),
        a_limit=-math.inf,
        b_limit=0.0,
    )


def monomial(c: float) -> CurveSpec:
    """gamma(xi) = xi^c / c on (0, 1], c > 1."""
    if c <= 1:
        raise ValueError("monomial needs c > 1 for an increasing slope")
    return CurveSpec(
        family="monomial",
        gamma=lambda x: x**c / c,
        dgamma=lambda x: x ** (c - 1.0),
        slope_inverse=lambda t: t ** (1.0 / (c - 1.0)),
        domain=(0.0, 1.0),
        c=c,
        a_limit=0.0,
        b_limit=0.0,
    )


def circle_arc() -> CurveSpec:
    """gamma(xi) = -sqrt(1 - xi^2) on (0, 1/sqrt(2)]."""
    return CurveSpec(
        family="circle_arc",
        gamma=lambda x: -np.sqrt(1.0 - x * x),
        dgamma=lambda x: x / np.sqrt(1.0 - x * x),
        slope_inverse=lambda t: t / np.sqrt(1.0 + t * t),
        domain=(0.0, 1.0 / math.sqrt(2.0)),
        a_limit=0.0,
        b_limit=-1.0,
    )


def rational(c: float) -> CurveSpec:
    """gamma(xi) = xi / (xi + c) on (-inf, -c), c > 0."""
    if c <= 0:
        raise ValueError("rational needs c > 0")
    return CurveSpec(
        family="rational",
        gamma=lambda x: x / (x + c),
        dgamma=lambda x: c / (x + c) ** 2,
        slope_inverse=lambda t: -c - np.sqrt(c / t),
        domain=(-math.inf, -c),
        c=c,
        a_limit=-math.inf,
        b_limit=1.0,
    )


def arctan_curve() -> CurveSpec:
    """gamma(xi) = arctan(xi) on (-inf, 0]."""
    return CurveSpec(
        family="arctan",
        gamma=np.arctan,
        dgamma=lambda x: 1.0 / (1.0 + x * x),
        slope_inverse=lambda t: 0.0 - np.sqrt(1.0 / t - 1.0),  # +0.0, not -0.0, at t = 1
        domain=(-math.inf, 0.0),
        a_limit=-math.inf,
        b_limit=-math.pi / 2.0,
    )


def renormalize(curve: CurveSpec, mode: str = "unit_slope_origin") -> CurveSpec:
    """Shift a curve into one of the two standard positions.

    ``unit_slope_origin``: translate so that the point with gamma' = 1 sits at
    the origin with value 0.  ``vanishing_limits``: translate so that the flat
    end of the domain sits at 0 with limit value 0.  Pure translations; slopes
    are unchanged.
    """
    if mode == "unit_slope_origin":
        dx = _slope_point(curve, 1.0)
        if dx is None:
            raise ValueError("slope 1 is not attained on the curve domain")
        dy = float(curve.gamma(dx))
    elif mode == "vanishing_limits":
        limits = (curve.a_limit, curve.b_limit)
        if any(v is None or not math.isfinite(v) for v in limits):
            raise ValueError("vanishing_limits needs finite sequence and value limits")
        dx, dy = limits
    else:
        raise ValueError(f"unknown renormalization mode: {mode}")

    base_g, base_d, base_s = curve.gamma, curve.dgamma, curve.slope_inverse
    lo, hi = curve.domain
    return CurveSpec(
        family=curve.family + "_shifted",
        gamma=lambda x, g=base_g, dx=dx, dy=dy: g(np.asarray(x, dtype=float) + dx) - dy,
        dgamma=lambda x, d=base_d, dx=dx: d(np.asarray(x, dtype=float) + dx),
        slope_inverse=lambda t, s=base_s, dx=dx: s(t) - dx,
        domain=(lo - dx, hi - dx),
        c=curve.c,
        a_limit=None if curve.a_limit is None else curve.a_limit - dx,
        b_limit=None if curve.b_limit is None else curve.b_limit - dy,
    )


# --- sequences ----------------------------------------------------------------


@dataclass(frozen=True)
class SequencePair:
    """Truncated sequence pair (a_j, b_j), j = j0 .. j0 + J.

    ``a`` and ``b`` are parallel arrays; entry k stores index j = j0 + k.
    Most families start at j0 = 0; families whose slope range excludes 1
    (the hyperboloid branch) start at j0 = 1.
    """

    a: np.ndarray
    b: np.ndarray
    direction: str = "decreasing"
    j0: int = 0
    a_inf: Optional[float] = None
    b_inf: Optional[float] = None

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
            raise ValueError("a and b must be parallel 1-d arrays, length >= 2")
        da, db = np.diff(a), np.diff(b)
        if self.direction == "decreasing":
            ok = np.all(da < 0) and np.all(db < 0)
        elif self.direction == "increasing":
            ok = np.all(da > 0) and np.all(db > 0)
        else:
            raise ValueError("direction must be 'decreasing' or 'increasing'")
        if not ok:
            raise ValueError(f"sequences are not strictly {self.direction}")

    @property
    def J(self) -> int:
        return len(self.a) - 1

    def _row(self, j: int) -> int:
        """The storage row of index j, which must lie in [j0, last_index()]."""
        k = j - self.j0
        if not 0 <= k < len(self.a):
            raise ValueError(f"index {j} outside [{self.j0}, {self.last_index()}]")
        return k

    def a_at(self, j: int) -> float:
        return float(self.a[self._row(j)])

    def b_at(self, j: int) -> float:
        return float(self.b[self._row(j)])

    def last_index(self) -> int:
        return self.j0 + self.J

    def segments(self) -> range:
        """The indices j0 .. last - 1 of the segments; segment j joins vertex
        (a_j, b_j) to vertex (a_{j+1}, b_{j+1})."""
        return range(self.j0, self.last_index())

    def require_segment(self, j: int) -> None:
        """Raise ValueError unless j indexes a segment."""
        if j not in self.segments():
            raise ValueError(f"segment {j} outside [{self.j0}, {self.last_index()})")

    def truncate(self, J: int) -> "SequencePair":
        if J < 1 or J > self.J:
            raise ValueError(f"cannot truncate to J={J} (have J={self.J})")
        return replace(self, a=self.a[: J + 1], b=self.b[: J + 1])


def _slope_point(curve: CurveSpec, t: float) -> Optional[float]:
    """The x with gamma'(x) = t, or None when no point of the domain (finite
    ends included) has slope t."""
    with np.errstate(all="ignore"):  # an unattained slope may divide by zero or leave the reals
        x = float(curve.slope_inverse(np.float64(t)))
    lo, hi = curve.domain
    return x if math.isfinite(x) and lo <= x <= hi else None


def build_dyadic_slope_sequence(curve: CurveSpec, J: int) -> SequencePair:
    """Read a_j off gamma'(a_j) = 2^-j for J+1 consecutive indices and set b_j = gamma(a_j).

    Indices start at 0 when slope 1 is attained, otherwise at 1; a missing
    slope deeper in the range, or a point float64 cannot separate from the
    one before, raises :class:`TruncationError` carrying the largest
    feasible J.  Points are made one at a time, so a J far past that limit
    costs no more than the limit itself.
    """
    if J < 1:
        raise ValueError("J must be positive")
    j0, x = 0, _slope_point(curve, 1.0)
    if x is None:
        j0, x = 1, _slope_point(curve, 0.5)
        if x is None:
            raise TruncationError("truncation exceeds curve range (no feasible start)", 0)
    a, b = [x], [float(curve.gamma(np.float64(x)))]
    for j in range(j0 + 1, j0 + J + 1):
        x, feasible = _slope_point(curve, 2.0**-j), j - 1 - j0
        if x is None:
            raise TruncationError(f"truncation exceeds curve range at j={j}; largest feasible J is {feasible}",
                                  feasible)
        y = float(curve.gamma(np.float64(x)))
        if not (x < a[-1] and y < b[-1]):  # deep slopes landed on float64-equal points: a resolution limit
            raise TruncationError(f"float64 cannot separate the points of slopes 2^-{j - 1} and 2^-{j}; "
                                  f"largest feasible J is {feasible}", feasible)
        a.append(x)
        b.append(y)
    return SequencePair(a=np.array(a), b=np.array(b), j0=j0, a_inf=curve.a_limit, b_inf=curve.b_limit)


# --- classification -----------------------------------------------------------


@dataclass
class Classification:
    labels: list[str]
    lacunary_q: Optional[float] = None
    min_diff_ratio: Optional[float] = None
    max_diff_ratio: Optional[float] = None
    convex_failures: list[int] = field(default_factory=list)
    concave_failures: list[int] = field(default_factory=list)


def classify_sequence(seq: SequencePair) -> Classification:
    """Label |a_j| as convex / concave / lacunary(q) / arithmetic, with witnesses.

    Convexity and concavity compare consecutive difference magnitudes of
    |a_j|; equality within ``CLASSIFY_TOL`` counts for both (hence "arithmetic").
    Lacunarity requires |a_j| increasing with min ratio q > 1.  Failing
    indices are reported rather than guessed around.
    """
    if seq.J < 3:
        raise ValueError("classification needs J >= 3")
    alpha = np.abs(seq.a)
    d = np.diff(alpha)
    if not (np.all(d > 0) or np.all(d < 0)):
        raise ValueError("classification undefined: |a_j| is not strictly monotone")
    dd = np.abs(d)
    scale = np.maximum(dd[1:], dd[:-1])
    grow = dd[1:] - dd[:-1]  # entry k compares steps into index k+1 vs k
    convex_fail = [seq.j0 + 1 + k for k in range(len(grow)) if grow[k] < -CLASSIFY_TOL * scale[k]]
    concave_fail = [seq.j0 + 1 + k for k in range(len(grow)) if grow[k] > CLASSIFY_TOL * scale[k]]
    labels = []
    if not convex_fail:
        labels.append("convex")
    if not concave_fail:
        labels.append("concave")
    if not convex_fail and not concave_fail:
        labels.append("arithmetic")
    q = None
    if np.all(d > 0):
        with np.errstate(divide="ignore"):
            ratios = np.where(alpha[:-1] > 0, alpha[1:] / alpha[:-1], np.inf)
        q = float(np.min(ratios))
        if q > 1.0 + CLASSIFY_TOL:
            labels.append("lacunary")
    if not labels:
        labels.append("none")
    with np.errstate(divide="ignore", invalid="ignore"):
        dr = dd[1:] / dd[:-1]
    dr = dr[np.isfinite(dr)]
    return Classification(
        labels=labels,
        lacunary_q=q,
        min_diff_ratio=float(np.min(dr)) if len(dr) else None,
        max_diff_ratio=float(np.max(dr)) if len(dr) else None,
        convex_failures=convex_fail,
        concave_failures=concave_fail,
    )


def slope_band_check(curve: CurveSpec, lo: float, hi: float):
    """Sampled inf/sup of gamma' on [lo, hi) and the within-one-octave flag."""
    if not lo < hi:
        raise ValueError("empty interval")
    dlo, dhi = curve.domain
    if lo < dlo or hi > dhi + 1e-15:
        raise ValueError("interval leaves the curve domain")
    xs = lo + (hi - lo) * np.arange(SLOPE_BAND_SAMPLES) / SLOPE_BAND_SAMPLES
    vals = np.asarray(curve.dgamma(xs), dtype=float)
    inf_slope = float(np.min(vals))
    sup_slope = float(np.max(vals))
    band_ok = bool(inf_slope > 0.0 and sup_slope <= 2.0 * inf_slope)
    return inf_slope, sup_slope, band_ok
