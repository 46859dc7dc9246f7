"""Minkowski-sum interval collections and their disjoint splittings.

The frequency side of a bilinear form with inputs supported on intervals A
and B lives on -A-B = {-a-b}.  For staircase symbols these sums form a
one-parameter family of half-open intervals; the combinatorial question is
how many pairwise-disjoint subfamilies are needed to cover the family.  A
greedy interval-graph coloring answers it exactly (colors used = maximum
point overlap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import SequencePair

__all__ = [
    "HalfOpenInterval",
    "ColoringResult",
    "HypothesisReport",
    "neg_minkowski_sum",
    "staircase_steps",
    "build_hyp_collection",
    "min_disjoint_split",
    "max_overlap",
    "check_hypothesis",
]

LACUNARY_Q_MIN = 1.01  # least midpoint ratio within a color that the lacunary flag accepts


@dataclass(frozen=True)
class HalfOpenInterval:
    """Interval [lo, hi) or (lo, hi]; ``closure`` is 'right_open' or 'left_open'."""

    lo: float
    hi: float
    closure: str = "right_open"

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.closure not in ("right_open", "left_open"):
            raise ValueError("closure must be 'right_open' ([lo,hi)) or 'left_open' ((lo,hi])")

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.closure == "right_open":
            return (x >= self.lo) & (x < self.hi)
        return (x > self.lo) & (x <= self.hi)

    def overlaps(self, other: "HalfOpenInterval") -> bool:
        """True if the two intervals share a point; touching endpoints only
        count when both sides include the shared endpoint."""
        if self.hi < other.lo or other.hi < self.lo:
            return False
        if self.hi == other.lo:
            return self.closure == "left_open" and other.closure == "right_open"
        if other.hi == self.lo:
            return other.closure == "left_open" and self.closure == "right_open"
        return True

    def as_dict(self):
        bracket = "[lo,hi)" if self.closure == "right_open" else "(lo,hi]"
        return {"lo": self.lo, "hi": self.hi, "closure": bracket}


def neg_minkowski_sum(A: HalfOpenInterval, B: HalfOpenInterval) -> HalfOpenInterval:
    """The interval {-a-b : a in A, b in B} with tracked closure.

    -[a,b) - [c,d) = (-b-d, -a-c] and -(a,b] - (c,d] = [-b-d, -a-c) exactly.
    Mixed closures produce a fully open set; it is reported right-closed,
    a superset by one endpoint, which keeps disjointness checks conservative.
    """
    lo = -A.hi - B.hi
    hi = -A.lo - B.lo
    if A.closure == "right_open" and B.closure == "right_open":
        closure = "left_open"
    elif A.closure == "left_open" and B.closure == "left_open":
        closure = "right_open"
    else:
        closure = "left_open"
    return HalfOpenInterval(lo=lo, hi=hi, closure=closure)


def staircase_steps(seq: SequencePair, which: str = "hyp1") -> list[tuple[HalfOpenInterval, HalfOpenInterval]]:
    """The steps (A_j, B_j) of a sequence pair's interval family.

    For decreasing pairs, ``hyp1`` pairs the step [a_{j+1}, a_j) with the
    column [b_j, b_0) over the segments j but the first (which pairs with the
    empty column [b_0, b_0)), and ``hyp2`` pairs it with (b_inf, b_j) over
    every segment, represented here as [b_inf, b_j) so that the two-closure
    algebra stays exact (a superset by one endpoint, conservative for
    disjointness).  For increasing pairs ``hyp1`` builds the nested steps
    ((u_0, u_j], [v_j, v_{j+1})) over the segments but the first.
    """
    if which not in ("hyp1", "hyp2"):
        raise ValueError("which must be 'hyp1' or 'hyp2'")
    js = seq.segments()
    if seq.direction == "increasing":
        if which != "hyp1":
            raise ValueError("increasing pairs support only the hyp1-style family")
        u0 = seq.a_at(seq.j0)
        return [(HalfOpenInterval(u0, seq.a_at(j), closure="left_open"),
                 HalfOpenInterval(seq.b_at(j), seq.b_at(j + 1))) for j in js[1:]]
    if which == "hyp1":
        b0 = seq.b_at(seq.j0)
        return [(HalfOpenInterval(seq.a_at(j + 1), seq.a_at(j)), HalfOpenInterval(seq.b_at(j), b0))
                for j in js[1:]]
    if seq.b_inf is None or not math.isfinite(seq.b_inf):
        raise ValueError("limit required: hyp2 needs a finite b_inf")
    return [(HalfOpenInterval(seq.a_at(j + 1), seq.a_at(j)), HalfOpenInterval(seq.b_inf, seq.b_at(j)))
            for j in js]


def build_hyp_collection(seq: SequencePair, which: str) -> tuple[HalfOpenInterval, ...]:
    """The negated Minkowski sums -A_j - B_j of ``staircase_steps(seq, which)``.
    Item k is segment j = j0 + 1 + k of a ``hyp1`` family and j = j0 + k of
    ``hyp2``."""
    return tuple(neg_minkowski_sum(A, B) for A, B in staircase_steps(seq, which))


@dataclass
class ColoringResult:
    num_colors: int
    assignment: list[int]
    certificate: dict[int, list[HalfOpenInterval]]


def max_overlap(lo, hi) -> int:
    """Most of the closed intervals [lo[i], hi[i]] sharing a point (the clique
    number); 0 for none.  At each left end, the left ends <= it minus the
    right ends < it count the intervals.
    """
    lo, hi = np.sort(lo), np.sort(hi)
    return int(np.max(np.searchsorted(lo, lo, side="right") - np.searchsorted(hi, lo, side="left"),
                      initial=0))


def min_disjoint_split(coll: Sequence[HalfOpenInterval]) -> ColoringResult:
    """Greedy interval-graph coloring: optimal color count for intervals.

    Sort by lo (ties by hi), give each interval the smallest color whose
    most recent interval does not overlap it.  Touching half-open endpoints
    never overlap.
    """
    ivs = list(coll)
    if not ivs:
        raise ValueError("nonempty collection required")
    order = sorted(range(len(ivs)), key=lambda k: (ivs[k].lo, ivs[k].hi))
    last_in_color: list[HalfOpenInterval] = []
    assignment = [-1] * len(ivs)
    for k in order:
        iv = ivs[k]
        for color, tail in enumerate(last_in_color):
            if not tail.overlaps(iv):
                last_in_color[color] = iv
                assignment[k] = color
                break
        else:
            assignment[k] = len(last_in_color)
            last_in_color.append(iv)
    certificate: dict[int, list[HalfOpenInterval]] = {}
    for k, color in enumerate(assignment):
        certificate.setdefault(color, []).append(ivs[k])
    return ColoringResult(
        num_colors=len(last_in_color), assignment=assignment, certificate=certificate
    )


@dataclass
class HypothesisReport:
    hypothesis: str
    J: int
    n: int
    n_doubled: int  # colors at truncation 2J
    per_color_lacunary: list[bool]
    coloring: ColoringResult
    intervals: tuple[HalfOpenInterval, ...]

    @property
    def stable(self) -> bool:
        return self.n_doubled == self.n

    def as_dict(self):
        rows = []
        for iv, color in zip(self.intervals, self.coloring.assignment):
            row = iv.as_dict()
            row["color"] = color
            rows.append(row)
        return {
            "hypothesis": self.hypothesis,
            "J": self.J,
            "n": self.n,
            "stable": self.stable,
            "per_color_lacunary": self.per_color_lacunary,
            "intervals": rows,
        }


def _lacunary_flag(group: list[HalfOpenInterval]) -> bool:
    """Heuristic: midpoint magnitudes grow geometrically within the class.

    Reported, not certified; a square-function measurement of a family lives
    in ``tests/oracles.py`` (``square_function_ratio``).
    """
    mids = sorted(abs(0.5 * (iv.lo + iv.hi)) for iv in group)
    return all(a == 0 or b / a >= LACUNARY_Q_MIN for a, b in zip(mids, mids[1:]))


def check_hypothesis(seq: SequencePair, which: str, J: int) -> HypothesisReport:
    """Color the family at truncation J and re-check at 2J for stability.

    ``seq`` must carry at least 2J steps; build it at the doubled truncation.
    """
    if J < 2:
        raise ValueError("J must be at least 2")
    if seq.J < 2 * J:
        raise ValueError(f"stability check at 2J={2 * J} needs a pair built with J >= {2 * J}")
    coll = build_hyp_collection(seq.truncate(J), which)
    coloring = min_disjoint_split(coll)
    coll2 = build_hyp_collection(seq.truncate(2 * J), which)
    coloring2 = min_disjoint_split(coll2)
    flags = [_lacunary_flag(coloring.certificate[color]) for color in range(coloring.num_colors)]
    return HypothesisReport(
        hypothesis=which,
        J=J,
        n=coloring.num_colors,
        n_doubled=coloring2.num_colors,
        per_color_lacunary=flags,
        coloring=coloring,
        intervals=coll,
    )
