"""Integer and fractional ranks with configurable tie handling.

A rank interpolates between "1 + number of strict predecessors" (omega=0,
the smallest rank shared by a tie group) and "number of weak predecessors"
(omega=1, the largest). Direction selects whether larger or smaller values
get better (smaller) ranks. Ranking one vector against a separate
reference vector is supported for prediction-style use.

Self-ranks come from the vector's tie runs, built once from its sorted
values: a run's start and end are the strict and weak predecessor counts
of its members, and the same runs serve the rank-regression indicator
products. The `*_against` functions binary-search each query in the
sorted reference instead, since queries need not be reference values.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

import numpy as np

from .errors import NonFinite
from .numerics import FloatArray

Direction = Literal["increasing", "decreasing"]


@dataclass(frozen=True)
class TieRule:
    """Tie handling (omega in [0, 1]) plus comparison direction.

    omega=0 gives every member of a tie group the smallest rank, omega=1
    the largest, omega=0.5 the mid-rank. "increasing" means larger values
    get larger ranks; "decreasing" means the largest value is ranked 1.
    """

    omega: float
    direction: Direction

    def __post_init__(self):
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError("omega must lie in [0, 1]")
        if self.direction not in ("increasing", "decreasing"):
            raise ValueError("direction must be 'increasing' or 'decreasing'")


@dataclass(frozen=True, eq=False)
class RankVector:
    """Ranks for a vector of values.

    kind "integer" means ranks on the 1..p scale (half-integers appear
    for omega=0.5 ties); "fractional" means the integer ranks divided by
    the reference length, lying in (0, 1] for in-support queries.
    """

    values: FloatArray
    kind: Literal["integer", "fractional"]

    def __len__(self) -> int:
        return self.values.size

    def __iter__(self) -> Iterator[float]:
        return iter(self.values.tolist())


def _as_finite_vector(x: Sequence[float] | np.ndarray, what: str) -> FloatArray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be 1-D")
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"{what} contains NaN or infinite values")
    return arr


def _blend(below: np.ndarray, at_or_below: np.ndarray, n: int, rule: TieRule) -> FloatArray:
    """omega-blend of weak/strict predecessor counts, given each value's
    count of reference values strictly below it and at or below it."""
    w = rule.omega
    if rule.direction == "increasing":
        weak, strict = at_or_below, below
    else:
        weak, strict = n - below, n - at_or_below
    return w * weak + (1.0 - w) * strict + (1.0 - w)


def _counts_against(x: FloatArray, reference: FloatArray, rule: TieRule) -> FloatArray:
    """omega-blend of weak/strict predecessor counts of x within reference.

    Both searches run on the sorted queries, where each binary search
    starts near the last one's result and stays in cache, and the counts
    are scattered back to query order."""
    ordered = np.sort(reference)
    order = np.argsort(x)
    queries = x[order]
    left = np.empty(x.size, dtype=np.intp)
    right = np.empty(x.size, dtype=np.intp)
    left[order] = np.searchsorted(ordered, queries, side="left")
    right[order] = np.searchsorted(ordered, queries, side="right")
    return _blend(left, right, reference.size, rule)


# Largest distinct-value count for which the tie codes come from binary
# search into the sorted distinct values. That table then stays within
# 1 MiB, so the search costs the same per element at any n and the build
# scales linearly in n; beyond it one argsort scatter is cheaper.
_SEARCH_TABLE_MAX = 1 << 17


@dataclass(frozen=True, eq=False)
class _TieRuns:
    """Tie runs of a finite 1-D vector, built from its sorted values.

    code[i] is the position of x[i] among the m sorted distinct values.
    Run r covers sorted positions starts[r] .. ends[r] - 1, so starts[r]
    elements lie strictly below that value and ends[r] at or below it.
    """

    code: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    n: int
    m: int

    @classmethod
    def of(cls, x: FloatArray) -> "_TieRuns":
        n = x.size
        sorted_x = np.sort(x)
        # edge[k] marks a run starting at sorted position k; edge[n] closes
        # the last run
        edge = np.ones(n + 1, dtype=bool)
        np.not_equal(sorted_x[1:], sorted_x[:-1], out=edge[1:n])
        bounds = np.flatnonzero(edge)
        starts = bounds[:-1]
        if starts.size <= _SEARCH_TABLE_MAX:
            code = np.searchsorted(sorted_x[starts], x)
        else:
            run_id = np.cumsum(edge[:n])
            run_id -= 1
            code = np.empty(n, dtype=np.intp)
            code[np.argsort(x)] = run_id
        return cls(code=code, starts=starts, ends=bounds[1:], n=n, m=starts.size)

    def run_ranks(self, rule: TieRule) -> FloatArray:
        """Integer-scale rank shared by the members of each run."""
        return _blend(self.starts, self.ends, self.n, rule)

    def ranks(self, rule: TieRule) -> FloatArray:
        """Integer-scale ranks of the vector within itself: each run's
        rank read out by tie code, the bits a blend per element gives."""
        return self.run_ranks(rule).take(self.code)


def irank_against(x, reference, rule: TieRule) -> RankVector:
    """Integer-scale ranks of x computed against a reference vector."""
    xv = _as_finite_vector(x, "values")
    ref = _as_finite_vector(reference, "reference")
    if ref.size == 0:
        raise ValueError("reference must be nonempty")
    return RankVector(values=_counts_against(xv, ref, rule), kind="integer")


def irank(theta, rule: TieRule) -> RankVector:
    """Integer-scale ranks of theta within itself."""
    tv = _as_finite_vector(theta, "values")
    if tv.size == 0:
        raise ValueError("values must be nonempty")
    return RankVector(values=_TieRuns.of(tv).ranks(rule), kind="integer")


def frank(theta, rule: TieRule) -> RankVector:
    """Fractional ranks: irank divided by the vector length, exactly."""
    integer = irank(theta, rule)
    return RankVector(values=integer.values / integer.values.size, kind="fractional")


def frank_against(x, reference, rule: TieRule) -> RankVector:
    """Fractional ranks of x against a reference vector.

    Out-of-support queries return the formula value verbatim: above the
    reference support the result exceeds 1, below it the result can
    reach 0 (omega=1) or (1-omega)/n.
    """
    integer = irank_against(x, reference, rule)
    n = np.asarray(reference).size
    return RankVector(values=integer.values / n, kind="fractional")
