"""Exact finite-sample confidence sets for ranks of multinomial
category probabilities.

Each ordered pair (k, l) gets a conditional binomial p-value for the
hypothesis that category k's probability is at most category l's; the
pairwise p-values are combined with a Holm or Bonferroni correction and
the surviving rejections translate into rank bounds. Coverage holds for
every sample size, no asymptotics involved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import DomainError, InsufficientCategories
from .numerics import FloatArray, log_binom_tail
from .rankcs import RankConfidenceSet, _labels_subset, _normalize_indices
from .ranking import TieRule, irank

Method = Literal["holm", "bonferroni"]
Mode = Literal["marginal", "simultaneous"]

# Largest pair total for which the tail probability is evaluated as one
# exact big-integer ratio; the direct form only overflows far beyond
# this, where the log-space path takes over.
_EXACT_S_MAX = 1000


@dataclass(frozen=True, eq=False)
class MultinomialCounts:
    """Observed category counts with optional labels."""

    counts: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 1:
            raise ValueError("counts must be 1-D")
        if counts.size < 2:
            raise InsufficientCategories("need at least two categories to rank")
        if not np.issubdtype(counts.dtype, np.integer):
            as_int = counts.astype(np.int64)
            if not np.array_equal(as_int, counts):
                raise ValueError("counts must be integers")
            counts = as_int
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        if int(counts.sum()) < 1:
            raise DomainError("all counts are zero")
        object.__setattr__(self, "counts", counts.astype(np.int64))
        if self.labels is not None:
            labels = tuple(str(lbl) for lbl in self.labels)
            if len(labels) != counts.size:
                raise ValueError("labels length must match counts")
            object.__setattr__(self, "labels", labels)

    @property
    def p(self) -> int:
        return self.counts.size

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _tail_pvalue(xk: int, s: int) -> float:
    if s == 0:
        return 1.0
    if s <= _EXACT_S_MAX:
        # Correctly rounded big-integer ratio: exact for the closed forms.
        return sum(math.comb(s, i) for i in range(xk, s + 1)) / (1 << s)
    return math.exp(log_binom_tail(xk, s))


def pairwise_pvalue(xk: int, xl: int) -> float:
    """P-value for "category k's probability <= category l's": the
    probability that a Binomial(xk + xl, 1/2) is at least xk."""
    xk = int(xk)
    xl = int(xl)
    if xk < 0 or xl < 0:
        raise ValueError("counts must be nonnegative")
    return _tail_pvalue(xk, xk + xl)


@dataclass(frozen=True, eq=False)
class PairwisePValueTable:
    """p x p table of pairwise p-values; entry (k, l) tests whether
    category k's probability is at most category l's. Diagonal fixed
    at 1 (never rejected)."""

    values: FloatArray

    @classmethod
    def from_counts(cls, data: MultinomialCounts) -> "PairwisePValueTable":
        p = data.p
        table = np.ones((p, p))
        counts = data.counts.tolist()
        # pairs with equal (x_k, x_k + x_l) share a p-value; the memo
        # lives only as long as this table is being built
        memo: dict[tuple[int, int], float] = {}
        for k in range(p):
            xk = counts[k]
            for l in range(p):
                if k != l:
                    key = (xk, xk + counts[l])
                    if key not in memo:
                        memo[key] = pairwise_pvalue(xk, counts[l])
                    table[k, l] = memo[key]
        return cls(values=table)


def adjust_pvalues(pvals: Sequence[float] | np.ndarray, method: Method) -> FloatArray:
    """Multiplicity-adjusted p-values for a family of size M.

    bonferroni: min(1, M * p). holm: step-down; sort ascending (ties by
    original position), multiply by M, M-1, ..., enforce monotonicity via
    a running max, cap at 1.
    """
    p = np.asarray(pvals, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("pvals must be 1-D")
    if p.size == 0:
        return p.copy()
    if np.any(p < 0.0) or np.any(p > 1.0) or not np.all(np.isfinite(p)):
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    if method == "bonferroni":
        return np.minimum(1.0, m * p)
    if method == "holm":
        order = np.argsort(p, kind="stable")
        multipliers = m - np.arange(m, dtype=np.float64)
        adjusted_sorted = np.minimum(1.0, np.maximum.accumulate(multipliers * p[order]))
        out = np.empty(m)
        out[order] = adjusted_sorted
        return out
    raise ValueError("method must be 'holm' or 'bonferroni'")


def _bounds_from_rejections(reject: np.ndarray, j: int) -> tuple[int, int]:
    """reject[k, l] True means "category k's probability exceeds l's"
    was claimed. Categories that beat j push j's lower rank bound up;
    categories j beats pull the upper bound down."""
    p = reject.shape[0]
    mask = np.arange(p) != j
    beaten_by = int(np.count_nonzero(reject[:, j] & mask))
    beats = int(np.count_nonzero(reject[j, :] & mask))
    return beaten_by + 1, p - beats


def cs_ranks_multinomial(data: MultinomialCounts, coverage: float = 0.95,
                         mode: Mode = "marginal", method: Method = "holm",
                         indices: Sequence[int] | None = None) -> RankConfidenceSet:
    """Finite-sample confidence sets for the ranks of category
    probabilities (largest probability has rank 1).

    marginal mode corrects, for each requested category j, over the
    2(p-1) hypotheses involving j; simultaneous mode corrects over all
    p(p-1) ordered pairs at once, giving joint coverage.
    """
    if not 0.0 < coverage < 1.0:
        raise ValueError("coverage must lie strictly between 0 and 1")
    if mode not in ("marginal", "simultaneous"):
        raise ValueError("mode must be 'marginal' or 'simultaneous'")
    alpha = 1.0 - coverage
    p = data.p
    wanted = _normalize_indices(indices, p)
    table = PairwisePValueTable.from_counts(data).values

    lower = np.empty(len(wanted), dtype=np.int64)
    upper = np.empty(len(wanted), dtype=np.int64)
    if mode == "simultaneous":
        pairs = [(k, l) for k in range(p) for l in range(p) if k != l]
        raw = np.array([table[k, l] for k, l in pairs])
        adjusted = adjust_pvalues(raw, method)
        reject = np.zeros((p, p), dtype=bool)
        for (k, l), adj in zip(pairs, adjusted):
            reject[k, l] = adj <= alpha
        for pos, j in enumerate(wanted):
            lower[pos], upper[pos] = _bounds_from_rejections(reject, j)
    else:
        for pos, j in enumerate(wanted):
            others = [k for k in range(p) if k != j]
            family = [(k, j) for k in others] + [(j, k) for k in others]
            raw = np.array([table[k, l] for k, l in family])
            adjusted = adjust_pvalues(raw, method)
            reject = np.zeros((p, p), dtype=bool)
            for (k, l), adj in zip(family, adjusted):
                reject[k, l] = adj <= alpha
            lower[pos], upper[pos] = _bounds_from_rejections(reject, j)

    ranks = irank(data.counts.astype(np.float64),
                  TieRule(omega=0.0, direction="decreasing")).values
    return RankConfidenceSet(
        indices=wanted,
        lower=lower,
        rank=ranks[list(wanted)],
        upper=upper,
        p=p,
        mode=mode,
        coverage=coverage,
        sidedness="two-sided",
        labels=_labels_subset(data.labels, wanted),
    )
