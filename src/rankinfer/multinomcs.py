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
from .numerics import FloatArray, binom_tail
from .rankcs import REPORT_RULE, RankConfidenceSet, _labels_subset, _normalize_indices
from .ranking import irank

Method = Literal["holm", "bonferroni"]
Mode = Literal["marginal", "simultaneous"]

# Largest total count: up to here every pair total and count is an
# exact float64, as the tail kernel's arguments must be.
MAX_TOTAL = 1 << 53
# Most categories a set is built for: with every count distinct, its
# simultaneous family then holds 2**26 p-values, 512 MiB of doubles.
MAX_CATEGORIES = 1 << 13
# Families with an adjusted p-value this close to alpha, relative to
# alpha, are decided again in exact rational arithmetic; the float
# kernel's relative error measured at most 3.2e-14 for s up to 1e9 and
# 1.7e-13 for s in [2^52, 2^53] (see numerics.binom_tail).
_SETTLE_RTOL = 1e-12
# Most cells of the distinct-count grid one kernel call scans when the
# table is pruned (from_counts with alpha < 1/2).
_BLOCK_CELLS = 1 << 16
# Relative margin by which a pair's Hoeffding exponent must pass its
# cutoff before the pair is screened from the tail kernel (see _screened).
_SCREEN_RTOL = 1e-9


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
            if np.any(counts > MAX_TOTAL):
                raise DomainError(f"counts exceed 2**53 = {MAX_TOTAL}")
            as_int = counts.astype(np.int64)
            if not np.array_equal(as_int, counts):
                raise ValueError("counts must be integers")
            counts = as_int
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        total = sum(counts.tolist())
        if total < 1:
            raise DomainError("all counts are zero")
        if total > MAX_TOTAL:
            raise DomainError(f"total count {total} exceeds 2**53 = {MAX_TOTAL}")
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


@dataclass(frozen=True, eq=False)
class PairwisePValueTable:
    """Pairwise p-values over the u ascending distinct `counts`: entry
    (a, b) of the u x u `values` tests whether a category holding
    counts[a] has a probability at most that of one holding counts[b]."""

    values: FloatArray
    counts: np.ndarray

    @classmethod
    def from_counts(cls, data: MultinomialCounts, alpha: float,
                    family: int) -> "PairwisePValueTable":
        """The grid of `data`'s distinct counts, for sets at level alpha
        whose Holm or Bonferroni families have size m = `family`
        (2(p - 1) marginal, p(p - 1) simultaneous).

        At alpha >= 1/2 the kernel runs on all u x u pairs of the u
        distinct counts. Below 1/2 it runs only on the u(u - 1)/2 pairs
        with x_k > x_l, in blocks of rows, and every other cell holds 1.
        No decision at that level changes, for three reasons:

        - The median of Binomial(s, 1/2) is s/2, so x_k > s/2 gives an
          exact p-value of at most 1/2, and x_k <= s/2 one above 1/2 by
          at least P(X = floor(s/2)) / 2 > 4e-9 for s <= 2**53.
        - The kernel's relative error is at most 1.7e-13, far inside
          that margin, so in the full float grid every pruned cell lies
          above 1/2 + 4e-9 and every computed cell below 1/2 + 1e-13.
        - Bonferroni multiplies a pruned cell by m >= 1, so both its old
          value and 1 exceed alpha. Holm's ascending order puts every
          pruned cell after all computed cells, in both grids, so no
          computed cell's position or running max changes; a pruned
          cell's adjusted value is at least its p-value, again above
          alpha. Neither grid puts a pruned cell within the 1e-12
          settle band of alpha, and a family settled for another cell
          decides its pruned pairs exactly, as not rejected (see
          _exact_rejections).

        Below 1/2, too, a pair with x_k > x_l whose Hoeffding bound
        certifies p <= alpha / (2m) holds 0.0 and skips the kernel (see
        _screened). Against the pruned grid T, the screened grid T'
        keeps every decision. Call a cell small when T holds less than
        c = alpha / (2m) there, large otherwise:

        - A screened pair's exact p-value is at most c e^(-1.3e-9), so,
          at a relative error of at most 1.7e-13, T holds less than c
          there: screened cells are small in T and 0 in T'. Every other
          cell holds the same value in both grids.
        - A small value v times any multiplier up to m is at most alpha/2
          once rounded, since m v < alpha/2 and alpha/2 is a float.
        - Bonferroni: a screened cell's adjusted value is at most alpha/2
          in T and 0 in T'; both reject, and neither is within 1e-12 of
          alpha. Every other adjusted value keeps its bits.
        - Holm: a small cell's step (m - pos) v is at most alpha/2 at any
          position, in either grid. A large cell sorts after every small
          cell in both grids, and after the same large cells, so its tie
          run takes the same positions and the same steps. Its running
          max is the larger of its large predecessors' steps, the same
          in both grids, and of small steps, at most alpha/2. So every
          adjusted value above alpha/2 keeps its bits, and every other
          one is at most alpha/2 in both grids: a small cell's adjusted
          value is the max of small steps.
        - A decision is adjusted <= alpha, so none changes. The settle
          band |adjusted - alpha| <= 1e-12 alpha lies above alpha/2, so
          the same families are settled, in rational arithmetic on the
          counts, which reads no grid.

        Every rank bound, and so every envelope, keeps its bytes.

        Raises DomainError for more than MAX_CATEGORIES categories,
        before anything of grid size is allocated.
        """
        if data.p > MAX_CATEGORIES:
            raise DomainError(
                f"{data.p} categories exceed the {MAX_CATEGORIES} that a "
                f"{MAX_CATEGORIES} x {MAX_CATEGORIES} p-value table allows"
            )
        counts = np.unique(data.counts)
        if alpha >= 0.5:
            x = counts[:, None]
            return cls(values=binom_tail(x, x + counts[None, :]), counts=counts)
        # counts ascend, so x_k > x_l is the strict lower triangle
        u = counts.size
        grid = np.ones((u, u))
        rows = max(1, _BLOCK_CELLS // u)
        for start in range(1, u, rows):
            stop = min(u, start + rows)
            k, l = np.nonzero(np.arange(stop) < np.arange(start, stop)[:, None])
            k += start
            screened = _screened(counts[k], counts[l], family, alpha)
            grid[k[screened], l[screened]] = 0.0
            k, l = k[~screened], l[~screened]
            grid[k, l] = binom_tail(counts[k], counts[k] + counts[l])
        return cls(values=grid, counts=counts)


def _screened(xk: np.ndarray, xl: np.ndarray, family: int, alpha: float) -> np.ndarray:
    """Which pairs of counts xk > xl have p = P(Binomial(s, 1/2) >= xk)
    <= alpha / (2 family), s = xk + xl, by Hoeffding's inequality:
    p <= exp(-2t^2 / s) with t = xk - s/2, so 2t^2 / s = d^2 / (2s) with
    d = xk - xl.

    d and 2s are exact float64 integers (s <= 2**53), so the computed
    exponent carries two roundings, d * d and the division, and the
    cutoff ln(2 family / alpha) three, the quotient, the log and the
    margin: well under 1e-14 relative in all. The cutoff is above
    ln 4 > 1.3 (family >= 1, alpha < 1/2); raised by the relative margin
    _SCREEN_RTOL = 1e-9, it leaves every screened pair an exact exponent
    above ln(2 family / alpha) + 1.3e-9, so p <= alpha / (2 family)
    times e^(-1.3e-9), with room for the kernel's 1.7e-13 besides.
    """
    d = (xk - xl).astype(np.float64)
    cutoff = math.log(2.0 * family / alpha) * (1.0 + _SCREEN_RTOL)
    return d * d / (2.0 * (xk + xl)) >= cutoff


def _adjusted_rows(pvals: FloatArray, weights: np.ndarray, method: Method) -> FloatArray:
    """Adjusted p-values, uncapped, of every row of pvals as one family
    whose cells stand for as many hypotheses each as weights says; m is
    a row's total weight.

    A tie run of p-values at sorted positions pos, pos + 1, ... has steps
    (m - pos) p >= (m - pos - 1) p >= ..., so every member's running max
    is max(running max before the run, (m - pos) p): the same bits in any
    sort order and however the run splits into cells. So a cell's
    position is the weight sorted before it, and a zero-weight cell
    takes step 0.
    """
    m = weights.sum(axis=1, keepdims=True)
    if method == "bonferroni":
        return np.where(weights > 0, m, 0) * pvals
    if method != "holm":
        raise ValueError("method must be 'holm' or 'bonferroni'")
    order = np.argsort(pvals, axis=1)
    taken = np.take_along_axis(weights, order, axis=1)
    # m - pos, the multiplier of a cell's first hypothesis
    left = m - np.cumsum(taken, axis=1)
    left += taken
    left[taken == 0] = 0
    del taken
    steps = np.take_along_axis(pvals, order, axis=1)
    steps *= left
    del left
    np.maximum.accumulate(steps, axis=1, out=steps)
    out = np.empty_like(steps)
    np.put_along_axis(out, order, steps, axis=1)
    return out


def _tail_count(x: int, s: int) -> int:
    """2**s * P(Binomial(s, 1/2) >= x), exactly: the sum of C(s, i) over
    i >= x, or 2**s less the sum over i < x, whichever has fewer terms.
    Each term comes from the last by C(s, i + 1) = C(s, i)(s - i)/(i + 1),
    so a tail costs at most s/2 + 1 multiplications and divisions of
    integers below 2**s."""
    upper = 2 * x > s
    terms = s - x + 1 if upper else x
    term = 1
    head = 0
    for i in range(terms):
        head += term
        term = term * (s - i) // (i + 1)
    # C(s, i) = C(s, s - i): the upper sum is the head of s - x + 1 terms
    return head if upper else (1 << s) - head


def _exact_rejections(x: list[int], s: list[int], w: list[int], method: Method,
                      alpha: float) -> np.ndarray:
    """Holm or Bonferroni decisions for one family in rational arithmetic:
    exact p-values P(Binomial(s, 1/2) >= x) of cells standing for w
    hypotheses each (see _adjusted_rows) against the exact value of the
    float alpha.

    Below alpha = 1/2 only pairs with 2x > s get exact tails: any other
    pair has an exact p-value above 1/2, so Bonferroni never rejects it,
    and Holm sorts it after every pair with 2x > s, where its step is at
    least its p-value and stops the descent.
    """
    # imported here: only knife-edge families need it, and every cold
    # start of the CLI would load it otherwise
    from fractions import Fraction

    m = sum(w)
    pvals = {i: Fraction(_tail_count(x[i], s[i]), 1 << s[i])
             for i in range(len(x)) if w[i] and (alpha >= 0.5 or 2 * x[i] > s[i])}
    bound = Fraction(alpha)
    reject = np.zeros(len(x), dtype=bool)
    # Bonferroni's multiplier stays m, so it too stops at its first miss
    pos = 0
    for i in sorted(pvals, key=pvals.__getitem__):
        if (m - pos) * pvals[i] > bound:
            break
        reject[i] = True
        pos += w[i] if method == "holm" else 0
    return reject


def _decide(pvals: FloatArray, weights: np.ndarray, cells, method: Method,
            alpha: float) -> np.ndarray:
    """Rejections of the families in the rows of pvals (see
    _adjusted_rows). A family with an adjusted value within _SETTLE_RTOL
    of alpha is decided again exactly, on the x and s that cells(i) gives."""
    adjusted = _adjusted_rows(pvals, weights, method)
    reject = adjusted <= alpha
    edge = np.abs(adjusted - alpha) <= _SETTLE_RTOL * alpha
    for i in np.flatnonzero(edge.any(axis=1)):
        x, s = cells(i)
        reject[i] = _exact_rejections(x.tolist(), s.tolist(), weights[i].tolist(),
                                      method, alpha)
    return reject


def cs_ranks_multinomial(data: MultinomialCounts, coverage: float = 0.95,
                         mode: Mode = "marginal", method: Method = "holm",
                         indices: Sequence[int] | None = None) -> RankConfidenceSet:
    """Finite-sample confidence sets for the ranks of category
    probabilities (largest probability has rank 1).

    marginal mode corrects, for each requested category j, over the
    2(p-1) hypotheses involving j; simultaneous mode corrects over all
    p(p-1) ordered pairs at once, giving joint coverage. Decisions are
    exact: a family with an adjusted p-value within a relative 1e-12 of
    alpha is decided again in rational arithmetic.

    Raises DomainError when a set misses its estimated rank. Holm's last
    step has multiplier 1, so at alpha > 1/2 a family can reject both
    (k, l) and (l, k); Bonferroni cannot, since m p <= alpha < 1 with
    m >= 2 forces p < 1/2.
    """
    if not 0.0 < coverage < 1.0:
        raise ValueError("coverage must lie strictly between 0 and 1")
    if mode not in ("marginal", "simultaneous"):
        raise ValueError("mode must be 'marginal' or 'simultaneous'")
    alpha = 1.0 - coverage
    p = data.p
    wanted = _normalize_indices(indices, p)
    picked = list(wanted)
    family = 2 * (p - 1) if mode == "marginal" else p * (p - 1)
    table = PairwisePValueTable.from_counts(data, alpha, family)
    grid, counts = table.values, table.counts
    u = counts.size
    code = np.searchsorted(counts, data.counts)
    size = np.bincount(code, minlength=u)

    # into[b, a] and out_of[a, b]: whether a family of count a rejects
    # (b, a) and (a, b), a hypothesis for each of the size[b] - [a == b]
    # other categories holding count b
    if mode == "simultaneous":
        weights = (size[:, None] * (size - np.eye(u, dtype=bool))).reshape(1, -1)
        into = out_of = _decide(
            grid.reshape(1, -1), weights,
            lambda i: (np.repeat(counts, u), (counts[:, None] + counts).ravel()),
            method, alpha).reshape(u, u)
    else:
        # the family of count a: (b, a) for every b, then (a, b); in
        # eight blocks of families a temporary holds a quarter grid
        into, out_of = np.zeros((2, u, u), dtype=bool)
        rows = np.unique(code[picked])
        for a in np.array_split(rows, min(8, rows.size)):
            weights = np.tile(size - (np.arange(u) == a[:, None]), 2)
            reject = _decide(
                np.concatenate([grid[:, a].T, grid[a]], axis=1), weights,
                lambda i: (np.r_[counts, np.full(u, counts[a[i]])],
                           np.tile(counts + counts[a[i]], 2)),
                method, alpha)
            into[:, a], out_of[a] = reject[:, :u].T, reject[:, u:]
    lower = (1 + size @ into - into.diagonal())[code[picked]]
    upper = (p - out_of @ size + out_of.diagonal())[code[picked]]
    rank = irank(data.counts.astype(np.float64), REPORT_RULE).values[picked]
    if np.any(lower > np.ceil(rank)) or np.any(upper < np.floor(rank)):
        raise DomainError(
            f"coverage {coverage} is too low: a family rejects both orders of "
            "a pair, so the rank bounds miss the estimated rank"
        )
    return RankConfidenceSet(
        indices=wanted,
        lower=lower,
        rank=rank,
        upper=upper,
        p=p,
        mode=mode,
        coverage=coverage,
        sidedness="two-sided",
        labels=_labels_subset(data.labels, wanted),
    )
