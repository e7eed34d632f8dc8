import functools
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankinfer.errors import DomainError, InsufficientCategories
from rankinfer.multinomcs import (
    MAX_CATEGORIES,
    MultinomialCounts,
    PairwisePValueTable,
    cs_ranks_multinomial,
)

import rankinfer.multinomcs as multinomcs
from rankinfer.numerics import binom_tail

from oracles import (
    exact_binom_tail,
    exact_binom_tails,
    exact_rank_bounds,
    naive_bonferroni,
    naive_holm,
    zubkov_serov_bounds,
    zubkov_serov_kept_pairs,
)


def _table(*counts, alpha=0.5):
    """The grid over the distinct counts, ascending; at alpha >= 1/2 the
    kernel runs on every cell."""
    family = 2 * (len(counts) - 1)
    return PairwisePValueTable.from_counts(MultinomialCounts(np.array(counts)), alpha,
                                           family).values


def _pvalue(xk, xl, alpha=0.5):
    """The grid's p-value for a category holding xk against one holding xl."""
    table = PairwisePValueTable.from_counts(MultinomialCounts(np.array([xk, xl])), alpha, 2)
    k, l = np.searchsorted(table.counts, [xk, xl])
    return table.values[k, l]


class TestPairwisePValue:
    def test_zero_first_count_never_rejects(self):
        for s in (0, 1, 5, 60):
            assert binom_tail(0, s) == 1.0
        assert np.all(_table(*range(61))[0] == 1.0)

    def test_all_against_none(self):
        table = _table(*range(61))
        for s in range(1, 61):
            assert table[s, 0] == 2.0**-s

    def test_small_closed_form(self):
        # Binomial(4, 1/2) at least 3: (4 + 1) / 16
        assert _pvalue(3, 1) == 0.3125

    def test_matches_fraction_arithmetic(self):
        # every count twice: the grid holds each once, and its diagonal
        # is the p-value of two categories holding the same count
        table = _table(*np.repeat(np.arange(31), 2))
        assert table.shape == (31, 31)
        for xk in range(0, 31):
            for xl in range(0, 31):
                want = float(exact_binom_tail(xk, xk + xl))
                got = table[xk, xl]
                assert math.isclose(got, want, rel_tol=1e-15, abs_tol=0.0)

    def test_exact_and_log_paths_agree_at_boundary(self):
        # totals around the former big-integer/log-space switch at 1000
        for s in (999, 1000, 1001, 1002):
            xk = s // 2 + 10
            xl = s - xk
            want = float(exact_binom_tail(xk, s))
            got = _pvalue(xk, xl)
            assert math.isclose(got, want, rel_tol=1e-14)

    def test_largest_total(self):
        # every argument of the kernel is still an exact float64 here
        assert binom_tail(5, 2**53) > 0.5
        table = _table(5, 2**53 - 5)
        assert table[1, 0] < 1e-300
        assert table[0, 1] > 0.5
        table = _table(5, 2**53 - 5, alpha=0.05)
        assert table[1, 0] == 0.0  # screened: the upper bound certifies it
        assert table[0, 1] == 1.0  # pruned: its p-value exceeds 1/2

    def test_negative_counts_rejected(self):
        # a negative count makes x < 0 or x > s for the kernel
        with pytest.raises(ValueError):
            binom_tail(-1, 2)
        with pytest.raises(ValueError):
            binom_tail(3, 2)

    def test_tail_complement_identity(self):
        # P(X >= a) + P(X >= s - a) = 1 + P(X = a) for X ~ Bin(s, 1/2)
        for s in (7, 12, 25):
            for a in range(0, s + 1):
                lhs = exact_binom_tail(a, s) + exact_binom_tail(s - a, s)
                rhs = 1 + Fraction(math.comb(s, a), 2**s)
                assert lhs == rhs
                got = _pvalue(a, s - a) + _pvalue(s - a, a)
                assert math.isclose(got, float(rhs), rel_tol=1e-14)


@st.composite
def count_vectors(draw):
    """Counts with heavy ties, many zeros, a single distinct value or all
    distinct values."""
    p = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["ties", "zeros", "single", "distinct"]))
    if kind == "ties":
        pool = draw(st.lists(st.integers(0, 500), min_size=1, max_size=4))
        counts = draw(st.lists(st.sampled_from(pool), min_size=p, max_size=p))
    elif kind == "zeros":
        counts = draw(st.lists(st.sampled_from([0, 0, 0, 1, 7]), min_size=p, max_size=p))
    elif kind == "single":
        counts = [draw(st.integers(1, 10**6))] * p
    else:
        counts = draw(st.lists(st.integers(0, 10**6), min_size=p, max_size=p, unique=True))
    if sum(counts) == 0:
        counts[draw(st.integers(0, p - 1))] = 1
    return np.array(counts, dtype=np.int64)


@st.composite
def counts_near_the_largest_total(draw):
    """One or two counts take all of 2**53 but the small counts' share."""
    counts = draw(st.lists(st.integers(0, 50), min_size=2, max_size=12))
    room = (1 << 53) - sum(counts)
    if draw(st.booleans()):
        counts[0] = draw(st.integers(room - 10**6, room))
    else:
        counts[:2] = draw(st.lists(st.integers(room // 2 - 10**6, room // 2),
                                   min_size=2, max_size=2))
    return np.array(draw(st.permutations(counts)), dtype=np.int64)


def _kernel_on_every_cell(data):
    """The full grid: the kernel on every pair of distinct counts."""
    values = np.unique(data.counts)
    return binom_tail(values[:, None], values[:, None] + values[None, :])


def _pruned(data, alpha):
    """The full grid with 1 on every cell that cannot be rejected below
    alpha = 1/2, where x_k <= x_l."""
    every = _kernel_on_every_cell(data)
    if alpha >= 0.5:
        return every
    values = np.unique(data.counts)
    return np.where(values[:, None] > values[None, :], every, 1.0)


def _assert_screened(table, data, alpha, family):
    """The screened cells of from_counts' table, as masks (zeros, ones):
    every other cell holds the pruned grid's value, the float p-value of
    a 0.0 cell is below alpha / (2 family), and that of a 1.0 cell with
    x_k > x_l is above alpha (1 + 2e-12), past the 1e-12 settle band."""
    pruned = _pruned(data, alpha)
    if alpha >= 0.5:
        assert np.array_equal(table, pruned)
        return np.zeros_like(table, dtype=bool), np.zeros_like(table, dtype=bool)
    values = np.unique(data.counts)
    zeros = table == 0.0
    ones = (table == 1.0) & (values[:, None] > values[None, :])
    assert np.array_equal(np.where(zeros | ones, pruned, table), pruned)
    assert np.all(pruned[zeros] < alpha / (2 * family))
    assert np.all(pruned[ones] > alpha * (1 + 2e-12))
    return zeros, ones


class TestPValueTable:
    def test_matches_scalar_calls(self):
        table = PairwisePValueTable.from_counts(MultinomialCounts(np.array([12, 3, 7, 7])),
                                                0.5, 6)
        values = [3, 7, 12]
        assert table.counts.tolist() == values
        for a, xk in enumerate(values):
            for b, xl in enumerate(values):
                assert table.values[a, b] == binom_tail(xk, xk + xl)

    @given(count_vectors())
    @settings(deadline=None, max_examples=200)
    def test_matches_kernel_on_every_cell(self, counts):
        data = MultinomialCounts(counts)
        table = PairwisePValueTable.from_counts(data, 0.5, 2 * (data.p - 1))
        assert np.array_equal(table.counts, np.unique(counts))
        assert np.array_equal(table.values, _kernel_on_every_cell(data))

    @given(counts_near_the_largest_total())
    @settings(deadline=None, max_examples=15)
    def test_matches_kernel_near_the_largest_total(self, counts):
        # near-balanced pair totals this large cost the kernel up to 40 ms
        # per cell, and for some of them it returns NaN, which must match
        data = MultinomialCounts(counts)
        assert np.array_equal(PairwisePValueTable.from_counts(data, 0.5, 1).values,
                              _kernel_on_every_cell(data), equal_nan=True)

    def test_kernel_sees_distinct_count_pairs(self, monkeypatch):
        seen = []

        def recording(x, s):
            seen.append(np.broadcast(x, s).shape)
            return binom_tail(x, s)

        monkeypatch.setattr(multinomcs, "binom_tail", recording)
        counts = np.array([5, 0, 12, 5, 5, 12, 40, 0, 5])  # 4 distinct values
        table = PairwisePValueTable.from_counts(MultinomialCounts(counts), 0.5, 16)
        assert seen == [(4, 4)]
        assert table.values.shape == (4, 4)
        assert table.counts.tolist() == [0, 5, 12, 40]

    def test_too_many_categories(self, monkeypatch):
        # checked before the grid is allocated
        monkeypatch.setattr(multinomcs, "binom_tail", None)
        data = MultinomialCounts(np.ones(MAX_CATEGORIES + 1, dtype=np.int64))
        with pytest.raises(DomainError, match="categories"):
            PairwisePValueTable.from_counts(data, 0.05, 2 * MAX_CATEGORIES)
        with pytest.raises(DomainError, match="categories"):
            cs_ranks_multinomial(data)


def _adjusted_rows(rows, method):
    """Adjusted p-values of rows whose cells stand for one hypothesis each."""
    rows = np.asarray(rows)
    return multinomcs._adjusted_rows(rows, np.ones(rows.shape, dtype=np.int64), method)


def _adjusted(p, method):
    """Adjusted p-values of one family, capped at 1."""
    return np.minimum(1.0, _adjusted_rows(np.asarray(p)[None, :], method)[0])


class TestAdjustPValues:
    def test_bonferroni_formula(self):
        p = np.array([0.01, 0.4, 0.9])
        assert np.allclose(_adjusted(p, "bonferroni"), [0.03, 1.0, 1.0])

    def test_holm_hand_case(self):
        p = np.array([0.01, 0.04, 0.03])
        # sorted: .01*3=.03, .03*2=.06, .04*1=.04 -> cummax .03,.06,.06
        assert np.allclose(_adjusted(p, "holm"), [0.03, 0.06, 0.06])

    @given(
        p=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    @settings(deadline=None, max_examples=200)
    def test_holm_matches_naive(self, p):
        got = _adjusted(p, "holm")
        assert np.allclose(got, naive_holm(p), atol=1e-12)

    @given(
        p=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    @settings(deadline=None, max_examples=200)
    def test_holm_dominated_by_bonferroni(self, p):
        rows = np.array([p])
        holm = _adjusted_rows(rows, "holm")
        bonf = _adjusted_rows(rows, "bonferroni")
        assert np.all(holm <= bonf + 1e-15)
        assert np.all(holm >= rows - 1e-15)

    def test_matches_bonferroni_oracle(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(size=20)
        assert np.allclose(_adjusted(p, "bonferroni"), naive_bonferroni(p))

    def test_empty_passthrough(self):
        for method in ("holm", "bonferroni"):
            assert _adjusted_rows(np.empty((3, 0)), method).shape == (3, 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="method"):
            _adjusted_rows(np.array([[0.5]]), "sidak")
        with pytest.raises(ValueError, match="method"):
            cs_ranks_multinomial(MultinomialCounts(np.array([5, 3])), method="sidak")


class TestMultinomialCounts:
    def test_float_integers_accepted(self):
        counts = MultinomialCounts(np.array([1.0, 2.0]))
        assert counts.counts.dtype == np.int64
        assert counts.counts.tolist() == [1, 2]

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            MultinomialCounts(np.array([1.5, 2.0]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MultinomialCounts(np.array([-1, 2]))

    def test_too_few_categories(self):
        with pytest.raises(InsufficientCategories):
            MultinomialCounts(np.array([5]))

    def test_all_zero_rejected(self):
        with pytest.raises(DomainError):
            MultinomialCounts(np.array([0, 0, 0]))

    def test_total_above_two_to_53_rejected(self):
        MultinomialCounts(np.array([5, 2**53 - 5]))
        with pytest.raises(DomainError):
            MultinomialCounts(np.array([5, 2**53]))
        with pytest.raises(DomainError):
            MultinomialCounts(np.array([2**62, 2**62, 2**62]))
        with pytest.raises(DomainError):
            MultinomialCounts(np.array([1e300, 2.0]))

    def test_labels_length_checked(self):
        with pytest.raises(ValueError):
            MultinomialCounts(np.array([1, 2]), labels=("a",))


class TestConfidenceSets:
    def test_lopsided_counts_pin_both_ranks(self):
        cs = cs_ranks_multinomial(MultinomialCounts(np.array([0, 100])))
        assert list(cs.lower) == [2, 1]
        assert list(cs.upper) == [2, 1]
        assert list(cs.rank) == [2, 1]

    def test_equal_counts_full_range(self):
        for mode in ("marginal", "simultaneous"):
            cs = cs_ranks_multinomial(
                MultinomialCounts(np.array([30, 30, 30])), mode=mode
            )
            assert np.all(cs.lower == 1)
            assert np.all(cs.upper == 3)

    def test_bounds_bracket_rank(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            counts = rng.multinomial(120, [0.4, 0.3, 0.2, 0.1])
            for mode in ("marginal", "simultaneous"):
                for method in ("holm", "bonferroni"):
                    cs = cs_ranks_multinomial(
                        MultinomialCounts(counts), mode=mode, method=method
                    )
                    assert np.all(cs.lower <= cs.rank)
                    assert np.all(cs.rank <= cs.upper)

    def test_holm_nested_in_bonferroni(self):
        counts = MultinomialCounts(np.array([260, 240, 170, 160, 90, 80]))
        for mode in ("marginal", "simultaneous"):
            holm = cs_ranks_multinomial(counts, mode=mode, method="holm")
            bonf = cs_ranks_multinomial(counts, mode=mode, method="bonferroni")
            assert np.all(holm.lower >= bonf.lower)
            assert np.all(holm.upper <= bonf.upper)

    def test_marginal_nested_in_simultaneous_bonferroni(self):
        counts = MultinomialCounts(np.array([260, 240, 170, 160, 90, 80]))
        marg = cs_ranks_multinomial(counts, method="bonferroni", mode="marginal")
        simul = cs_ranks_multinomial(counts, method="bonferroni", mode="simultaneous")
        assert np.all(simul.lower <= marg.lower)
        assert np.all(simul.upper >= marg.upper)

    def test_indices_subset(self):
        counts = MultinomialCounts(np.array([50, 30, 20]), labels=("a", "b", "c"))
        cs = cs_ranks_multinomial(counts, indices=[2, 0])
        assert cs.indices == (2, 0)
        assert cs.labels == ("c", "a")
        full = cs_ranks_multinomial(counts)
        assert cs.lower[0] == full.lower[2]
        assert cs.upper[1] == full.upper[0]

    def test_rank_reported_decreasing_smallest(self):
        cs = cs_ranks_multinomial(MultinomialCounts(np.array([10, 40, 10])))
        assert list(cs.rank) == [2, 1, 2]

    def test_rejections_shrink_with_alpha(self):
        counts = MultinomialCounts(np.array([300, 200, 100, 20]))
        tight = cs_ranks_multinomial(counts, coverage=0.5)
        loose = cs_ranks_multinomial(counts, coverage=0.999)
        assert np.all(tight.lower >= loose.lower)
        assert np.all(tight.upper <= loose.upper)

    def test_coverage_validation(self):
        counts = MultinomialCounts(np.array([5, 5]))
        with pytest.raises(ValueError):
            cs_ranks_multinomial(counts, coverage=0.0)
        with pytest.raises(ValueError):
            cs_ranks_multinomial(counts, coverage=1.0)
        with pytest.raises(ValueError):
            cs_ranks_multinomial(counts, mode="global")
        with pytest.raises(ValueError):
            cs_ranks_multinomial(counts, method="fdr")


COVERAGES = (0.5, 0.75, 0.8, 0.875, 0.9, 0.95, 0.96875, 0.99)


class TestExactDecisions:
    @given(
        counts=st.lists(st.integers(min_value=0, max_value=200), min_size=2, max_size=6),
        coverage=st.sampled_from(COVERAGES),
        mode=st.sampled_from(("marginal", "simultaneous")),
        method=st.sampled_from(("holm", "bonferroni")),
    )
    @settings(deadline=None, max_examples=300)
    def test_matches_rational_oracle(self, counts, coverage, mode, method):
        if sum(counts) == 0:
            counts[0] = 1
        cs = cs_ranks_multinomial(MultinomialCounts(np.array(counts)), coverage,
                                  mode=mode, method=method)
        lower, upper = exact_rank_bounds(counts, coverage, mode, method)
        assert cs.lower.tolist() == lower
        assert cs.upper.tolist() == upper

    # adjusted p-values equal to alpha exactly: [6, 0] has p-value 2**-6
    # in a family of 2, [5, 0, 0] has two p-values 2**-5 in a family of 4
    # (marginal) or 6 (simultaneous), [6, 1] has (1 + 7) / 2**7, and
    # [4, 1] has (1 + 5) / 2**5 against alpha = 3/8 < 1/2, where the
    # settle recomputes only pairs with the larger count first
    KNIFE_EDGES = [
        ([6, 0], 0.96875, "marginal", "holm"),
        ([6, 0], 0.96875, "marginal", "bonferroni"),
        ([6, 0], 0.96875, "simultaneous", "holm"),
        ([6, 0], 0.96875, "simultaneous", "bonferroni"),
        ([5, 0, 0], 0.875, "marginal", "holm"),
        ([5, 0, 0], 0.875, "marginal", "bonferroni"),
        ([5, 0, 0], 0.8125, "simultaneous", "bonferroni"),
        ([6, 1], 0.875, "marginal", "holm"),
        ([4, 1], 0.625, "marginal", "bonferroni"),
        ([4, 1], 0.625, "marginal", "holm"),
    ]

    @pytest.mark.parametrize("counts,coverage,mode,method", KNIFE_EDGES)
    def test_knife_edge_settled_exactly(self, monkeypatch, counts, coverage, mode,
                                        method):
        settled = []
        exact = multinomcs._exact_rejections

        def spy(*args):
            settled.append(args)
            return exact(*args)

        monkeypatch.setattr(multinomcs, "_exact_rejections", spy)
        cs = cs_ranks_multinomial(MultinomialCounts(np.array(counts)), coverage,
                                  mode=mode, method=method)
        assert settled
        lower, upper = exact_rank_bounds(counts, coverage, mode, method)
        assert cs.lower.tolist() == lower
        assert cs.upper.tolist() == upper

    def test_equality_rejects(self):
        # 2 * 2**-6 == alpha rejects; a slightly smaller alpha does not
        counts = MultinomialCounts(np.array([6, 0]))
        edge = cs_ranks_multinomial(counts, coverage=0.96875)
        assert (edge.lower.tolist(), edge.upper.tolist()) == ([1, 2], [1, 2])
        inside = cs_ranks_multinomial(counts, coverage=0.97)
        assert (inside.lower.tolist(), inside.upper.tolist()) == ([1, 1], [2, 2])

    def test_no_settle_away_from_alpha(self, monkeypatch):
        monkeypatch.setattr(multinomcs, "_exact_rejections", None)
        counts = MultinomialCounts(np.array([260, 240, 170, 160, 90, 80]))
        for mode in ("marginal", "simultaneous"):
            for method in ("holm", "bonferroni"):
                cs_ranks_multinomial(counts, mode=mode, method=method)


_cached_tail = functools.cache(exact_binom_tail)


def _indices(p):
    return st.none() | st.permutations(range(p)).flatmap(
        lambda order: st.integers(1, p).map(lambda size: order[:size]))


@st.composite
def knife_edges_on_repeated_counts(draw):
    """p <= 8 counts from a pool of one to three values below 40, so that
    most categories share a count, and alpha equal to the exact adjusted
    p-value of one hypothesis in a family the set decides: a Holm step
    (m - pos) P or a Bonferroni product m P of its pair's p-value P. The
    level lies in [1/1000, 1), where 1 - (1 - alpha) in floats stays
    within a relative 1.2e-13 of alpha, inside the settle band."""
    p = draw(st.integers(2, 8))
    pool = draw(st.lists(st.integers(0, 40), min_size=1, max_size=3, unique=True))
    counts = draw(st.lists(st.sampled_from(pool), min_size=p, max_size=p))
    assume(sum(counts) > 0)
    mode = draw(st.sampled_from(("marginal", "simultaneous")))
    method = draw(st.sampled_from(("holm", "bonferroni")))
    indices = draw(_indices(p))
    if mode == "simultaneous":
        family = [(k, l) for k in range(p) for l in range(p) if k != l]
    else:
        j = draw(st.sampled_from(range(p) if indices is None else indices))
        others = [k for k in range(p) if k != j]
        family = [(k, j) for k in others] + [(j, k) for k in others]
    pvals = sorted(_cached_tail(counts[k], counts[k] + counts[l]) for k, l in family)
    m = len(pvals)
    if method == "bonferroni":
        adjusted = [m * v for v in pvals]
    else:
        adjusted = itertools.accumulate(((m - pos) * v for pos, v in enumerate(pvals)), max)
    levels = sorted({a for a in adjusted if Fraction(1, 1000) <= a and float(a) < 1})
    assume(levels)
    alpha = draw(st.sampled_from(levels))
    return counts, 1.0 - float(alpha), mode, method, indices


class TestKnifeEdgesOnRepeatedCounts:
    @given(knife_edges_on_repeated_counts())
    @settings(deadline=None, max_examples=300)
    def test_settled_exactly(self, case):
        counts, coverage, mode, method, indices = case
        settled = []
        exact = multinomcs._exact_rejections

        def spy(*args):
            settled.append(args)
            return exact(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multinomcs, "_exact_rejections", spy)
            try:
                cs = cs_ranks_multinomial(MultinomialCounts(np.array(counts)), coverage,
                                          mode=mode, method=method, indices=indices)
            except DomainError as err:
                cs = str(err)
        assert settled
        if isinstance(cs, str):
            # above alpha = 1/2 a Holm family can reject both orders of a
            # pair, and the set is then refused
            assert coverage < 0.5 and method == "holm" and "too low" in cs
            return
        picked = range(len(counts)) if indices is None else indices
        lower, upper = exact_rank_bounds(counts, coverage, mode, method, tail=_cached_tail)
        assert cs.lower.tolist() == [lower[j] for j in picked]
        assert cs.upper.tolist() == [upper[j] for j in picked]


def _recurrence_tail(x, s):
    return Fraction(multinomcs._tail_count(x, s), 1 << s)


class TestKnifeEdgesAtLargeTotals:
    # pair total 20000: summing math.comb over a tail took 77 s per
    # settled family there; the recurrence takes about 0.05 s

    def test_recurrence_matches_oracle(self):
        for s in range(201):
            for x in range(s + 1):
                assert _recurrence_tail(x, s) == exact_binom_tail(x, s), (x, s)

    def _settled(self, monkeypatch, counts, coverage, mode, method):
        settled = []
        exact = multinomcs._exact_rejections

        def spy(x, s, w, method, alpha):
            settled.append(list(x))
            return exact(x, s, w, method, alpha)

        monkeypatch.setattr(multinomcs, "_exact_rejections", spy)
        t0 = time.perf_counter()
        cs = cs_ranks_multinomial(MultinomialCounts(np.array(counts)), coverage,
                                  mode=mode, method=method)
        elapsed = time.perf_counter() - t0
        assert settled
        assert elapsed < 1.0, f"knife edge at pair total 20000 took {elapsed:.2f}s"
        lower, upper = exact_rank_bounds(counts, coverage, mode, method,
                                         tail=_recurrence_tail)
        assert cs.lower.tolist() == lower
        assert cs.upper.tolist() == upper

    def test_reference_tails_match_downward_pass(self):
        tails = exact_binom_tails(20000, [10164, 9836, 10037, 9963])
        for x, want in tails.items():
            assert _recurrence_tail(x, 20000) == want

    @pytest.mark.parametrize("nudge", [0.0, -1.0, 1.0])
    def test_bonferroni_simultaneous(self, monkeypatch, nudge):
        # 2 * P(Bin(20000, 1/2) >= 10164) against alpha at, and one ulp
        # of coverage either side of, the knife edge
        edge = 1.0 - 2.0 * float(_recurrence_tail(10164, 20000))
        coverage = edge if nudge == 0.0 else float(np.nextafter(edge, nudge))
        self._settled(monkeypatch, [10164, 9836], coverage, "simultaneous", "bonferroni")

    @pytest.mark.parametrize("mode", ["marginal", "simultaneous"])
    @pytest.mark.parametrize("method", ["holm", "bonferroni"])
    def test_below_half_coverage(self, monkeypatch, mode, method):
        # counts (10037, 9963) at alpha = 2 * P(Bin(20000, 1/2) >= 10037),
        # about 0.6: above 1/2, so the pair whose count is the smaller
        # gets its exact tail too
        computed = []
        count = multinomcs._tail_count

        def spy(x, s):
            computed.append(x)
            return count(x, s)

        monkeypatch.setattr(multinomcs, "_tail_count", spy)
        coverage = 1.0 - 2.0 * float(_recurrence_tail(10037, 20000))
        assert coverage < 0.5
        self._settled(monkeypatch, [10037, 9963], coverage, mode, method)
        assert set(computed) == {10037, 9963}


@st.composite
def pruning_cases(draw):
    """p <= 6 counts with ties and zeros, at one of three scales: 0-60,
    0-1000, or near-equal counts up to 2**53 / 6, 2**28 apart at most,
    whose screening exponents fall on both sides of every cutoff; a
    coverage on either side of 1/2 (knife edges of small dyadic p-values
    included), both modes and methods, and a random subset of indices."""
    p = draw(st.integers(2, 6))
    scale = draw(st.sampled_from(("small", "wide", "huge")))
    if scale == "huge":
        base = draw(st.integers(0, (1 << 53) // 6 - (1 << 28)))
        offsets = st.integers(0, 1 << 28).map(lambda off: base + off)
    else:
        offsets = st.integers(0, 60 if scale == "small" else 1000)
    pool = draw(st.lists(offsets, min_size=1, max_size=p)) + [0]
    counts = draw(st.lists(st.sampled_from(pool), min_size=p, max_size=p))
    if sum(counts) == 0:
        counts[draw(st.integers(0, p - 1))] = 1
    coverage = draw(st.sampled_from(
        (0.03125, 0.125, 0.25, 0.4, 0.5) + COVERAGES + (0.999, 0.999999, 1.0 - 2.0**-53)))
    mode = draw(st.sampled_from(("marginal", "simultaneous")))
    method = draw(st.sampled_from(("holm", "bonferroni")))
    indices = draw(_indices(p))
    return counts, coverage, mode, method, indices


class TestPrunedTable:
    @given(pruning_cases())
    @settings(deadline=None, max_examples=400)
    def test_pruning_keeps_every_decision(self, case):
        counts, coverage, mode, method, indices = case
        data = MultinomialCounts(np.array(counts))
        alpha = 1.0 - coverage
        p = len(counts)
        family = 2 * (p - 1) if mode == "marginal" else p * (p - 1)
        cells = []

        def counting(x, s):
            cells.append(np.broadcast(x, s).size)
            return binom_tail(x, s)

        def bounds():
            try:
                cs = cs_ranks_multinomial(data, coverage, mode=mode, method=method,
                                          indices=indices)
            except DomainError as err:
                return str(err)
            return cs.lower.tolist(), cs.upper.tolist()

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multinomcs, "binom_tail", counting)
            got = bounds()
            kernel_cells = sum(cells)
            mp.setattr(PairwisePValueTable, "from_counts", classmethod(
                lambda cls, data, alpha, family: cls(_kernel_on_every_cell(data),
                                                     np.unique(data.counts))))
            assert bounds() == got
        if isinstance(got, str):
            # above alpha = 1/2 a Holm family can reject both (k, l) and
            # (l, k), and the set is then refused
            assert alpha > 0.5 and method == "holm" and "too low" in got
        elif max(counts) <= 1000:
            picked = range(p) if indices is None else indices
            lower, upper = exact_rank_bounds(counts, coverage, mode, method,
                                             tail=functools.cache(exact_binom_tail))
            assert got == ([lower[j] for j in picked], [upper[j] for j in picked])

        u = np.unique(data.counts).size
        kept = zubkov_serov_kept_pairs(counts, alpha, family, multinomcs._SCREEN_RTOL)
        assert kernel_cells == (kept if alpha < 0.5 else u * u)
        _assert_screened(PairwisePValueTable.from_counts(data, alpha, family).values,
                         data, alpha, family)

    # (family, alpha) of real sets: marginal families 2(p - 1) for p = 2,
    # 4, 10, 40, 150, 1000 and MAX_CATEGORIES, simultaneous ones p(p - 1)
    # for p = 40, 150, 1000 and MAX_CATEGORIES, at levels from just below
    # 1/2 down to the smallest alpha a float coverage gives
    CUTOFFS = [(m, alpha)
               for m in (2, 6, 18, 78, 298, 1998, 16382, 1560, 22350, 999000, 67100672)
               for alpha in (0.5 - 2.0**-53, 0.4, 0.1, 0.05, 0.01, 0.001, 1e-6, 2.0**-53)]

    def test_screened_tails_certified_exactly(self):
        # every pair with pair total s <= 2000 and x > s/2, against the
        # cutoffs of from_counts' screen. For each s the certainly
        # rejected x form a run x >= x0 and the never rejected x a run
        # x < x1, and the exact tail falls in x, so the tails at x0 and
        # x1 - 1 certify them all: past alpha / (2m) and alpha by the
        # 0.99e-9 that the screen's rounding analysis leaves
        totals = np.arange(1, 2001)
        x = np.concatenate([np.arange(t // 2 + 1, t + 1) for t in totals])
        s = np.repeat(totals, totals - totals // 2)
        d = (2 * x - s).astype(np.float64)
        upper = multinomcs._exponent(np.maximum(d - 2.0, 0.0), s.astype(np.float64))
        lower = multinomcs._exponent(d, s.astype(np.float64))
        starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
        same = s[1:] == s[:-1]
        margin = Fraction(99, 10**11)
        edges = {}
        for m, alpha in self.CUTOFFS:
            rejected_from, doubted_from = multinomcs._cutoffs(alpha, m)
            rejected = upper >= rejected_from
            never = lower < doubted_from
            assert not np.any(rejected[:-1] & ~rejected[1:] & same), (m, alpha)
            assert not np.any(~never[:-1] & never[1:] & same), (m, alpha)
            x0 = x[starts] + np.add.reduceat(~rejected, starts)
            x1 = x[starts] + np.add.reduceat(never, starts)
            for total, first, after in zip(totals.tolist(), x0.tolist(), x1.tolist()):
                if first <= total:
                    edges.setdefault(total, []).append((first, "rejected", m, alpha))
                if after > total // 2 + 1:
                    edges.setdefault(total, []).append((after - 1, "never", m, alpha))
        # every cutoff rejects some pairs, and every one but alpha just
        # below 1/2 never rejects some
        kinds = [(kind, m, alpha) for _, kind, m, alpha in edges[2000]]
        assert sum(kind == "rejected" for kind, _, _ in kinds) == len(self.CUTOFFS)
        assert {(m, alpha) for kind, m, alpha in kinds if kind == "never"} == {
            (m, alpha) for m, alpha in self.CUTOFFS if alpha < 0.5 - 2.0**-53}
        for total, cases in edges.items():
            tails = exact_binom_tails(total, [edge for edge, _, _, _ in cases])
            for edge, kind, m, alpha in cases:
                if kind == "rejected":
                    assert tails[edge] * 2 * m <= Fraction(alpha) * (1 - margin), (edge, total)
                else:
                    assert tails[edge] > Fraction(alpha) * (1 + margin), (edge, total, alpha)

    @pytest.mark.parametrize("x, s", [(700, 1200), (5, 5), (10_100, 20_000)])
    def test_margin_places_the_cutoffs(self, x, s):
        # alpha set so that one bound of the pair (x, s - x) lies half the
        # margin, or twice it, inside its cutoff, from the bounds in
        # 50-digit mpmath: only the second is screened, so the margin has
        # the size r = 1e-9 that from_counts' rounding analysis counts on,
        # and its sign, on both sides
        r = 1e-9
        data = MultinomialCounts(np.array([x, s - x]))
        m = 2
        upper, lower = zubkov_serov_bounds(x, s)
        for k, screened in ((0.5, False), (2.0, True)):
            # upper bound at c (1 - k r), c = alpha / (2m): rejected once
            # k > 1
            alpha = float(2 * m * upper / (1 - k * r))
            assert alpha < 0.5
            cell = PairwisePValueTable.from_counts(data, alpha, m).values[1, 0]
            assert (cell == 0.0) == screened, (k, cell)
            # lower bound at alpha (1 + k r): never rejected once k > 1
            alpha = float(lower / (1 + k * r))
            cell = PairwisePValueTable.from_counts(data, alpha, m).values[1, 0]
            assert (cell == 1.0) == screened, (k, cell)

    def test_blocks_cover_the_triangle(self, monkeypatch):
        # blocks of one row, and of more rows than the grid has; every
        # cell of the strict lower triangle is screened to 0 or 1, or
        # computed. The marginal families are decided in one block per
        # family (1 and 7 cells), four blocks (40) or one: the same bounds
        counts = MultinomialCounts(np.array([0, 3, 3, 9, 14, 2, 40, 41, 7]))
        sets = {}
        for cells in (1, 7, 40, 1 << 16):
            monkeypatch.setattr(multinomcs, "_BLOCK_CELLS", cells)
            table = PairwisePValueTable.from_counts(counts, 0.05, 16).values
            zeros, ones = _assert_screened(table, counts, 0.05, 16)
            assert 0 < zeros.sum() and 0 < ones.sum() and zeros.sum() + ones.sum() < 28
            for method in ("holm", "bonferroni"):
                cs = cs_ranks_multinomial(counts, 0.95, method=method)
                sets.setdefault(method, set()).add((tuple(cs.lower), tuple(cs.upper)))
        assert all(len(bounds) == 1 for bounds in sets.values())

    @given(
        pool=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=4),
        method=st.sampled_from(("holm", "bonferroni")),
        data=st.data(),
    )
    @settings(deadline=None, max_examples=300)
    def test_weighted_cells_match_written_out_copies(self, pool, method, data):
        # rows of tied p-values whose cells stand for 0 to 3 hypotheses
        # each, then the same rows shuffled: the unstable sort may order
        # each tie run differently, and must not matter to a cell of
        # positive weight. Such a cell gets the bits of its copies written
        # out one per hypothesis; a zero-weight cell gets 0 or another
        # cell's value
        m = data.draw(st.integers(1, 40))
        rows = np.array(data.draw(st.lists(
            st.lists(st.sampled_from(pool), min_size=m, max_size=m), min_size=1, max_size=5)))
        weights = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 3), min_size=m, max_size=m),
            min_size=rows.shape[0], max_size=rows.shape[0])))
        order = np.array(data.draw(st.permutations(range(m))))
        adjusted = multinomcs._adjusted_rows(rows, weights, method)
        shuffled = multinomcs._adjusted_rows(rows[:, order], weights[:, order], method)
        stands = weights[:, order] > 0
        assert np.array_equal(shuffled[stands], adjusted[:, order][stands])
        for row, w, got in zip(rows, weights, adjusted):
            copies = _adjusted_rows(np.repeat(row, w)[None, :], method)[0]
            assert np.array_equal(np.repeat(got, w), copies)
            assert set(got[w == 0].tolist()) <= set(copies.tolist()) | {0.0}
            if method == "holm" and w.sum():
                assert np.allclose(np.minimum(1.0, copies), naive_holm(np.repeat(row, w)),
                                   atol=1e-12)
