import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankinfer import ranking as ranking_mod
from rankinfer.errors import NonFinite
from rankinfer.ranking import TieRule, _TieRuns, frank, frank_against, irank, irank_against
from rankinfer.rankreg.variance import _indicator_table

from oracles import naive_indicator_matvec, naive_rank

THETA_TABLE = np.array([3.0, 4.0, 7.0, 7.0, 10.0, 11.0, 15.0, 15.0, 15.0, 15.0])


@pytest.mark.parametrize(
    "omega,expected",
    [
        (0.0, [1, 2, 3, 3, 5, 6, 7, 7, 7, 7]),
        (0.5, [1, 2, 3.5, 3.5, 5, 6, 8.5, 8.5, 8.5, 8.5]),
        (1.0, [1, 2, 4, 4, 5, 6, 10, 10, 10, 10]),
    ],
)
def test_tied_scores_all_omegas(omega, expected):
    got = irank(THETA_TABLE, TieRule(omega, "increasing"))
    assert np.array_equal(got, np.array(expected, dtype=float))


def test_matches_pairwise_counting():
    rng = np.random.default_rng(0)
    for _ in range(150):
        n = int(rng.integers(1, 30))
        pool = rng.normal(size=int(rng.integers(1, n + 1)))
        theta = rng.choice(pool, size=n)
        for omega in (0.0, 0.3, 0.5, 1.0):
            for direction in ("increasing", "decreasing"):
                got = irank(theta, TieRule(omega, direction))
                want = naive_rank(theta, omega, increasing=direction == "increasing")
                assert np.allclose(got, want, atol=1e-12)


@given(
    theta=st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=25),
    omega=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
)
@settings(deadline=None, max_examples=200)
def test_direction_complement_identity(theta, omega):
    # rank from one end plus the omega-complement rank from the other
    # end always totals n + 1
    theta = np.asarray(theta, dtype=float)
    inc = irank(theta, TieRule(omega, "increasing"))
    dec = irank(theta, TieRule(1.0 - omega, "decreasing"))
    assert np.allclose(inc + dec, theta.size + 1, atol=1e-12)


@given(
    theta=st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=20),
    omega=st.sampled_from([0.0, 0.5, 1.0]),
    direction=st.sampled_from(["increasing", "decreasing"]),
)
@settings(deadline=None, max_examples=200)
def test_frank_in_unit_interval(theta, omega, direction):
    vals = frank(np.asarray(theta, dtype=float), TieRule(omega, direction))
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def tied_or_distinct(draw):
    """Float vectors of length 1-200, either mostly distinct or drawn
    from a small pool so that long tie runs occur."""
    n = draw(st.integers(min_value=1, max_value=200))
    if draw(st.booleans()):
        pool = draw(st.lists(FINITE, min_size=1, max_size=8))
        return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    return np.array(draw(st.lists(FINITE, min_size=n, max_size=n)))


@given(
    theta=tied_or_distinct(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(deadline=None, max_examples=200)
def test_tie_runs_match_search_and_naive_indicator(theta, seed):
    # self-ranks from the tie runs equal the binary-search path bit for
    # bit, and the same runs give the indicator product, whichever way
    # the codes were found
    v = np.random.default_rng(seed).normal(size=theta.size)
    for table_max in (ranking_mod._SEARCH_TABLE_MAX, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ranking_mod, "_SEARCH_TABLE_MAX", table_max)
            ties = _TieRuns.of(theta)
            assert np.array_equal(ties.code, np.searchsorted(np.unique(theta), theta))
            for omega in (0.0, 0.3, 0.5, 1.0):
                for direction in ("increasing", "decreasing"):
                    rule = TieRule(omega, direction)
                    assert np.array_equal(irank(theta, rule),
                                          irank_against(theta, theta, rule))
                got = _indicator_table(ties, v, omega).take(ties.code)
                assert np.abs(got - naive_indicator_matvec(theta, v, omega)).max() < 1e-12


@st.composite
def queries_and_reference(draw):
    """A reference vector, tied or distinct and sometimes holding both
    zeros, and queries drawn from its values, both zeros, points outside
    its support and arbitrary floats."""
    reference = draw(tied_or_distinct())
    if draw(st.booleans()):
        reference = np.concatenate([reference, [0.0, -0.0]])
    pool = reference.tolist() + [0.0, -0.0, float(reference.min()) - 1.0,
                                 float(reference.max()) + 1.0]
    queries = draw(st.lists(st.sampled_from(pool) | FINITE, max_size=60))
    return np.array(queries, dtype=np.float64), reference


@given(queries_and_reference())
@settings(deadline=None, max_examples=300)
def test_sorted_lookup_matches_per_query_search(case):
    # the counts from the sorted queries, scattered back, equal one
    # binary search per query in query order
    x, reference = case
    ordered = np.sort(reference)
    left = np.array([np.searchsorted(ordered, q, side="left") for q in x], dtype=np.intp)
    right = np.array([np.searchsorted(ordered, q, side="right") for q in x], dtype=np.intp)
    for omega in (0.0, 0.5, 1.0):
        for direction in ("increasing", "decreasing"):
            rule = TieRule(omega, direction)
            want = ranking_mod._blend(left, right, reference.size, rule)
            got = irank_against(x, reference, rule)
            assert got.tobytes() == want.tobytes(), (omega, direction)


def test_frank_is_irank_over_n():
    theta = np.array([2.0, 2.0, 5.0, 1.0])
    rule = TieRule(0.5, "increasing")
    assert np.array_equal(frank(theta, rule), irank(theta, rule) / 4)


@pytest.mark.parametrize("rank", [irank, frank, irank_against, frank_against])
def test_ranks_are_float_arrays(rank):
    theta = [3, 1, 2]  # integers in, float64 out
    rule = TieRule(0.0, "increasing")
    args = (theta, [1, 2, 3, 4, 5], rule) if rank.__name__.endswith("_against") else (theta, rule)
    got = rank(*args)
    assert isinstance(got, np.ndarray)
    assert got.dtype == np.float64
    assert got.shape == (3,)


class TestAgainstReference:
    def test_in_support_matches_self_ranking(self):
        theta = np.array([4.0, 1.0, 3.0, 3.0])
        rule = TieRule(0.5, "increasing")
        self_ranks = irank(theta, rule)
        against = irank_against(theta, theta, rule)
        assert np.array_equal(self_ranks, against)

    def test_above_support_exceeds_one(self):
        ref = np.array([1.0, 2.0, 3.0])
        rule = TieRule(0.0, "increasing")
        out = frank_against(np.array([10.0]), ref, rule)
        assert out[0] > 1.0

    def test_below_support_formula_value(self):
        ref = np.array([1.0, 2.0, 3.0])
        out0 = frank_against(np.array([-5.0]), ref, TieRule(0.0, "increasing"))
        out1 = frank_against(np.array([-5.0]), ref, TieRule(1.0, "increasing"))
        assert out0[0] == pytest.approx(1.0 / 3.0)
        assert out1[0] == 0.0

    def test_reference_scaling(self):
        # query ranks divide by the reference length, not the query length
        ref = np.arange(10, dtype=float)
        out = frank_against(np.array([9.0]), ref, TieRule(1.0, "increasing"))
        assert out[0] == 1.0

    def test_decreasing_against(self):
        ref = np.array([1.0, 2.0, 2.0, 7.0])
        got = irank_against(np.array([2.0]), ref, TieRule(1.0, "decreasing"))
        # weak predecessors from above: values >= 2 is 3
        assert got[0] == 3.0

    def test_empty_reference(self):
        with pytest.raises(ValueError):
            irank_against([1.0], [], TieRule(0.0, "increasing"))


def test_input_validation():
    rule = TieRule(0.0, "increasing")
    with pytest.raises(ValueError):
        irank([], rule)
    with pytest.raises(ValueError):
        irank(np.ones((2, 2)), rule)
    with pytest.raises(NonFinite):
        irank([1.0, np.nan], rule)
    with pytest.raises(NonFinite):
        irank([1.0, np.inf], rule)


def test_tie_rule_validation():
    with pytest.raises(ValueError):
        TieRule(-0.1, "increasing")
    with pytest.raises(ValueError):
        TieRule(1.1, "increasing")
    with pytest.raises(ValueError):
        TieRule(0.5, "sideways")
