import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankinfer import rankcs
from rankinfer.errors import DegeneratePair, InsufficientCategories, NonFinite, NotPSD
from rankinfer.numerics import SeededRng, cholesky_psd, mvn_sample
from rankinfer.rankcs import (
    REPORT_RULE,
    BootstrapConfig,
    EstimatesWithCovariance,
    RankConfidenceSet,
    TauBestSet,
    cs_ranks,
    cs_tau_best,
    cs_tau_worst,
    pairwise_se,
)
from rankinfer.rankcs import _bootstrap_normals, _pair_maxima, _rank_bounds, _upper_quantile
from rankinfer.ranking import irank


def diag_estimates(theta, se, labels=None):
    theta = np.asarray(theta, dtype=float)
    se = np.asarray(se, dtype=float)
    return EstimatesWithCovariance(theta, np.diag(se**2), labels=labels)


CFG = BootstrapConfig(draws=2000, coverage=0.95, seed=42)


class TestEstimates:
    def test_needs_two_populations(self):
        with pytest.raises(InsufficientCategories):
            EstimatesWithCovariance(np.array([1.0]), np.array([[1.0]]))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            EstimatesWithCovariance(np.array([1.0, 2.0]), np.eye(3))
        with pytest.raises(ValueError):
            EstimatesWithCovariance(np.ones((2, 2)), np.eye(2))

    def test_symmetry_enforced(self):
        sigma = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValueError):
            EstimatesWithCovariance(np.array([0.0, 1.0]), sigma)

    def test_symmetry_tolerance_is_relative(self):
        # 1e-10 of the largest entry, at any scale
        for k in (-100, 0, 100):
            scale = 4.0**k
            ok = np.array([[1.0, 0.2], [0.2 + 5e-11, 1.0]]) * scale
            EstimatesWithCovariance(np.zeros(2), ok)
            with pytest.raises(ValueError, match="symmetric"):
                EstimatesWithCovariance(np.zeros(2), np.array([[1.0, 0.2], [0.2 + 2e-10, 1.0]])
                                        * scale)

    def test_negative_variance_rejected(self):
        with pytest.raises(NotPSD):
            EstimatesWithCovariance(np.array([0.0, 1.0]), np.diag([1.0, -0.1]))

    def test_labels(self):
        est = diag_estimates([1.0, 2.0], [0.1, 0.1], labels=("a", "b"))
        assert est.labels == ("a", "b")
        with pytest.raises(ValueError):
            diag_estimates([1.0, 2.0], [0.1, 0.1], labels=("a",))


class TestPairwiseSe:
    def test_formula(self):
        sigma = np.array([[4.0, 1.0, 0.0], [1.0, 9.0, 2.0], [0.0, 2.0, 16.0]])
        est = EstimatesWithCovariance(np.array([0.0, 1.0, 2.0]), sigma)
        se = pairwise_se(est)
        want01 = np.sqrt(4.0 + 9.0 - 2.0)
        assert se[0, 1] == pytest.approx(want01, abs=1e-15)
        assert se[1, 0] == se[0, 1]
        assert np.all(np.diag(se) == np.inf)

    def test_perfectly_coupled_pair(self):
        sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
        est = EstimatesWithCovariance(np.array([0.0, 1.0]), sigma)
        with pytest.raises(DegeneratePair):
            pairwise_se(est)

    @pytest.mark.parametrize("k", [-100, 0, 100])
    def test_pair_rule_is_relative(self, k):
        # sigma = 4^k [[1, c], [c, 1]], so se2 / (var_j + var_k) = 1 - c,
        # against 4 * 2^-53 = 2^-51 at every scale
        def check(c):
            sigma = np.array([[1.0, c], [c, 1.0]]) * 4.0**k
            return pairwise_se(EstimatesWithCovariance(np.zeros(2), sigma))

        se = check(1.0 - 2.0**-50)  # share 2^-50: kept
        assert se[0, 1] == 2.0**k * np.sqrt(2.0**-49)
        with pytest.raises(DegeneratePair):
            check(1.0 - 2.0**-52)  # share 2^-52, within rounding of zero
        with pytest.raises(DegeneratePair):
            check(1.0 + 2.0**-52)  # share -2^-52, within rounding of zero
        with pytest.raises(NotPSD):
            check(1.0 + 2.0**-50)  # share -2^-50, below what rounding makes

    def test_two_zero_variances_are_a_degenerate_pair(self):
        est = EstimatesWithCovariance(np.zeros(3), np.diag([0.0, 1.0, 0.0]))
        with pytest.raises(DegeneratePair, match="populations 0 and 2"):
            pairwise_se(est)

    def test_negative_pairwise_variance(self):
        sigma = np.array([[1.0, 2.0], [2.0, 1.0]])
        est = EstimatesWithCovariance(np.array([0.0, 1.0]), sigma)
        with pytest.raises(NotPSD):
            pairwise_se(est)

    def test_overflowing_pairwise_variance(self):
        est = EstimatesWithCovariance(np.zeros(3), np.diag([1e308, 1e308, 1.0]))
        with pytest.raises(NonFinite, match="overflows"):
            pairwise_se(est)

    def test_exactly_symmetric_for_tolerated_asymmetry(self):
        rng = np.random.default_rng(8)
        factor = rng.normal(size=(6, 6))
        sigma = factor @ factor.T / 6.0 + np.eye(6)
        sigma = sigma + np.triu(rng.uniform(-5e-11, 5e-11, (6, 6)), 1)
        assert not np.array_equal(sigma, sigma.T)
        se = pairwise_se(EstimatesWithCovariance(np.zeros(6), sigma))
        assert np.array_equal(se, se.T)


def _naive_pair_maxima(z, se, rows):
    out = np.zeros((z.shape[0], len(rows)))
    for draw in range(z.shape[0]):
        for col, j in enumerate(rows):
            out[draw, col] = max(
                abs(z[draw, k] - z[draw, j]) / se[j, k]
                for k in range(z.shape[1]) if k != j
            )
    return out


def _naive_rank_bounds(theta, se, rows, crit):
    lower, upper = [], []
    for j, c in zip(rows, crit):
        others = [k for k in range(theta.size) if k != j]
        lower.append(1 + sum(theta[j] - theta[k] + se[j, k] * c < 0.0 for k in others))
        upper.append(theta.size - sum(theta[j] - theta[k] - se[j, k] * c > 0.0 for k in others))
    return lower, upper


class TestPairMaxima:
    @given(st.integers(2, 12), st.integers(1, 40), st.integers(1, 60), st.integers(1, 3),
           st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([np.float64, np.float32]),
           st.data())
    @settings(deadline=None, max_examples=300)
    def test_matches_naive_loop(self, p, draws, cells, cpus, seed, dense, dtype, data):
        rng = np.random.default_rng(seed)
        if dense:
            factor = rng.normal(size=(p, 3))
            sigma = factor @ factor.T + np.diag(rng.uniform(0.05, 1.0, p))
            sigma = (sigma + sigma.T) / 2.0
        else:
            sigma = np.diag(rng.uniform(0.01, 1.0, p))
        se = pairwise_se(EstimatesWithCovariance(np.zeros(p), sigma))
        z = rng.normal(size=(draws, p))
        rows = data.draw(st.permutations(range(p)).flatmap(
            lambda perm: st.integers(1, p).map(lambda k: perm[:k])))
        # the naive loop takes each step on scalars of the pass's dtype
        naive = _naive_pair_maxima(z.astype(dtype), se.astype(dtype), range(p))
        z = z.astype(dtype)
        # a budget of `cells` values gives chunks of cells // p draws (at
        # least one): mostly several chunks, split over `cpus` workers
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rankcs, "_CHUNK_BYTES", cells * z.itemsize)
            mp.setattr(rankcs, "_WORKER_CELLS", 1)
            mp.setattr(rankcs, "_cpu_count", lambda: cpus)
            got = _pair_maxima(z, se, rows)
            joint = _pair_maxima(z, se, None)
        assert got.shape == (draws, len(rows))
        assert got.dtype == joint.dtype == dtype
        assert np.array_equal(got, naive[:, rows])
        # the all-population call skips the column updates; its per-draw
        # max is still the max over every pair
        assert joint.shape == (draws,)
        assert np.array_equal(joint, naive.max(axis=1))

        theta = np.round(rng.normal(size=p), 1)  # rounding makes ties
        crit = rng.uniform(0.0, 3.0, len(rows))
        lower, upper = _rank_bounds(theta, se, rows, crit)
        want_lower, want_upper = _naive_rank_bounds(theta, se, rows, crit)
        assert lower.tolist() == want_lower
        assert upper.tolist() == want_upper

    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.booleans(), st.booleans(),
           st.sampled_from(["edge", "edge", "zero"]), st.data())
    @settings(deadline=None, max_examples=300)
    def test_rank_bounds_at_the_knife_edge(self, p, seed, huge, simultaneous, kind, data):
        # critical values at c = |theta_j - theta_k| / se_jk of some pair,
        # up to 4 ulps either side, or 0; estimates near +-1.5e308 make
        # differences overflow. c stays below half of where some se_jk c
        # would overflow (a bootstrap's c is a few units)
        rng = np.random.default_rng(seed)
        scale = 1e300 if huge else 1.0
        sigma = np.diag(rng.uniform(0.01, 1.0, p)) * scale
        se = pairwise_se(EstimatesWithCovariance(np.zeros(p), sigma))
        cap = np.finfo(np.float64).max / 2 / max(se[~np.eye(p, dtype=bool)].max(), 1.0)
        if huge:
            theta = rng.choice([-1.5e308, -1e308, 1e308, 1.5e308], p) * rng.choice([1.0, 0.75], p)
        else:
            theta = np.round(rng.normal(size=p), 1)  # rounding makes ties
        rows = (list(range(p)) if simultaneous else
                data.draw(st.permutations(range(p)).flatmap(
                    lambda perm: st.integers(1, p).map(lambda k: perm[:k]))))
        crit = []
        for j in rows[:1] if simultaneous else rows:
            c = 0.0
            if kind == "edge":
                k = data.draw(st.sampled_from([k for k in range(p) if k != j]))
                ulps = data.draw(st.integers(-4, 4))
                with np.errstate(over="ignore"):
                    c = min(abs(theta[j] - theta[k]) / se[j, k], cap)
                for _ in range(abs(ulps)):
                    c = np.nextafter(c, np.inf if ulps > 0 else 0.0)
            crit.append(float(c))
        with np.errstate(over="ignore", invalid="ignore"):
            want_lower, want_upper = _naive_rank_bounds(
                theta, se, rows, crit * len(rows) if simultaneous else crit)
        lower, upper = _rank_bounds(theta, se, rows, crit[0] if simultaneous else crit)
        assert lower.tolist() == want_lower
        assert upper.tolist() == want_upper


class TestChunkedPass:
    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        # workers write disjoint slices of one output; a lost or misplaced
        # write would show as a difference from the naive loop
        rng = np.random.default_rng(11)
        p, draws = 12, 400
        se = pairwise_se(diag_estimates(np.zeros(p), rng.uniform(0.1, 1.0, p)))
        z = rng.normal(size=(draws, p))
        naive = _naive_pair_maxima(z, se, range(p))
        monkeypatch.setattr(rankcs, "_CHUNK_BYTES", 5 * p * 8)
        monkeypatch.setattr(rankcs, "_WORKER_CELLS", 1)
        monkeypatch.setattr(rankcs, "_cpu_count", lambda: 8)
        running = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert np.array_equal(_pair_maxima(z, se, range(p)), naive)
                assert np.array_equal(_pair_maxima(z, se, None), naive.max(axis=1))
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == running  # every worker joined

    def test_one_chunk_starts_no_thread(self, monkeypatch):
        # p=10 at 1000 draws: 45,000 pair cells, too few for a second thread
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
        rng = np.random.default_rng(0)
        se = pairwise_se(diag_estimates(np.zeros(10), np.full(10, 0.5)))
        _pair_maxima(rng.normal(size=(1000, 10)), se, range(10))
        assert started == []

    def test_worker_error_reaches_caller(self, monkeypatch):
        def fail(*args):
            raise MemoryError("chunk")

        monkeypatch.setattr(rankcs, "_CHUNK_BYTES", 64)
        monkeypatch.setattr(rankcs, "_WORKER_CELLS", 1)
        monkeypatch.setattr(rankcs, "_cpu_count", lambda: 2)
        monkeypatch.setattr(rankcs, "_pair_chunks", fail)
        se = pairwise_se(diag_estimates(np.zeros(4), np.ones(4)))
        with pytest.raises(MemoryError):
            _pair_maxima(np.zeros((10, 4)), se, None)


    @staticmethod
    def _ranges(monkeypatch, p, draws, rows):
        """(start, stop, width) of every range the pass runs, on 2 CPUs."""
        ranges = []
        pair_chunks = rankcs._pair_chunks

        def recording(z, se, order, out, columns, start, stop, width):
            ranges.append((start, stop, width))
            pair_chunks(z, se, order, out, columns, start, stop, width)

        monkeypatch.setattr(rankcs, "_pair_chunks", recording)
        monkeypatch.setattr(rankcs, "_cpu_count", lambda: 2)
        rng = np.random.default_rng(p)
        se = pairwise_se(diag_estimates(np.zeros(p), rng.uniform(0.1, 1.0, p)))
        _pair_maxima(rng.normal(size=(draws, p)), se, rows)
        return sorted(ranges)

    def test_single_chunk_pass_uses_both_cpus(self, monkeypatch):
        # p=600 at 200 draws fits one chunk of 218 draws but holds
        # 3.6e7 pair cells: one range per CPU
        for rows in (range(600), None):
            assert self._ranges(monkeypatch, 600, 200, rows) == [(0, 100, 218),
                                                                  (100, 200, 218)]

    def test_mid_size_pass_one_range(self, monkeypatch):
        # p=100 at 1000 draws holds 4.95e6 pair cells, p=200 about 2e7:
        # too few for a second thread to pay
        assert self._ranges(monkeypatch, 100, 1000, range(100)) == [(0, 1000, 1310)]
        assert self._ranges(monkeypatch, 200, 1000, None) == [(0, 1000, 655)]

    def test_small_pass_one_range(self, monkeypatch):
        assert self._ranges(monkeypatch, 10, 1000, range(10)) == [(0, 1000, 13107)]
        # one requested population of 30: 29,000 pair cells
        assert self._ranges(monkeypatch, 30, 1000, [4]) == [(0, 1000, 4369)]

    def test_p300_split_unchanged(self, monkeypatch):
        # two ranges of 500 draws, each cut into chunks of at most 436
        for rows in (range(300), None):
            assert self._ranges(monkeypatch, 300, 1000, rows) == [(0, 500, 436),
                                                                   (500, 1000, 436)]


def _screen_inputs(p, draws, seed, kind, scale):
    """Bootstrap draws and pair standard errors, both times 2**scale
    (exact), for a diagonal, a dense or a near-collinear covariance; the
    last has se about 1e-4 times the draws' spread."""
    rng = np.random.default_rng(seed)
    if kind == "diagonal":
        sigma = np.diag(rng.uniform(0.01, 1.0, p))
    elif kind == "dense":
        factor = rng.normal(size=(p, 3))
        sigma = factor @ factor.T + np.diag(rng.uniform(0.05, 1.0, p))
    else:
        common = np.ones((p, 1)) + rng.normal(0.0, 1e-4, (p, 1))
        sigma = common @ common.T + np.diag(rng.uniform(1e-9, 1e-8, p))
    est = EstimatesWithCovariance(np.zeros(p), (sigma + sigma.T) / 2.0)
    z = mvn_sample(cholesky_psd(est.sigma_hat), SeededRng(seed), draws)
    return np.ldexp(z, scale), np.ldexp(pairwise_se(est), scale)


class TestScreenedCriticalValues:
    @staticmethod
    def _passes(monkeypatch):
        """dtype of every pair pass `_critical_values` runs."""
        dtypes = []
        pair_maxima = rankcs._pair_maxima

        def recording(z, se, rows):
            dtypes.append(z.dtype)
            return pair_maxima(z, se, rows)

        monkeypatch.setattr(rankcs, "_pair_maxima", recording)
        return dtypes

    @given(st.integers(2, 14), st.integers(100, 600),
           st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99]) | st.floats(0.01, 0.999),
           st.integers(0, 2**32 - 1), st.sampled_from(["diagonal", "dense", "collinear"]),
           st.sampled_from([0, 0, -60, 60, -120, 120, -130, 130]), st.integers(1, 400),
           st.data())
    @settings(deadline=None, max_examples=200)
    def test_bit_equal_to_float64_pass(self, p, draws, coverage, seed, kind, scale, cells,
                                       data):
        z, se = _screen_inputs(p, draws, seed, kind, scale)
        subsets = st.permutations(range(p)).flatmap(
            lambda perm: st.integers(1, p).map(lambda k: perm[:k]))
        rows = data.draw(st.none() | st.just(tuple(range(p))) | subsets)
        want = _upper_quantile(_pair_maxima(z, se, rows), coverage)
        with pytest.MonkeyPatch.context() as mp:
            dtypes = self._passes(mp)
            # small chunks also cut the float64 maxima of the windows
            mp.setattr(rankcs, "_CHUNK_BYTES", cells * 8)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = rankcs._critical_values(z, se, rows, coverage)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
        # the screen runs exactly where the documented range holds
        top = np.abs(z).max()
        pairs = se[~np.eye(p, dtype=bool)]
        low = pairs.min()
        in_range = (top <= 2.0**125 and top / low <= 2.0**125 and 2.0**-126 <= low
                    and pairs.max() <= 2.0**127)
        assert dtypes[0] == (np.float32 if in_range else np.float64)
        if abs(scale) > 125:
            assert not in_range

    def test_league_size_windows_skip_the_float64_pass(self, monkeypatch):
        z, se = _screen_inputs(300, 1000, 3, "dense", 0)
        dtypes = self._passes(monkeypatch)
        for rows in (range(300), None):
            assert np.array_equal(rankcs._critical_values(z, se, rows, 0.95),
                                  _upper_quantile(_pair_maxima(z, se, rows), 0.95))
        # the reference passes above call the unpatched function
        assert dtypes == [np.float32, np.float32]

    def test_subnormal_float32_draws(self, monkeypatch):
        # draws of 2^-140 are subnormal in float32, with a few bits each:
        # only the absolute terms of the bound cover their rounding
        for seed in range(10):
            z, se = _screen_inputs(8, 300, seed, "dense", -140)
            se = np.ldexp(se, 40)
            dtypes = self._passes(monkeypatch)
            for rows in ((0, 3, 5), None):
                assert np.array_equal(rankcs._critical_values(z, se, rows, 0.95),
                                      _upper_quantile(_pair_maxima(z, se, rows), 0.95))
            assert dtypes == [np.float32, np.float32]

    def test_fallback_conditions(self, monkeypatch):
        z, se = _screen_inputs(6, 200, 4, "dense", 0)
        cases = [
            (np.ldexp(z, 126), se),  # max|z| above 2^125
            (z, np.ldexp(se, -127)),  # an se below 2^-126
            (np.ldexp(z, 100), np.ldexp(se, -30)),  # max|z| / min se above 2^125
        ]
        for zc, sec in cases:
            dtypes = self._passes(monkeypatch)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = rankcs._critical_values(zc, sec, None, 0.95)
            assert dtypes == [np.float64]
            assert got == _upper_quantile(_pair_maxima(zc, sec, None), 0.95)

    def test_wide_windows_run_the_float64_pass(self, monkeypatch):
        # a bound as wide as the values puts every draw in the window
        z, se = _screen_inputs(5, 300, 6, "diagonal", 0)
        monkeypatch.setattr(rankcs, "_SCREEN_REL", 1.0)
        dtypes = self._passes(monkeypatch)
        got = rankcs._critical_values(z, se, range(5), 0.9)
        assert dtypes == [np.float32, np.float64]
        assert np.array_equal(got, _upper_quantile(_pair_maxima(z, se, range(5)), 0.9))


class TestQuantile:
    def test_order_statistic_convention(self):
        samples = np.arange(1.0, 101.0)
        assert _upper_quantile(samples, 0.95) == 95.0
        assert _upper_quantile(samples, 0.90) == 90.0
        assert _upper_quantile(samples, 0.001) == 1.0

    def test_float_slop_guard(self):
        # 0.94 * 50 is 47 up to float noise; must pick the 47th value
        samples = np.arange(1.0, 51.0)
        assert _upper_quantile(samples, 0.94) == 47.0


class TestBootstrapConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BootstrapConfig(draws=99)
        with pytest.raises(ValueError):
            BootstrapConfig(coverage=0.0)
        with pytest.raises(ValueError):
            BootstrapConfig(coverage=1.0)
        with pytest.raises(ValueError):
            BootstrapConfig(seed=-1)
        with pytest.raises(ValueError):
            BootstrapConfig(seed=2**64)


class TestCsRanks:
    def test_well_separated_estimates_are_pinned(self):
        est = diag_estimates([0.0, 10.0, 20.0], [0.01, 0.01, 0.01])
        cs = cs_ranks(est, CFG)
        assert list(cs.rank) == [3, 2, 1]
        assert list(cs.lower) == [3, 2, 1]
        assert list(cs.upper) == [3, 2, 1]

    def test_indistinguishable_estimates_full_range(self):
        est = diag_estimates([0.0, 0.001, -0.001], [10.0, 10.0, 10.0])
        cs = cs_ranks(est, CFG)
        assert np.all(cs.lower == 1)
        assert np.all(cs.upper == 3)

    def test_rank_uses_report_rule(self):
        theta = np.array([3.0, 9.0, 3.0, 5.0])
        est = diag_estimates(theta, np.full(4, 0.5))
        cs = cs_ranks(est, CFG)
        assert np.array_equal(cs.rank, irank(theta, REPORT_RULE))
        assert REPORT_RULE.omega == 0.0
        assert REPORT_RULE.direction == "decreasing"

    def test_marginal_nested_in_simultaneous(self):
        rng = np.random.default_rng(1)
        theta = rng.normal(size=8)
        est = diag_estimates(theta, np.full(8, 0.5))
        marg = cs_ranks(est, CFG, mode="marginal")
        simul = cs_ranks(est, CFG, mode="simultaneous")
        assert np.all(simul.lower <= marg.lower)
        assert np.all(simul.upper >= marg.upper)

    def test_deterministic_under_seed(self):
        est = diag_estimates([0.1, 0.4, 0.2, 0.9], [0.2, 0.3, 0.2, 0.4])
        a = cs_ranks(est, CFG)
        b = cs_ranks(est, CFG)
        assert np.array_equal(a.lower, b.lower)
        assert np.array_equal(a.upper, b.upper)

    def test_seed_changes_draws(self):
        est = diag_estimates([0.1, 0.4, 0.2], [0.3, 0.3, 0.3])
        se = pairwise_se(est)

        def simultaneous_crit(seed):
            z = _bootstrap_normals(est, BootstrapConfig(draws=500, seed=seed))
            return _upper_quantile(_pair_maxima(z, se, range(3)).max(axis=1), 0.95)

        assert simultaneous_crit(1) != simultaneous_crit(2)

    def test_indices_subset_matches_full(self):
        rng = np.random.default_rng(2)
        theta = rng.normal(size=6)
        est = diag_estimates(theta, np.full(6, 0.4), labels=tuple("abcdef"))
        full = cs_ranks(est, CFG)
        sub = cs_ranks(est, CFG, indices=[4, 1])
        assert sub.indices == (4, 1)
        assert sub.labels == ("e", "b")
        assert sub.lower[0] == full.lower[4]
        assert sub.upper[1] == full.upper[1]

    def test_simultaneous_subset_uses_every_pair(self):
        theta = np.linspace(0.0, 2.5, 12)
        est = diag_estimates(theta, np.full(12, 0.3))
        full = cs_ranks(est, CFG, mode="simultaneous")
        sub = cs_ranks(est, CFG, mode="simultaneous", indices=[0, 11, 5])
        assert np.array_equal(sub.lower, full.lower[[0, 11, 5]])
        assert np.array_equal(sub.upper, full.upper[[0, 11, 5]])

    def test_indices_validation(self):
        est = diag_estimates([0.0, 1.0], [0.1, 0.1])
        with pytest.raises(ValueError):
            cs_ranks(est, CFG, indices=[])
        with pytest.raises(ValueError):
            cs_ranks(est, CFG, indices=[0, 0])
        with pytest.raises(ValueError):
            cs_ranks(est, CFG, indices=[2])
        with pytest.raises(ValueError):
            cs_ranks(est, CFG, mode="both")

    def test_marginal_critical_value_reused(self):
        est = diag_estimates([0.0, 0.5, 1.0], [0.3, 0.3, 0.3])
        se = pairwise_se(est)
        z = _bootstrap_normals(est, CFG)
        c0 = _upper_quantile(_pair_maxima(z, se, [0])[:, 0], CFG.coverage)
        assert c0 > 0.0
        cm = _upper_quantile(_pair_maxima(z, se, range(3)).max(axis=1), CFG.coverage)
        assert cm >= c0 - 1e-12

    def test_correlated_covariance_accepted(self):
        cov = 0.09 * np.array(
            [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]]
        )
        est = EstimatesWithCovariance(np.array([0.0, 0.2, 0.4]), cov)
        cs = cs_ranks(est, CFG)
        assert np.all(cs.lower <= cs.rank)
        assert np.all(cs.upper >= cs.rank)

    def test_singular_covariance_accepted(self):
        # rank 2 in three dimensions; plain Cholesky fails, the PSD
        # fallback must carry the bootstrap
        factor = np.array([[1.0, 0.0], [0.5, 0.0], [0.0, 1.0]])
        cov = factor @ factor.T
        est = EstimatesWithCovariance(np.array([0.0, 1.0, 2.0]), cov)
        cs = cs_ranks(est, CFG)
        assert cs.p == 3


class TestTauSets:
    def test_clear_leader(self):
        est = diag_estimates([10.0, 0.0, -10.0], [0.01, 0.01, 0.01])
        best = cs_tau_best(est, CFG, tau=1)
        assert best.members == (0,)
        worst = cs_tau_worst(est, CFG, tau=1)
        assert worst.members == (2,)

    def test_noisy_estimates_keep_everyone(self):
        est = diag_estimates([0.01, 0.0, -0.01], [5.0, 5.0, 5.0])
        best = cs_tau_best(est, CFG, tau=1)
        assert best.members == (0, 1, 2)

    def test_members_at_least_tau(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            est = diag_estimates(rng.normal(size=6), rng.uniform(0.05, 2.0, size=6))
            for tau in (1, 3, 6):
                assert len(cs_tau_best(est, CFG, tau).members) >= tau

    @pytest.mark.parametrize("case", ["diagonal", "dense", "overflow"])
    def test_worst_mirrors_best_of_negated(self, case):
        # both tau sets read one simultaneous set: L_j for the best, and
        # p + 1 - U_j for the worst, which is the best set of -theta
        rng = np.random.default_rng(6)
        p = 8
        theta = rng.normal(size=p)
        cov = np.diag(np.full(p, 0.16))
        if case != "diagonal":
            factor = rng.normal(0.0, 0.2, size=(p, 3))
            cov = factor @ factor.T + np.diag(rng.uniform(0.02, 0.08, p))
            cov = (cov + cov.T) / 2.0
        if case == "overflow":
            # differences of opposite-signed estimates overflow to +-inf
            theta = np.array([1.5e308, 1.4e308, -1.5e308, -1.4e308,
                              1.5e308, 0.0, -1.5e308, 1.4e308])
        est = EstimatesWithCovariance(theta, cov)
        neg = EstimatesWithCovariance(-theta, cov)
        simul = cs_ranks(est, CFG, "simultaneous")
        for tau in range(1, p + 1):
            best = cs_tau_best(est, CFG, tau).members
            worst = cs_tau_worst(est, CFG, tau).members
            assert best == tuple(np.flatnonzero(simul.lower <= tau))
            assert worst == tuple(np.flatnonzero(p + 1 - simul.upper <= tau))
            assert worst == cs_tau_best(neg, CFG, tau).members

    def test_tau_validation(self):
        est = diag_estimates([0.0, 1.0], [0.1, 0.1])
        with pytest.raises(ValueError):
            cs_tau_best(est, CFG, tau=0)
        with pytest.raises(ValueError):
            cs_tau_best(est, CFG, tau=3)

    def test_tau_set_grows_with_tau(self):
        rng = np.random.default_rng(7)
        est = diag_estimates(rng.normal(size=7), np.full(7, 0.6))
        sizes = [len(cs_tau_best(est, CFG, tau=t).members) for t in range(1, 8)]
        assert sizes == sorted(sizes)


class TestResultInvariants:
    def test_bounds_bracket_rank_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = int(rng.integers(2, 9))
            est = diag_estimates(rng.normal(size=p), rng.uniform(0.01, 1.5, size=p))
            for mode in ("marginal", "simultaneous"):
                cs = cs_ranks(est, BootstrapConfig(draws=400, seed=int(rng.integers(1 << 32))), mode=mode)
                assert np.all(cs.lower >= 1)
                assert np.all(cs.upper <= p)
                assert np.all(cs.lower <= cs.rank)
                assert np.all(cs.rank <= cs.upper)

    def test_result_validation_guards(self):
        with pytest.raises(ValueError):
            RankConfidenceSet(
                indices=(0,),
                lower=np.array([0]),
                rank=np.array([1.0]),
                upper=np.array([2]),
                p=2,
                mode="marginal",
                coverage=0.95,
            )
        with pytest.raises(ValueError):
            TauBestSet(tau=2, members=(0,), coverage=0.95, p=3)

    def test_bootstrap_draws_shared_across_indices(self):
        # per-index marginal sets must come from one shared draw matrix:
        # rerunning with the same seed but a subset of indices agrees
        est = diag_estimates([0.3, 0.1, 0.2, 0.0], np.full(4, 0.15))
        full = cs_ranks(est, CFG)
        for j in range(4):
            solo = cs_ranks(est, CFG, indices=[j])
            assert solo.lower[0] == full.lower[j]
            assert solo.upper[0] == full.upper[j]


def test_mvn_pipeline_matches_manual_transform():
    # cs machinery consumes exactly the draws mvn_sample yields
    sigma = np.diag([0.04, 0.09])
    left = cholesky_psd(sigma)
    draws = mvn_sample(left, SeededRng(77), 300)
    assert draws.shape == (300, 2)
    again = mvn_sample(left, SeededRng(77), 300)
    assert np.array_equal(draws, again)
