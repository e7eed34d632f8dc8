import math
import types
import warnings

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.special import ndtri

from rankinfer import multinomcs, numerics
from rankinfer.errors import NonFinite, NotPSD, RankDeficient
from rankinfer.numerics import (
    SeededRng,
    binom_tail,
    block_least_squares,
    cholesky_psd,
    inverse_from_qr,
    inverse_normal_cdf,
    mvn_sample,
    qr_decompose,
)

from oracles import exact_binom_tail, exact_binom_tails, masked_inverse_normal_cdf


def random_design(rng, n, k):
    z = rng.normal(size=(n, k))
    z[:, -1] = 1.0
    return z


class TestQR:
    def test_reconstructs_input(self):
        rng = np.random.default_rng(1)
        for n, k in [(10, 3), (50, 7), (5, 5)]:
            z = random_design(rng, n, k)
            f = qr_decompose(z)
            assert np.allclose(f.q @ f.r, z, atol=1e-12)
            assert np.allclose(f.q.T @ f.q, np.eye(k), atol=1e-12)
            assert np.allclose(np.triu(f.r), f.r)

    def test_inverse_matches_direct(self):
        rng = np.random.default_rng(2)
        z = random_design(rng, 40, 5)
        inv = inverse_from_qr(qr_decompose(z))
        assert np.allclose(inv, np.linalg.inv(z.T @ z), atol=1e-10)
        assert np.allclose(inv, inv.T)

    def test_collinear_raises(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(30, 3))
        z[:, 2] = 2.0 * z[:, 0] - z[:, 1]
        with pytest.raises(RankDeficient):
            qr_decompose(z)

    def test_more_columns_than_rows_raises(self):
        with pytest.raises(RankDeficient):
            qr_decompose(np.ones((2, 5)))

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            qr_decompose(np.ones(4))
        with pytest.raises(ValueError):
            qr_decompose(np.ones((4, 0)))
        with pytest.raises(NonFinite):
            qr_decompose(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestBlockLeastSquares:
    def _blocks(self, n):
        # two groups, coefficient b*2 + g for base column b on group g
        rows = np.arange(n) % 2
        return [(np.flatnonzero(rows == g), slice(g, None, 2)) for g in (0, 1)]

    def test_matches_dense_least_squares(self):
        rng = np.random.default_rng(4)
        z, y = random_design(rng, 30, 3), rng.normal(size=30)
        blocks = self._blocks(30)
        dense = np.zeros((30, 6))
        for rows, cols in blocks:
            dense[np.ix_(rows, np.arange(6)[cols])] = z[rows]
        f, coefficients, residuals = block_least_squares(z, y, blocks, 6)
        assert np.allclose(coefficients, np.linalg.lstsq(dense, y, rcond=None)[0])
        assert np.allclose(residuals, y - dense @ coefficients)
        assert np.allclose(f.r.T @ f.r, dense.T @ dense)

    def test_global_shape_and_block_checks(self):
        rng = np.random.default_rng(5)
        z = random_design(rng, 5, 3)
        with pytest.raises(RankDeficient, match=r"more columns \(6\) than rows \(5\)"):
            block_least_squares(z, np.zeros(5), self._blocks(5), 6)
        z = random_design(rng, 30, 3)
        # blocks that select fewer coefficients than z has columns
        with pytest.raises(ValueError, match="each block"):
            block_least_squares(z, np.zeros(30), self._blocks(30), 4)
        # a padded n x k z with the same blocks: each would read k columns
        with pytest.raises(ValueError, match="each block"):
            block_least_squares(np.hstack([z, z]), np.zeros(30), self._blocks(30), 6)


@st.composite
def block_problems(draw):
    """A block-diagonal least-squares problem: base columns z, response y,
    blocks and k. Blocks take contiguous coefficient ranges or the strided
    g::G layout of a grouped design; scales reach 1e+-120 (so (Z'Z)^-1
    stays finite), and a column can sit close to its neighbour
    (ill-conditioned but of full rank)."""
    width = draw(st.integers(1, 130))
    groups = draw(st.integers(1, 3))
    strided = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    per_group = [width + draw(st.integers(0, 12)) for _ in range(groups)]
    n = sum(per_group)
    z = rng.normal(size=(n, width)) * 10.0 ** rng.uniform(-3, 3, size=width)
    if width > 1 and draw(st.booleans()):
        j = draw(st.integers(1, width - 1))
        z[:, j] = z[:, j - 1] + 10.0 ** draw(st.floats(-3, 0)) * z[:, j]
    z *= 10.0 ** draw(st.integers(-120, 120))
    y = rng.normal(size=n) * 10.0 ** draw(st.integers(-120, 120))
    codes = rng.permutation(np.repeat(np.arange(groups), per_group))
    k = groups * width
    blocks = [(np.flatnonzero(codes == g),
               slice(g, None, groups) if strided else slice(g * width, (g + 1) * width))
              for g in range(groups)]
    return z, y, blocks, k


def _quiet(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    return out


def _fit_or_reject(z, y, blocks, k):
    try:
        return _quiet(block_least_squares, z, y, blocks, k)
    except RankDeficient:
        return None


def _scipy_inverse(r):
    rinv = solve_triangular(r, np.eye(r.shape[0]), lower=False)
    out = rinv @ rinv.T
    return (out + out.T) / 2.0


# bit equality with scipy's solve_triangular was measured on these
# versions only; other builds of the two LAPACKs may round differently
_BITS_MEASURED = (np.__version__, scipy.__version__) == ("2.4.6", "1.17.1")


class TestTriangularSolves:
    """Each block's coefficients solve R x = Q'y to a componentwise
    backward error of a few ulps, and (Z'Z)^-1 agrees with scipy's
    solve_triangular (LAPACK dtrtrs) to within its condition number. On
    numpy 2.4.6 with scipy 1.17.1 both carry scipy's bits: the
    coefficients below 64 columns per block (OpenBLAS solves in 64-row
    panels), the inverse at any width."""

    @given(block_problems())
    @settings(deadline=None, max_examples=150)
    def test_backward_error(self, problem):
        z, y, blocks, k = problem
        fitted = _fit_or_reject(z, y, blocks, k)
        if fitted is None:
            return
        f, coefficients, _ = fitted
        eps = np.finfo(np.float64).eps
        for rows, cols in blocks:
            q, r = np.linalg.qr(z[rows], mode="reduced")
            b, x = q.T @ y[rows], coefficients[cols]
            bound = 4 * r.shape[0] * eps * (np.abs(r) @ np.abs(x) + np.abs(b))
            assert np.all(np.abs(r @ x - b) <= bound)
        got, want = _quiet(inverse_from_qr, f), _scipy_inverse(f.r)
        bound = 8 * k * eps * np.linalg.cond(f.r) * np.linalg.norm(want, 2)
        assert np.linalg.norm(got - want, 2) <= bound

    @pytest.mark.skipif(not _BITS_MEASURED, reason="bits measured on numpy 2.4.6, scipy 1.17.1")
    @given(block_problems())
    @settings(deadline=None, max_examples=300)
    def test_bits_equal_scipy(self, problem):
        z, y, blocks, k = problem
        fitted = _fit_or_reject(z, y, blocks, k)
        if fitted is None:
            return
        f, coefficients, _ = fitted
        want = np.empty(k)
        for rows, cols in blocks:
            q, r = np.linalg.qr(z[rows], mode="reduced")
            assert np.array_equal(f.r[cols, cols], r)
            want[cols] = solve_triangular(r, q.T @ y[rows], lower=False)
        if z.shape[1] < 64:
            assert np.array_equal(coefficients, want)
        assert np.array_equal(_quiet(inverse_from_qr, f), _scipy_inverse(f.r))


class TestCholeskyPSD:
    def test_positive_definite(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 6))
        s = a @ a.T + 6 * np.eye(6)
        left = cholesky_psd(s)
        assert np.allclose(left, np.linalg.cholesky(s))

    def test_singular_psd(self):
        # rank-2 matrix in 5 dimensions
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 2))
        s = a @ a.T
        left = cholesky_psd(s)
        assert np.allclose(left @ left.T, s, atol=1e-10)
        assert np.allclose(np.tril(left), left)
        assert np.all(np.diag(left) >= -1e-12)

    def test_zero_matrix(self):
        left = cholesky_psd(np.zeros((3, 3)))
        assert np.allclose(left, 0.0)

    def test_indefinite_raises(self):
        s = np.diag([1.0, -0.5])
        with pytest.raises(NotPSD):
            cholesky_psd(s)

    def test_asymmetric_raises(self):
        with pytest.raises(ValueError):
            cholesky_psd(np.array([[1.0, 0.5], [0.1, 1.0]]))

    @pytest.mark.parametrize("k", [-60, -40, 0, 40])
    def test_asymmetry_refused_in_any_units(self, k):
        # the check is relative to max|s|, so rescaling cannot pass it
        with pytest.raises(ValueError, match="symmetric"):
            cholesky_psd(np.array([[1.0, 0.5], [0.4, 1.0]]) * 2.0**k)

    @pytest.mark.parametrize("k", [-30, -20, 0, 20])
    def test_factor_scales_exactly(self, k):
        s = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert np.array_equal(cholesky_psd(s * 4.0**k), cholesky_psd(s) * 2.0**k)


class TestInverseNormalCdf:
    def test_against_scipy(self):
        u = np.concatenate(
            [
                np.array([1e-12, 1e-9, 1e-5, 0.0242, 0.02425, 0.0243]),
                np.linspace(0.001, 0.999, 2001),
                1.0 - np.array([1e-12, 1e-9, 1e-5]),
            ]
        )
        ours = inverse_normal_cdf(u)
        ref = ndtri(u)
        rel = np.abs(ours - ref) / np.maximum(1.0, np.abs(ref))
        assert rel.max() < 2e-9

    def test_symmetry(self):
        u = np.linspace(0.01, 0.49, 100)
        assert np.allclose(inverse_normal_cdf(u), -inverse_normal_cdf(1.0 - u), atol=1e-9)

    def test_matches_masked_transform_bit_for_bit(self):
        # the central rational run on every element, tails overwritten,
        # gives the bits of each formula run on its own region: within 4
        # ulps of both region edges, at 2^-54 (the stream's smallest
        # value), at 1 - 2^-53 (the largest double below 1; 1 - 2^-54
        # rounds to 1.0) and on a million draws
        edges = []
        for edge in (numerics._ND_P_LOW, 1.0 - numerics._ND_P_LOW):
            below = above = edge
            for _ in range(4):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
                edges += [below, above]
            edges.append(edge)
        u = np.concatenate([edges, [2.0**-54, np.nextafter(1.0, 0.0)],
                            SeededRng(7).uniforms(10**6)])
        assert inverse_normal_cdf(u).tobytes() == masked_inverse_normal_cdf(u).tobytes()


class TestSeededRng:
    def test_bit_exact_repeat(self):
        a = SeededRng(123).uniforms(1000)
        b = SeededRng(123).uniforms(1000)
        assert np.array_equal(a, b)
        x = SeededRng(123).standard_normals((10, 7))
        y = SeededRng(123).standard_normals((10, 7))
        assert np.array_equal(x, y)

    @pytest.mark.parametrize("block", [1, 7, 64, 1 << 16])
    def test_blocked_normals_match_one_transform(self, monkeypatch, block):
        # filled block by block, the draws are those of one transform of
        # the whole uniform stream
        monkeypatch.setattr(numerics, "_NORMAL_BLOCK", block)
        got = SeededRng(5).standard_normals((37, 11))
        want = inverse_normal_cdf(SeededRng(5).uniforms(37 * 11)).reshape(37, 11)
        assert np.array_equal(got, want)

    def test_uniforms_open_interval(self):
        u = SeededRng(7).uniforms(100000)
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_uniforms_stay_below_one_at_the_stream_top(self, monkeypatch):
        # (2^53 - 1) + 0.5 rounds to 2^53, which would give exactly 1.0
        rng = SeededRng(0)
        k = np.array([0, 2**52, 2**53 - 1], dtype=np.uint64)
        monkeypatch.setattr(rng, "_gen", types.SimpleNamespace(
            integers=lambda low, high, size, dtype: k[:size].copy()))
        u = rng.uniforms(3)
        assert u.tolist() == [2.0**-54, 0.5, 1.0 - 2.0**-53]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(rng.standard_normals(3)))

    def test_normal_shape_and_moments(self):
        x = SeededRng(11).standard_normals(200000)
        assert abs(float(x.mean())) < 0.01
        assert abs(float(x.std()) - 1.0) < 0.01

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            SeededRng(-1)
        with pytest.raises(ValueError):
            SeededRng(2**64)


class TestMvnSample:
    def test_covariance_recovery(self):
        s = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, -0.3], [0.0, -0.3, 0.5]])
        left = cholesky_psd(s)
        draws = mvn_sample(left, SeededRng(21), 200000)
        emp = np.cov(draws.T)
        assert np.abs(emp - s).max() < 0.03

    def test_requires_lower_triangular(self):
        with pytest.raises(ValueError):
            mvn_sample(np.array([[1.0, 0.5], [0.0, 1.0]]), SeededRng(0), 10)

    def test_deterministic(self):
        left = np.eye(4)
        assert np.array_equal(
            mvn_sample(left, SeededRng(5), 50), mvn_sample(left, SeededRng(5), 50)
        )

    def test_draw_count_positive(self):
        with pytest.raises(ValueError):
            mvn_sample(np.eye(2), SeededRng(0), 0)


def _worst_rel_error(s, xs):
    """Largest relative error of binom_tail(x, s) over the x in xs whose
    exact tail is at least 1e-300."""
    exact = exact_binom_tails(s, xs)
    x = np.array(sorted(exact))
    got = binom_tail(x, s)
    worst = 0.0
    for xi, g in zip(x.tolist(), got.tolist()):
        want = float(exact[xi])
        if want >= 1e-300:
            worst = max(worst, abs(g - want) / want)
    return worst


class TestBinomTail:
    def test_exact_small_s(self):
        for s in range(0, 61):
            for x in range(0, s + 1):
                want = exact_binom_tail(x, s)
                got = binom_tail(x, s)
                if x == 0:
                    assert got == 1.0
                else:
                    assert math.isclose(got, float(want), rel_tol=1e-14, abs_tol=0.0)

    def test_every_x_at_old_cutoffs(self):
        # the former exact/log-space switches sat at s = 500 and s = 1000
        for s in (499, 500, 501, 999, 1000, 1001, 1002):
            worst = _worst_rel_error(s, range(0, s + 1))
            assert worst <= 1e-14, (s, worst)

    def test_sampled_x_large_s(self):
        for s in (2000, 5000, 20000, 65536):
            half = s // 2
            spread = np.linspace(-half, half, 101)
            near = math.sqrt(s) / 2 * np.linspace(-40, 40, 81)
            xs = {int(half + d) for d in np.concatenate([spread, near])}
            worst = _worst_rel_error(s, {x for x in xs if 0 <= x <= s})
            assert worst <= 1e-14, (s, worst)

    def test_probability_range(self):
        assert binom_tail(0, 10) == 1.0
        assert binom_tail(1, 1) == 0.5
        vals = binom_tail(np.arange(0, 201), 200)
        assert np.all((vals >= 0.0) & (vals <= 1.0))


class TestBinomTailNear2To53:
    """betaincc returns NaN for some pair totals in [2^52, 2^53] near
    s/2; binom_tail fills those with the continuity-corrected normal
    tail, whose own error there is below 7e-18."""

    def test_known_nan_cells_filled(self):
        s = 2**53 - 100
        got = binom_tail(np.array([s // 2, s // 2 + 1]), s)
        assert np.all(np.isfinite(got))
        # P(X >= s/2) = 1/2 + P(X = s/2) / 2, P(X = s/2) ~ sqrt(2 / (pi s))
        half = math.sqrt(2.0 / (math.pi * s)) / 2.0
        assert math.isclose(got[0], 0.5 + half, rel_tol=1e-14)
        assert math.isclose(got[1], 0.5 - half, rel_tol=1e-14)
        assert binom_tail(s // 2, s) == got[0]  # a 0-d call fills alike

    def test_broadcast_table(self):
        a, b = 4357395723352402, 4357395723353113
        x = np.array([a, b, 1])[:, None]
        table = binom_tail(x, x + np.array([a, b, 1])[None, :])
        assert np.all(np.isfinite(table))
        assert np.all((table >= 0.0) & (table <= 1.0))
        assert table[0, 1] + table[1, 0] > 1.0  # they overlap in P(X = x)

    @given(st.integers(2**52, 2**53), st.integers(-10**6, 10**6))
    @settings(deadline=None, max_examples=150)
    def test_matches_normal_reference(self, s, offset):
        import mpmath

        x = min(max(s // 2 + offset, 1), s)
        got = float(binom_tail(x, s))
        assert 0.0 < got < 1.0
        # the continuity-corrected normal tail at 40 digits; its error
        # against the exact tail is below 0.03 / s here. Where betaincc
        # is finite it was off by up to 1.7e-13 (1500 samples), still
        # inside the margin that sends a decision to exact arithmetic
        with mpmath.workdps(40):
            want = mpmath.erfc(mpmath.mpf(2 * x - 1 - s) / mpmath.sqrt(2 * s)) / 2
        assert math.isclose(got, float(want), rel_tol=multinomcs._SETTLE_RTOL)


def _log_tail(x, s):
    return np.log(binom_tail(x, s))


class TestLogBinomTail:
    """The log of the kernel as a log tail: exactly 0 at x = 0, never
    positive, and within 1e-12 of the exact log."""

    def test_exact_small_s(self):
        for s in range(0, 61):
            for x in range(0, s + 1):
                want = exact_binom_tail(x, s)
                got = _log_tail(x, s)
                if x == 0:
                    assert got == 0.0
                else:
                    assert math.isclose(got, math.log(want), rel_tol=0, abs_tol=1e-12)

    def test_log_space_branch_matches_exact(self):
        # every 1 <= x <= s <= 30, the small-s grid a log-space evaluation
        # can be checked on exactly, in one broadcast call
        s = np.arange(1, 31)[:, None]
        x = np.arange(1, 31)[None, :]
        got = np.exp(_log_tail(np.minimum(x, s), s))
        worst = 0.0
        for si in range(1, 31):
            for xi in range(1, si + 1):
                want = float(exact_binom_tail(xi, si))
                worst = max(worst, abs(got[si - 1, xi - 1] - want) / want)
        assert worst < 1e-14

    def test_threshold_crossing_consistent(self):
        # the former exact/log-space switch sat at s = 500
        for s in (500, 501):
            for x in (1, s // 4, s // 2, s // 2 + 20):
                got = _log_tail(x, s)
                total = sum(math.comb(s, i) for i in range(x, s + 1))
                want = min(0.0, math.log(total) - s * math.log(2.0))
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)

    def test_monotone_in_x(self):
        vals = _log_tail(np.arange(0, 41), 40)
        assert np.all(vals[:-1] >= vals[1:])

    def test_clamped_nonpositive(self):
        assert _log_tail(0, 10) == 0.0
        assert _log_tail(1, 1) == math.log(0.5)
        assert np.all(_log_tail(np.arange(0, 201), 200) <= 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            _log_tail(-1, 5)
        with pytest.raises(ValueError):
            _log_tail(6, 5)
