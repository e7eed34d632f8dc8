import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rankinfer import ranking as ranking_mod
from rankinfer.rankreg import variance as variance_mod
from rankinfer.errors import DegenerateCovariance, NonFinite, RankDeficient
from rankinfer.ranking import _TieRuns
from rankinfer.rankreg.model import RankRegressionModel, confint, fit, summarize
from rankinfer.rankreg.variance import (
    _indicator_table,
    corrected_vcov,
    projection_from_inverse,
)

from oracles import (
    dense_design,
    hc0_sandwich,
    loop_corrected_vcov,
    naive_corrected_vcov,
    naive_indicator_matvec,
    naive_indicator_matvec_loop,
    spearman_rho,
)


def model_from(text, omega=1.0):
    return RankRegressionModel.from_formula(text, omega=omega)


def tied_sample(rng, n, pool):
    return rng.choice(rng.normal(size=pool), size=n)


class TestIndicatorMatvec:
    def test_matrix_oracle_defends_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(1, 25))
            x = tied_sample(rng, n, max(1, n // 2))
            v = rng.normal(size=n)
            for omega in (0.0, 0.3, 1.0):
                assert np.allclose(
                    naive_indicator_matvec(x, v, omega),
                    naive_indicator_matvec_loop(x, v, omega),
                    atol=1e-12,
                )

    def test_matches_naive_product(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(1, 120))
            x = tied_sample(rng, n, int(rng.integers(1, n + 1)))
            v = rng.normal(size=n)
            omega = float(rng.choice([0.0, 0.3, 0.5, 1.0]))
            ties = _TieRuns.of(x)
            got = _indicator_table(ties, v, omega).take(ties.code)
            want = naive_indicator_matvec(x, v, omega)
            assert np.abs(got - want).max() < 1e-12

    def test_scatter_code_path(self, monkeypatch):
        # force the mostly-distinct branch onto small inputs
        monkeypatch.setattr(ranking_mod, "_SEARCH_TABLE_MAX", 0)
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 80))
            x = tied_sample(rng, n, int(rng.integers(1, n + 1)))
            v = rng.normal(size=n)
            omega = float(rng.choice([0.0, 0.5, 1.0]))
            ties = _TieRuns.of(x)
            got = _indicator_table(ties, v, omega).take(ties.code)
            want = naive_indicator_matvec(x, v, omega)
            assert np.abs(got - want).max() < 1e-12

    def test_reusable_structure(self):
        # one tie structure serves products with several vectors, and on
        # a subset of rows (v zero elsewhere)
        rng = np.random.default_rng(3)
        x = tied_sample(rng, 50, 9)
        ties = _TieRuns.of(x)
        rows = rng.permutation(50)[:20]
        for omega in (0.0, 0.25, 1.0):
            v = rng.normal(size=50)
            assert np.allclose(
                _indicator_table(ties, v, omega).take(ties.code),
                naive_indicator_matvec(x, v, omega),
                atol=1e-12,
            )
            on_rows = np.zeros(50)
            on_rows[rows] = v[rows]
            assert np.allclose(
                _indicator_table(ties, v[rows], omega, rows).take(ties.code),
                naive_indicator_matvec(x, on_rows, omega),
                atol=1e-12,
            )

    def test_validation(self):
        ties = _TieRuns.of(np.ones(3))
        with pytest.raises(ValueError):
            _indicator_table(ties, np.ones(2), 0.5)
        with pytest.raises(ValueError):
            _indicator_table(ties, np.ones(3), 0.5, slice(1, None))
        with pytest.raises(NonFinite):
            _indicator_table(ties, np.array([1.0, np.inf, 0.0]), 0.5)
        with pytest.raises(NonFinite):
            _indicator_table(ties, np.array([1.0, np.nan, 0.0]), 0.5)


class TestProjection:
    def test_columns_are_regressions_on_the_rest(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(12, 100))
            k = int(rng.integers(2, 7))
            z = rng.normal(size=(n, k))
            z[:, -1] = 1.0
            ztz_inv = np.linalg.inv(z.T @ z)
            proj = projection_from_inverse(ztz_inv)
            for j in range(k):
                others = [c for c in range(k) if c != j]
                gamma, *_ = np.linalg.lstsq(z[:, others], z[:, j], rcond=None)
                want = np.empty(k)
                want[j] = 1.0
                want[others] = -gamma
                assert np.abs(proj[:, j] - want).max() < 1e-10


class TestCorrectedVcov:
    def configs(self):
        rng = np.random.default_rng(6)
        n = 90
        for omega in (0.5, 1.0):
            for with_cov in (False, True):
                for tie_pool in (None, 20):
                    y = tied_sample(rng, n, tie_pool) if tie_pool else rng.normal(size=n)
                    x = tied_sample(rng, n, tie_pool) if tie_pool else rng.normal(size=n)
                    data = {"Y": y, "X": x}
                    text = "r(Y) ~ r(X)"
                    if with_cov:
                        data["W"] = rng.normal(size=n)
                        text = "r(Y) ~ r(X) + W"
                    yield model_from(text, omega=omega), data

    def test_matches_naive_double_loop(self):
        for model, data in self.configs():
            result = fit(model, data)
            got = corrected_vcov(result)
            want = naive_corrected_vcov(result, data)
            rel = np.abs(got - want).max() / np.abs(want).max()
            assert rel < 1e-10

    def test_grouped_matches_naive(self):
        rng = np.random.default_rng(7)
        n = 96
        data = {
            "Y": tied_sample(rng, n, 30),
            "X": rng.normal(size=n),
            "W": rng.normal(size=n),
            "G": rng.choice(["a", "b", "c"], size=n),
        }
        for omega in (0.5, 1.0):
            result = fit(model_from("r(Y) ~ (r(X) + W):G", omega=omega), data)
            got = corrected_vcov(result)
            want = naive_corrected_vcov(result, data)
            rel = np.abs(got - want).max() / np.abs(want).max()
            assert rel < 1e-10

    def test_raw_response_with_ranked_regressor(self):
        rng = np.random.default_rng(8)
        n = 70
        data = {"Y": rng.normal(size=n), "X": tied_sample(rng, n, 15)}
        result = fit(model_from("Y ~ r(X)", omega=0.5), data)
        got = corrected_vcov(result)
        want = naive_corrected_vcov(result, data)
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-10

    def test_reduces_to_hc0_without_ranks(self):
        rng = np.random.default_rng(9)
        n = 150
        data = {
            "Y": rng.normal(size=n),
            "X": rng.normal(size=n),
            "W": rng.normal(size=n),
        }
        result = fit(model_from("Y ~ X + W"), data)
        got = corrected_vcov(result)
        want = hc0_sandwich(result.design.z, result.residuals)
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-12

    def test_spearman_slope(self):
        rng = np.random.default_rng(10)
        n = 400
        x = rng.normal(size=n)
        y = 0.6 * x + rng.normal(size=n)
        result = fit(model_from("r(Y) ~ r(X)"), {"Y": y, "X": x})
        rho = spearman_rho(x, y)
        assert abs(result.coefficients[0] - rho) < 1e-12

    def test_overflow_raises_without_warnings(self):
        data = {"Y": np.array([1e200, -1e200, 1e200, 4.0, 2.0]),
                "X": np.array([2.0, 3.0, 1.0, 5.0, 2.0])}
        result = fit(model_from("Y ~ r(X)"), data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateCovariance):
                corrected_vcov(result)

    def test_symmetric_nonnegative_diagonal(self):
        rng = np.random.default_rng(11)
        data = {"Y": rng.normal(size=40), "X": rng.normal(size=40)}
        result = fit(model_from("r(Y) ~ r(X)"), data)
        cov = corrected_vcov(result)
        assert np.array_equal(cov, cov.T)
        assert np.all(np.diag(cov) >= 0.0)

    @pytest.mark.parametrize("text", ["r(Y) ~ r(X) + W", "r(Y) ~ (r(X) + W):G", "Y ~ X"])
    def test_summary_carries_the_covariance(self, text):
        rng = np.random.default_rng(12)
        n = 50
        data = {
            "Y": tied_sample(rng, n, 15),
            "X": rng.normal(size=n),
            "W": rng.normal(size=n),
            "G": rng.choice(["a", "b"], size=n),
        }
        result = fit(model_from(text, omega=0.5), data)
        summary = summarize(result)
        assert np.array_equal(summary.vcov, corrected_vcov(result))
        assert np.array_equal(summary.std_errors, np.sqrt(np.diag(summary.vcov)))

    @pytest.mark.parametrize(
        "text,ranked_columns",
        [
            ("r(Y) ~ r(X) + W", 2),
            ("Y ~ r(X)", 1),
            ("r(Y) ~ X", 1),
            ("r(Y) ~ (r(X) + W):G", 2),
            ("Y ~ X + W", 0),
        ],
    )
    def test_one_tie_structure_per_ranked_column(self, monkeypatch, text, ranked_columns):
        rng = np.random.default_rng(13)
        n = 60
        data = {
            "Y": tied_sample(rng, n, 20),
            "X": tied_sample(rng, n, 20),
            "W": rng.normal(size=n),
            "G": rng.choice(["a", "b"], size=n),
        }
        built = []
        original = _TieRuns.of.__func__

        def counting(cls, x):
            built.append(x)
            return original(cls, x)

        monkeypatch.setattr(_TieRuns, "of", classmethod(counting))
        result = fit(model_from(text, omega=0.5), data)
        confint(summarize(result))
        corrected_vcov(result)
        assert len(built) == ranked_columns


@st.composite
def block_designs(draw):
    """A model and data whose design has 1 to 4 blocks of unequal size,
    with heavy ties in X and Y when the pools are small."""
    sizes = draw(st.lists(st.integers(6, 30), min_size=1, max_size=4))
    response, terms = draw(st.sampled_from(
        [("r(Y)", "r(X)"), ("r(Y)", "r(X) + W"), ("Y", "r(X) + W"), ("r(Y)", "X + W"),
         ("Y", "X + W")]
    ))
    x_pool, y_pool = draw(st.sampled_from([2, 3, 8, None])), draw(st.sampled_from([2, 4, None]))
    omega = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(sizes)
    x = tied_sample(rng, n, x_pool) if x_pool else rng.normal(size=n)
    noise = tied_sample(rng, n, y_pool) if y_pool else rng.normal(size=n)
    data = {
        "Y": 0.5 * x + noise,
        "X": x,
        "W": rng.normal(size=n),
        "G": rng.permutation(np.repeat([f"g{k}" for k in range(len(sizes))], sizes)),
    }
    text = f"{response} ~ ({terms}):G" if len(sizes) > 1 else f"{response} ~ {terms}"
    return model_from(text, omega=omega), data


def fit_or_skip(model, data):
    """The fit of a drawn design, skipping one that has no full rank or
    whose response holds one value within a level (pools of two values
    make such levels of six rows)."""
    try:
        return fit(model, data)
    except RankDeficient:
        assume(False)
    except DegenerateCovariance:
        y, g = data["Y"], data["G"]
        assert any(np.ptp(y[g == level]) == 0.0 for level in np.unique(g))
        assume(False)


# level g0's response holds one value
_FLAT_LEVEL = (model_from("r(Y) ~ (r(X)):G", omega=0.0), {
    "Y": np.array([0.5, 0.5, 0.5, 0.5, 0.5, 0.5, -0.25, 1.5, 0.5, -0.25, 1.5, 0.75]),
    "X": np.array([1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 2.0, 1.0]),
    "W": np.linspace(-1.0, 1.0, 12),
    "G": np.repeat(["g0", "g1"], 6),
})


def residual_gap_bound(z, y, beta):
    """Largest gap, to first order, between the residuals of two backward
    stable least-squares solvers on (z, y), each formed as y - z @ beta.

    Householder QR (Higham, Accuracy and Stability, 2nd ed., Thm 20.3;
    the SVD solver behind lstsq likewise) returns the exact solution for
    z + dz and y + dy with each column of dz, and dy, at most
    c n P u relative in 2-norm, u the unit roundoff; taking the small
    constant c as 1, ||dz||_2 <= delta ||z||_2 with delta = n P sqrt(P) u.
    Such a perturbation moves the exact residual by at most
    (1 + 2 kappa(z)) delta ||y||_2 (Wedin; Higham Thm 20.1), once per
    solver. Forming y - z @ beta in floats adds at most
    gamma_{P+1} (|y| + |z| @ |beta|) per row, once per solver.
    """
    n, cols = z.shape
    u = np.finfo(np.float64).eps / 2
    delta = n * cols * np.sqrt(cols) * u
    product = (cols + 1) * u / (1 - (cols + 1) * u)
    scale = np.abs(y) + np.abs(z) @ np.abs(beta)
    return (2 * (1 + 2 * np.linalg.cond(z)) * delta * np.linalg.norm(y)
            + 2 * product * scale.max())


@given(block_designs())
@settings(deadline=None, max_examples=150)
@example((model_from("Y ~ X + W"), {
    # two X values 6.0e-3 apart: coefficients -135 and 106 on X and the
    # intercept, and residuals 1.2e-12 from y - z @ lstsq
    "Y": np.array([-0.32525292832694397, -0.3342339062304149, 1.377165390847613,
                   1.9677481956139249, -0.32525292832694397, -0.32224421265723785]),
    "X": np.array([0.7829261825731328, 0.7889436139125451, 0.7829261825731328,
                   0.7829261825731328, 0.7829261825731328, 0.7889436139125451]),
    "W": np.array([0.4237200268935968, 1.20797210918276, 0.9339910712050429,
                   -0.8709651799067109, -0.019766213611441475, 0.06255313270103187]),
    "G": np.repeat(["g0"], 6),
}))
@example(_FLAT_LEVEL)
def test_block_fit_and_vcov_match_dense_oracles(case):
    model, data = case
    result = fit_or_skip(model, data)
    design = result.design
    z = dense_design(design, data)
    want, *_ = np.linalg.lstsq(z, design.y, rcond=None)
    got = result.coefficients
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    assert np.abs(result.residuals - (design.y - z @ want)).max() <= residual_gap_bound(
        z, design.y, want)
    want = naive_corrected_vcov(result, data)
    # a perfect fit, or a tie level on one row, leaves a covariance of
    # rounding noise with no digits to compare (the data are O(1))
    assume(np.abs(want).max() > 1e-12)
    got = corrected_vcov(result)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@given(block_designs())
@settings(deadline=None, max_examples=200)
@example(_FLAT_LEVEL)
def test_vcov_matches_per_column_loop_to_the_bit(case):
    # the per-value tables and the chunked fill give every influence
    # element the arithmetic of a length-n column per coefficient
    model, data = case
    result = fit_or_skip(model, data)
    assert np.array_equal(corrected_vcov(result), loop_corrected_vcov(result, data))


@pytest.mark.parametrize("cells", [1, 7, 1 << 16])
def test_vcov_independent_of_row_chunks(monkeypatch, cells):
    rng = np.random.default_rng(14)
    n = 300
    data = {
        "Y": tied_sample(rng, n, 25),
        "X": tied_sample(rng, n, 40),
        "W": rng.normal(size=n),
        "G": rng.choice(["a", "b", "c"], size=n),
    }
    for text in ("r(Y) ~ (r(X) + W):G", "r(Y) ~ r(X) + W"):
        result = fit(model_from(text, omega=0.5), data)
        want = loop_corrected_vcov(result, data)
        monkeypatch.setattr(variance_mod, "_ROW_CELLS", cells)
        assert np.array_equal(corrected_vcov(result), want)
