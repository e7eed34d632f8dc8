import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from rankinfer.errors import (
    EmptyGroup,
    FormulaError,
    InputError,
    MissingColumn,
    MissingValues,
    NonFinite,
    RankDeficient,
)
from rankinfer.ranking import TieRule, frank
from rankinfer.rankreg.model import (
    INFERENCE_WARNING,
    INTERCEPT_NAME,
    RankRegressionModel,
    _group_codes,
    build_design,
    confint,
    fit,
    summarize,
)

from oracles import dense_design


def model_from(text, omega=1.0):
    return RankRegressionModel.from_formula(text, omega=omega)


def test_identity_data_gives_unit_slope():
    x = np.arange(20, dtype=float)
    result = fit(model_from("r(Y) ~ r(X)"), {"Y": x, "X": x})
    slope, intercept = result.coefficients
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)


def test_design_column_order():
    rng = np.random.default_rng(0)
    data = {
        "Y": rng.normal(size=15),
        "X": rng.normal(size=15),
        "W": rng.normal(size=15),
    }
    design = build_design(model_from("r(Y) ~ W + r(X)"), data)
    # ranked regressor leads regardless of formula order, intercept last
    assert design.colnames == ("r(X)", "W", INTERCEPT_NAME)
    assert design.x_cols == (0,)
    rule = TieRule(omega=1.0, direction="increasing")
    assert np.allclose(design.z[:, 0], frank(data["X"], rule).values)
    assert np.allclose(design.z[:, 2], 1.0)
    assert np.allclose(design.y, frank(data["Y"], rule).values)


def test_fit_matches_lstsq_on_same_design():
    rng = np.random.default_rng(1)
    n = 60
    data = {
        "Y": rng.normal(size=n),
        "X": rng.choice(rng.normal(size=12), size=n),
        "W": rng.normal(size=n),
    }
    for omega in (0.5, 1.0):
        result = fit(model_from("r(Y) ~ r(X) + W", omega=omega), data)
        design = result.design
        want, *_ = np.linalg.lstsq(design.z, design.y, rcond=None)
        assert np.allclose(result.coefficients, want, atol=1e-12)
        assert np.allclose(
            result.residuals, design.y - design.z @ result.coefficients
        )


def test_omega_changes_rank_transform_under_ties():
    y = np.array([1.0, 1.0, 2.0, 3.0, 3.0, 4.0])
    x = np.array([2.0, 2.0, 2.0, 5.0, 6.0, 7.0])
    a = fit(model_from("r(Y) ~ r(X)", omega=0.0), {"Y": y, "X": x})
    b = fit(model_from("r(Y) ~ r(X)", omega=1.0), {"Y": y, "X": x})
    assert not np.allclose(a.coefficients, b.coefficients)


def test_grouped_design_expansion():
    rng = np.random.default_rng(2)
    n = 30
    data = {
        "Y": rng.normal(size=n),
        "X": rng.normal(size=n),
        "W": rng.normal(size=n),
        "G": np.repeat(["north", "south"], n // 2),
    }
    design = build_design(model_from("r(Y) ~ (r(X) + W):G"), data)
    # z keeps the three base columns; the design has one copy per level
    assert design.z.shape == (n, 3)
    z = dense_design(design, data)
    assert z.shape[1] == 6
    assert design.colnames == (
        "r(X):north",
        "r(X):south",
        "W:north",
        "W:south",
        f"{INTERCEPT_NAME}:north",
        f"{INTERCEPT_NAME}:south",
    )
    # ranks stay pooled: each rank column is the pooled frank masked to
    # the group rows
    rule = TieRule(omega=1.0, direction="increasing")
    pooled = frank(data["X"], rule).values
    north = data["G"] == "north"
    assert np.allclose(z[north, 0], pooled[north])
    assert np.allclose(z[~north, 0], 0.0)


def test_grouped_fit_equals_per_group_fits():
    rng = np.random.default_rng(3)
    n = 80
    g = rng.choice(["a", "b", "c"], size=n)
    data = {
        "Y": rng.normal(size=n),
        "X": rng.normal(size=n),
        "W": rng.normal(size=n),
        "G": g,
    }
    result = fit(model_from("r(Y) ~ (r(X) + W):G"), data)
    design = result.design
    rule = TieRule(omega=1.0, direction="increasing")
    ry = frank(data["Y"], rule).values
    rx = frank(data["X"], rule).values
    for level in np.unique(g):
        rows = g == level
        z_g = np.column_stack([rx[rows], data["W"][rows], np.ones(rows.sum())])
        want, *_ = np.linalg.lstsq(z_g, ry[rows], rcond=None)
        got = [
            result.coefficients[design.colnames.index(f"{nm}:{level}")]
            for nm in ("r(X)", "W", INTERCEPT_NAME)
        ]
        assert np.allclose(got, want, atol=1e-10)


def test_single_level_group_warns_and_pools():
    rng = np.random.default_rng(4)
    data = {
        "Y": rng.normal(size=10),
        "X": rng.normal(size=10),
        "G": ["only"] * 10,
    }
    result = fit(model_from("r(Y) ~ r(X):G"), data)
    assert any("single level" in w for w in result.design.warnings)
    assert result.design.colnames == ("r(X)", INTERCEPT_NAME)


def _object_codes(labels):
    levels, codes = np.unique(np.asarray(labels, dtype=object), return_inverse=True)
    return [str(lvl) for lvl in levels], codes.tolist()


@pytest.mark.parametrize("labels", [
    ["b", "a", "b", "c", "a"],
    ["a", "a\x00", "a", "a\x00"],  # differ only by a trailing NUL
    ["x\x00y", "x", "", "é", "x\x00y"],
    [3, 1, 3, 2],
    ["1", 1, "1", 1.5],  # unorderable mix: the object path raises as before
])
def test_group_codes_match_object_path(labels):
    raw = np.asarray(labels, dtype=object)
    try:
        want = _object_codes(labels)
    except TypeError:
        with pytest.raises(TypeError):
            _group_codes(raw)
        return
    levels, codes = _group_codes(raw)
    assert ([str(lvl) for lvl in levels], codes.tolist()) == want


@given(st.lists(st.text(alphabet="ab\x00é", max_size=3), min_size=1, max_size=30))
@settings(deadline=None, max_examples=200)
def test_group_codes_match_object_path_random(labels):
    levels, codes = _group_codes(np.asarray(labels, dtype=object))
    assert ([str(lvl) for lvl in levels], codes.tolist()) == _object_codes(labels)


def test_group_codes_memory_independent_of_label_length():
    # one 4096-character label among 1000 rows: a fixed-width copy of the
    # labels would take 1000 x 4096 x 4 bytes (16 MiB)
    labels = ["g" * 4096] + ["a", "b"] * 500
    raw = np.asarray(labels, dtype=object)
    tracemalloc.start()
    try:
        levels, codes = _group_codes(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(levels) == ["a", "b", "g" * 4096]
    assert codes.tolist() == [2] + [0, 1] * 500
    assert peak < 1 << 20


@pytest.mark.parametrize("labels,levels", [
    (["a", "a\x00"] * 4, ["a", "a\x00"]),  # differ only by a trailing NUL
    (["b", "", "a", "b", "", "a"], ["", "a", "b"]),
    ([2, 1] * 4, [1, 2]),
])
def test_list_labels_fit_as_object_array(labels, levels):
    rng = np.random.default_rng(5)
    data = {"Y": rng.normal(size=len(labels)), "X": rng.normal(size=len(labels))}
    fits = [fit(model_from("r(Y) ~ r(X):G"), {**data, "G": group})
            for group in (labels, np.asarray(labels, dtype=object))]
    for result in fits:
        assert result.design.colnames == tuple(
            f"{name}:{level}" for name in ("r(X)", INTERCEPT_NAME) for level in levels)
        assert not result.design.warnings
    assert np.array_equal(fits[0].coefficients, fits[1].coefficients)


def test_tiny_group_rejected():
    data = {
        "Y": np.arange(5, dtype=float),
        "X": np.arange(5, dtype=float),
        "G": ["a", "a", "a", "a", "b"],
    }
    with pytest.raises(EmptyGroup):
        fit(model_from("r(Y) ~ r(X):G"), data)


def test_missing_column_and_values():
    with pytest.raises(MissingColumn):
        fit(model_from("r(Y) ~ r(X)"), {"Y": np.ones(3)})
    with pytest.raises(MissingValues):
        fit(
            model_from("r(Y) ~ r(X)"),
            {"Y": np.array([1.0, np.nan]), "X": np.array([1.0, 2.0])},
        )
    with pytest.raises(NonFinite):
        fit(
            model_from("r(Y) ~ r(X)"),
            {"Y": np.array([1.0, np.inf]), "X": np.array([1.0, 2.0])},
        )
    with pytest.raises(InputError):
        fit(
            model_from("r(Y) ~ r(X)"),
            {"Y": np.ones(3), "X": np.ones(2)},
        )
    with pytest.raises(InputError):
        fit(model_from("r(Y) ~ r(X)"), {"Y": np.array([]), "X": np.array([])})


def test_collinear_design_rejected():
    x = np.arange(12, dtype=float)
    data = {"Y": x, "X": x, "W": 2.0 * x}
    with pytest.raises(RankDeficient):
        fit(model_from("Y ~ X + W"), data)


def test_model_validation():
    with pytest.raises(FormulaError):
        RankRegressionModel(
            response="Y",
            response_ranked=True,
            regressors=(("X", True), ("Z", True)),
        )
    with pytest.raises(FormulaError):
        RankRegressionModel(
            response="Y",
            response_ranked=True,
            regressors=(("X", False), ("X", False)),
        )
    with pytest.raises(ValueError):
        RankRegressionModel(
            response="Y", response_ranked=True, regressors=(("X", True),), omega=1.5
        )


@pytest.mark.parametrize("formula", ["r(Y) ~ (r(X) + W):W", "r(Y) ~ r(W):W", "r(W) ~ r(X):W",
                                     "W ~ (r(X) + W):W"])
def test_group_column_in_formula_rejected(formula):
    # a variable constant within each group has no slope there: the model
    # is refused up front, not fitted to a collinear design
    with pytest.raises(FormulaError, match="column 'W' is the group"):
        RankRegressionModel.from_formula(formula)


def test_summarize_table():
    rng = np.random.default_rng(5)
    n = 120
    x = rng.normal(size=n)
    y = 0.8 * x + rng.normal(size=n)
    summary = summarize(fit(model_from("r(Y) ~ r(X)"), {"Y": y, "X": x}))
    assert summary.names == ("r(X)", INTERCEPT_NAME)
    assert INFERENCE_WARNING in summary.warnings
    slope = summary.estimates[0]
    se = summary.std_errors[0]
    assert se > 0.0
    assert summary.z_values[0] == pytest.approx(slope / se)
    want_p = math.erfc(abs(summary.z_values[0]) / math.sqrt(2.0))
    assert summary.p_values[0] == pytest.approx(want_p, rel=1e-12)
    assert summary.stars[0] == "***"
    rows = summary.rows()
    assert rows[0]["name"] == "r(X)"
    assert rows[0]["estimate"] == pytest.approx(slope)


def test_summary_matches_per_coefficient_loop():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(20, 80))
        data = {
            "Y": rng.normal(size=n),
            "X": rng.normal(size=n),
            "W": rng.normal(size=n),
            "G": rng.choice(["a", "b", "c"], size=n),
        }
        summary = summarize(fit(model_from("r(Y) ~ (r(X) + W):G"), data))
        for est, se, z, p in zip(summary.estimates, summary.std_errors,
                                 summary.z_values, summary.p_values):
            assert z == est / se
            assert p == float(erfc(abs(z) / math.sqrt(2.0)))


def test_confint_width_scales_with_level():
    rng = np.random.default_rng(6)
    n = 100
    x = rng.normal(size=n)
    y = 0.5 * x + rng.normal(size=n)
    result = fit(model_from("r(Y) ~ r(X)"), {"Y": y, "X": x})
    summary = summarize(result)
    narrow = confint(summary, level=0.5)
    wide = confint(summary, level=0.99)
    assert np.all(wide[:, 0] <= narrow[:, 0])
    assert np.all(wide[:, 1] >= narrow[:, 1])
    est = result.coefficients
    assert np.all(narrow[:, 0] <= est)
    assert np.all(est <= narrow[:, 1])
    with pytest.raises(ValueError):
        confint(summary, level=1.0)


def test_confint_matches_normal_quantile():
    rng = np.random.default_rng(7)
    n = 90
    x = rng.normal(size=n)
    y = x + rng.normal(size=n)
    result = fit(model_from("r(Y) ~ r(X)"), {"Y": y, "X": x})
    summary = summarize(result)
    ci = confint(summary, level=0.95)
    half = 1.959963984540054 * summary.std_errors
    assert np.array_equal(ci[:, 0], summary.estimates - half)
    assert np.array_equal(ci[:, 1], summary.estimates + half)
