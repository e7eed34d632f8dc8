"""Model specification, design building, and OLS fitting for
regressions on ranked variables.

A model names a response and regressors, each optionally marked for
rank transformation (at most one ranked regressor). Marked columns are
replaced by their fractional ranks; an optional grouping column
interacts every regressor and the intercept with the group levels,
while the ranks themselves stay pooled over the whole sample.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.special import erfc, ndtri

from ..errors import (
    DegenerateCovariance,
    DomainError,
    EmptyGroup,
    FormulaError,
    InputError,
    MissingColumn,
    MissingValues,
    NonFinite,
)
from ..numerics import DenseMatrix, FloatArray, QRFactorization, block_least_squares
from ..ranking import TieRule, _TieRuns
from . import variance
from .formula import parse_formula

INTERCEPT_NAME = "(Intercept)"

INFERENCE_WARNING = (
    "inference is asymptotic: z-values and p-values use the standard normal "
    "distribution and the residual degrees of freedom are not valid"
)


@dataclass(frozen=True)
class RankRegressionModel:
    """Specification: which columns enter, which are rank-transformed,
    optional grouping, and the tie parameter omega used for the ranks
    (direction is always increasing)."""

    response: str
    response_ranked: bool
    regressors: tuple[tuple[str, bool], ...]
    group: str | None = None
    omega: float = 1.0

    def __post_init__(self):
        TieRule(self.omega, "increasing")  # checks omega
        ranked = [name for name, is_ranked in self.regressors if is_ranked]
        if len(ranked) > 1:
            raise FormulaError(
                f"at most one regressor may be ranked, got {len(ranked)}: "
                + ", ".join(f"r({name})" for name in ranked)
            )
        seen = set()
        for name, is_ranked in self.regressors:
            key = (name, is_ranked)
            if key in seen:
                term = f"r({name})" if is_ranked else name
                raise FormulaError(f"duplicate term {term}")
            seen.add(key)
        if self.group is not None and self.group in (
                self.response, *(name for name, _ in self.regressors)):
            # a variable constant within each group has no slope in it
            raise FormulaError(
                f"column {self.group!r} is the group and may not also be the "
                "response or a regressor"
            )
        if any(name == self.response for name, _ in self.regressors):
            # the column explains itself: the fit is exact and its standard
            # errors are rounding noise
            raise FormulaError(
                f"column {self.response!r} is the response and may not also be "
                "a regressor"
            )

    @property
    def ranked_regressor(self) -> str | None:
        for name, is_ranked in self.regressors:
            if is_ranked:
                return name
        return None

    @classmethod
    def from_formula(cls, text: str, omega: float = 1.0) -> "RankRegressionModel":
        parsed = parse_formula(text)
        return cls(
            response=parsed.response,
            response_ranked=parsed.response_ranked,
            regressors=parsed.terms,
            group=parsed.group,
            omega=omega,
        )


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """Built design: its base columns plus everything the variance
    machinery needs to know about where ranks entered it, including the
    tie runs of each ranked column.

    z holds the n x B base columns, grouped or not. The design itself is
    block-diagonal: `blocks` lists one (rows, cols) pair per group level
    (its rows, and its coefficient columns as the strided slice
    `code::G`), or a single block of every row and column when
    ungrouped, and a block's matrix is z[rows]; the design is zero
    outside its blocks and has len(colnames) = B x len(blocks) columns.
    `x_cols` holds the ranked regressor's column in each block, in block
    order.
    """

    z: FloatArray
    colnames: tuple[str, ...]
    y: FloatArray
    r_y: FloatArray | None
    ties_y: _TieRuns | None
    r_x: FloatArray | None
    ties_x: _TieRuns | None
    x_cols: tuple[int, ...]
    blocks: tuple[tuple[slice | np.ndarray, slice], ...]
    model: RankRegressionModel
    warnings: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.z.shape[0]


def _numeric_column(data: Mapping[str, object], name: str) -> FloatArray:
    if name not in data:
        raise MissingColumn(f"column '{name}' not found in the data")
    try:
        arr = np.asarray(data[name], dtype=np.float64)
    except (TypeError, ValueError):
        raise InputError(f"column '{name}' is not numeric") from None
    if arr.ndim != 1:
        raise InputError(f"column '{name}' must be 1-D")
    if np.any(np.isnan(arr)):
        raise MissingValues(
            f"column '{name}' contains missing values; subset the data first"
        )
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"column '{name}' contains infinite values")
    return arr


@dataclass(frozen=True, eq=False)
class CodedColumn:
    """A categorical column as its distinct labels, in any order, and
    each row's index into them (the CLI reads group columns this way)."""

    labels: Sequence[object]
    codes: np.ndarray

    @property
    def size(self) -> int:
        return self.codes.size


def _group_codes(raw) -> tuple[Sequence[object], np.ndarray]:
    """Sorted distinct group labels and each row's index into them.

    A CodedColumn, or an object array coded by a dict of its values, has
    its labels sorted with Python's `<`, as `np.unique` sorts such an
    array, and its codes renumbered to match, so the sort costs the
    levels rather than the rows."""
    if not isinstance(raw, CodedColumn):
        if raw.dtype != object:
            return np.unique(raw, return_inverse=True)
        index: dict[object, int] = {}
        codes = np.fromiter((index.setdefault(value, len(index)) for value in raw.tolist()),
                            dtype=np.intp, count=raw.size)
        raw = CodedColumn(list(index), codes)
    order = sorted(range(len(raw.labels)), key=raw.labels.__getitem__)
    position = np.empty(len(order), dtype=np.intp)
    position[order] = np.arange(len(order))
    return [raw.labels[i] for i in order], position[raw.codes]


def build_design(model: RankRegressionModel, data: Mapping[str, object]) -> DesignMatrix:
    """Assemble the design matrix for a model.

    Column order: the ranked regressor first (when present), then the
    remaining regressors in specification order, then the intercept.
    Grouped models expand every base column into one column per group
    level (group-specific intercepts included, no global intercept); z
    keeps the base columns once, and each level's block reads them on its
    rows. A response that holds one value, overall or within one group
    level, raises DegenerateCovariance.
    """
    warnings: list[str] = []
    y_raw = _numeric_column(data, model.response)
    n = y_raw.size
    if n == 0:
        raise InputError("data has no rows")

    columns: dict[str, FloatArray] = {}
    for name, _ in model.regressors:
        if name not in columns:
            columns[name] = _numeric_column(data, name)
            if columns[name].size != n:
                raise InputError(f"column '{name}' has inconsistent length")

    if y_raw.min() == y_raw.max():
        # every coefficient's corrected standard error is zero, or the
        # rounding noise of a fit that is exact only in real arithmetic
        raise DegenerateCovariance(
            f"the response {model.response!r} holds one value, so the corrected "
            "covariance is degenerate"
        )

    rule = TieRule(omega=model.omega, direction="increasing")
    ties_y = _TieRuns.of(y_raw) if model.response_ranked else None
    r_y = ties_y.ranks(rule) / n if ties_y is not None else None
    y = r_y if r_y is not None else y_raw

    x_name = model.ranked_regressor
    x_raw = columns[x_name] if x_name is not None else None
    ties_x = _TieRuns.of(x_raw) if x_raw is not None else None
    r_x = ties_x.ranks(rule) / n if ties_x is not None else None

    # Base columns in canonical order: ranked regressor, covariates,
    # intercept last.
    base: list[tuple[str, FloatArray]] = []
    if x_name is not None:
        base.append((f"r({x_name})", r_x))
    for name, is_ranked in model.regressors:
        if not is_ranked:
            base.append((name, columns[name]))
    base.append((INTERCEPT_NAME, np.ones(n)))

    group_codes: np.ndarray | None = None
    if model.group is not None:
        if model.group not in data:
            raise MissingColumn(f"group column '{model.group}' not found in the data")
        raw_group = data[model.group]
        if not isinstance(raw_group, (CodedColumn, np.ndarray)):
            # as objects, labels stay whole: a fixed-width str array would
            # drop trailing NULs and fit "a" and "a\x00" as one level
            raw_group = np.asarray(raw_group, dtype=object)
        if raw_group.size != n:
            raise InputError(f"column '{model.group}' has inconsistent length")
        levels, codes = _group_codes(raw_group)
        counts = np.bincount(codes)
        for lvl, count in zip(levels, counts):
            if count < 2:
                raise EmptyGroup(
                    f"group level '{lvl}' has {count} row(s); at least 2 required"
                )
        if len(levels) == 1:
            warnings.append(
                f"group column '{model.group}' has a single level; "
                "fitting the ungrouped model"
            )
        else:
            group_codes = codes

    z = np.column_stack([values for _, values in base])
    if group_codes is None:
        names = [name for name, _ in base]
        blocks = ((slice(None), slice(None)),)
    else:
        # design column b*G + g holds base column b on the rows of level g
        names = [f"{name}:{level}" for name, _ in base for level in levels]
        order = np.argsort(group_codes, kind="stable")
        ends = np.cumsum(counts)
        starts = ends - counts
        y_sorted = y_raw[order]
        flat = np.minimum.reduceat(y_sorted, starts) == np.maximum.reduceat(y_sorted, starts)
        if flat.any():
            # the level's own columns fit its rows exactly, so its
            # coefficients have zero corrected variance
            raise DegenerateCovariance(
                f"the response {model.response!r} holds one value within group level "
                f"'{levels[int(np.argmax(flat))]}', so the corrected covariance is degenerate"
            )
        blocks = tuple((order[start:end], slice(code, None, len(levels)))
                       for code, (start, end) in enumerate(zip(starts, ends)))
    # the ranked regressor is base column 0: column g of block g
    x_cols = tuple(range(len(blocks))) if x_name is not None else ()

    return DesignMatrix(
        z=z,
        colnames=tuple(names),
        y=y,
        r_y=r_y,
        ties_y=ties_y,
        r_x=r_x,
        ties_x=ties_x,
        x_cols=x_cols,
        blocks=blocks,
        model=model,
        warnings=tuple(warnings),
    )


@dataclass(eq=False)
class RankRegressionFit:
    """Fitted model: OLS coefficients on the (rank-transformed) design,
    residuals, and the triangular QR factor R reused by the variance
    code (assembled block by block; no Q is kept)."""

    design: DesignMatrix
    qr: QRFactorization
    coefficients: FloatArray
    residuals: FloatArray

    @property
    def colnames(self) -> tuple[str, ...]:
        return self.design.colnames


def fit(model: RankRegressionModel, data: Mapping[str, object]) -> RankRegressionFit:
    """OLS fit of the rank-transformed design via one QR per design block
    (per group level when grouped, else a single QR of the whole design).

    Raises DomainError for more than `variance.MAX_INFLUENCE_CELLS` n x P
    cells, before the P x P factor or the covariance's n x P influence
    array is allocated; a fit needs n >= P, so the bound caps both."""
    design = build_design(model, data)
    n, k = design.n, len(design.colnames)
    if n * k > variance.MAX_INFLUENCE_CELLS:
        raise DomainError(
            f"{n} rows x {k} coefficients exceed the {variance.MAX_INFLUENCE_CELLS} "
            "influence cells a corrected covariance may hold"
        )
    factor, coefficients, residuals = block_least_squares(design.z, design.y, design.blocks, k)
    return RankRegressionFit(
        design=design,
        qr=factor,
        coefficients=coefficients,
        residuals=residuals,
    )


@dataclass(frozen=True, eq=False)
class CoefficientSummary:
    """Per-coefficient table: estimates, corrected standard errors,
    z-values, two-sided normal p-values, significance stars, plus the
    corrected covariance matrix the standard errors come from."""

    names: tuple[str, ...]
    estimates: FloatArray
    std_errors: FloatArray
    z_values: FloatArray
    p_values: FloatArray
    stars: tuple[str, ...]
    vcov: DenseMatrix
    warnings: tuple[str, ...]

    def rows(self) -> list[dict]:
        return [
            {
                "name": self.names[i],
                "estimate": float(self.estimates[i]),
                "se": float(self.std_errors[i]),
                "z": float(self.z_values[i]),
                "p": float(self.p_values[i]),
                "stars": self.stars[i],
            }
            for i in range(len(self.names))
        ]


def _stars(p: float) -> str:
    if p <= 0.001:
        return "***"
    if p <= 0.01:
        return "**"
    if p <= 0.05:
        return "*"
    if p <= 0.1:
        return "."
    return ""


def summarize(fit_result: RankRegressionFit) -> CoefficientSummary:
    """Coefficient table with corrected standard errors.

    Raises DegenerateCovariance when the covariance is not finite (from
    `corrected_vcov`) or a z-value is not (a zero standard error, or an
    estimate near 1e308 over a small one). A constant response is refused
    before the fit, by `build_design`.
    """
    est = fit_result.coefficients
    cov = variance.corrected_vcov(fit_result)
    se = np.sqrt(np.diag(cov.matrix))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # rejected below
        z = est / se
    if not np.all(np.isfinite(z)):
        raise DegenerateCovariance(
            "the corrected covariance is degenerate (a zero standard error "
            "or a z-value that overflows)"
        )
    p = erfc(np.abs(z) / math.sqrt(2.0))
    return CoefficientSummary(
        names=fit_result.colnames,
        estimates=est.copy(),
        std_errors=se,
        z_values=z,
        p_values=p,
        stars=tuple(_stars(float(v)) for v in p),
        vcov=cov.matrix,
        warnings=fit_result.design.warnings + (INFERENCE_WARNING,),
    )


def confint(summary: CoefficientSummary, level: float = 0.95) -> FloatArray:
    """Per-coefficient normal-quantile intervals, one [low, high] row
    per coefficient in design order."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    zq = float(ndtri((1.0 + level) / 2.0))
    if math.isinf(zq):
        # (1 + level) / 2 rounds to 1 at the largest double below 1
        raise DomainError(f"coverage {level!r} is too close to 1 for finite interval bounds")
    est, se = summary.estimates, summary.std_errors
    return np.column_stack([est - zq * se, est + zq * se])
