"""Estimation-aware covariance for regressions on ranked variables.

Using plain OLS formulas after replacing columns by their ranks ignores
that the ranks were themselves estimated from the data. The corrected
covariance assembles, per coefficient, three influence components:
the direct residual term, the response-rank estimation term, and the
regressor-rank estimation term. All inner sums are products of an
indicator matrix with a vector; each is evaluated in O(n) from the tie
runs that ranking the column already produced, never by materializing
the matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import DegenerateCovariance, NonFinite
from ..numerics import DenseMatrix, FloatArray, inverse_from_qr
from ..ranking import _TieRuns

if TYPE_CHECKING:
    from .model import RankRegressionFit


@dataclass(frozen=True, eq=False)
class CorrectedCovariance:
    """Covariance of the coefficient vector (already divided by the
    sample size) and the per-coefficient projection residual variances."""

    matrix: DenseMatrix
    sigma_nu2: FloatArray
    names: tuple[str, ...]


def _apply_indicator(ties: _TieRuns, v: FloatArray, omega: float,
                     rows: slice | np.ndarray = slice(None)) -> FloatArray:
    """I @ v for the indicator matrix of the vector behind `ties`, where v
    holds the entries on `rows` and is zero elsewhere.

    Accumulates per-value masses over the tie codes of those rows and
    reads one table sized by the number of distinct values, not by n.
    """
    code = ties.code[rows]
    v = np.asarray(v, dtype=np.float64)
    if v.shape != code.shape:
        raise ValueError("v must match the indicator vector length")
    if not np.all(np.isfinite(v)):
        raise NonFinite("v contains NaN or infinity")
    # below[r] = v-mass on values strictly below the r-th distinct
    # value; row i then needs total - omega*below[code_i]
    # - (1-omega)*below[code_i + 1].
    mass = np.bincount(code, weights=v, minlength=ties.m)
    below = np.zeros(ties.m + 1)
    np.cumsum(mass, out=below[1:])
    blended = below[:-1] * omega + below[1:] * (1.0 - omega)
    return below[-1] - blended.take(ties.code)


def indicator_matvec(x: FloatArray, v: FloatArray, omega: float) -> FloatArray:
    """Product I @ v where I_ij = omega*[x_i <= x_j] + (1-omega)*[x_i < x_j],
    computed in O(n log n) without forming I."""
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if x.shape != v.shape or x.ndim != 1:
        raise ValueError("x and v must be 1-D of equal length")
    if not 0.0 <= omega <= 1.0:
        raise ValueError("omega must lie in [0, 1]")
    if not np.all(np.isfinite(x)):
        raise NonFinite("indicator values contain NaN or infinity")
    return _apply_indicator(_TieRuns.of(x), v, omega)


def projection_from_inverse(ztz_inv: DenseMatrix) -> DenseMatrix:
    """Scale each column of (Z'Z)^-1 by the reciprocal of its diagonal
    entry; column j then reads (-g_1, ..., 1 at j, ..., -g_P) where g are
    the OLS coefficients of design column j on the other columns."""
    return ztz_inv / np.diag(ztz_inv)[None, :]


def _influence(fit: RankRegressionFit, rows: slice | np.ndarray, z_b: DenseMatrix,
               gamma_j: FloatArray, ranked_coef: float | None) -> FloatArray:
    """Per-observation influence H1 + H2 + H3 of the coefficient whose
    projection column, restricted to its block's columns, is `gamma_j`.

    H1 is the residual-times-projection-residual term; H2 carries the
    effect of having estimated the response ranks; H3 the effect of
    having estimated the regressor ranks. Rank-estimation terms enter by
    swapping each fractional rank for the matching indicator comparison,
    which turns every inner sum into an indicator-matrix product.

    The projection residual nu_j is zero outside the block's `rows`
    (design `z_b`), so every sum runs over those rows alone; only the
    indicator products spread over all n. `ranked_coef` is the block's
    coefficient on the regressor ranks, whose column comes first in every
    block, or None without ranked regressor.
    """
    design = fit.design
    omega = design.model.omega
    n = design.n
    eps = fit.residuals[rows]
    nu_j = z_b @ gamma_j

    base = float(eps @ nu_j)
    h2 = np.full(n, base)
    if design.ties_y is not None:
        h2 = h2 + (_apply_indicator(design.ties_y, nu_j, omega, rows)
                   - float(design.r_y[rows] @ nu_j))
    if ranked_coef is not None:
        r_x = design.r_x[rows]
        weighted = ranked_coef * nu_j
        h2 = h2 - (_apply_indicator(design.ties_x, weighted, omega, rows)
                   - float(r_x @ weighted))
        weighted_eps = gamma_j[0] * eps
        h3 = (base + _apply_indicator(design.ties_x, weighted_eps, omega, rows)
              - float(weighted_eps @ r_x)) / n
    else:
        h3 = base / n
    # h1 + h2/n + h3 elementwise, with h1 = eps * nu_j on the block's rows
    out = h2 / n
    out[rows] += eps * nu_j
    out += h3
    return out


def corrected_vcov(fit: RankRegressionFit) -> CorrectedCovariance:
    """Full corrected covariance of the coefficient vector.

    Per coefficient j, the influence column is H1 + H2 + H3; entry (j, k)
    of the asymptotic covariance is the cross moment of the influence
    columns normalized by both projection residual variances, and the
    returned matrix is that divided by n (coefficient scale). Z'Z is
    block-diagonal over the design's blocks, so each projection column
    lives on its block's columns and its residual on the block's rows.

    Raises DegenerateCovariance when the result is not finite (values
    that overflow).
    """
    design = fit.design
    gammas = projection_from_inverse(inverse_from_qr(fit.qr))
    n, k = design.z.shape
    sigma_nu2 = np.empty(k)
    h = np.empty((n, k))
    with np.errstate(all="ignore"):  # a non-finite result is rejected below
        for b, (rows, cols) in enumerate(design.blocks):
            z_b = design.z[rows, cols]
            nu = z_b @ gammas[cols, cols]
            sigma_nu2[cols] = np.sum(nu * nu, axis=0) / n
            ranked_coef = (fit.coefficients[design.x_cols[b]]
                           if design.ties_x is not None else None)
            for j in range(k)[cols]:
                h[:, j] = _influence(fit, rows, z_b, gammas[cols, j], ranked_coef)
        cross = (h.T @ h) / n
        sigma = cross / np.outer(sigma_nu2, sigma_nu2)
        matrix = sigma / n
        matrix = (matrix + matrix.T) / 2.0
    if not np.all(np.isfinite(matrix)):
        raise DegenerateCovariance(
            "the corrected covariance is degenerate (values that overflow)"
        )
    return CorrectedCovariance(matrix=matrix, sigma_nu2=sigma_nu2, names=design.colnames)
