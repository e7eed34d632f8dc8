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

import numpy as np

from ..errors import NonFinite
from ..numerics import DenseMatrix, FloatArray, inverse_from_qr
from ..ranking import _TieRuns
from .model import RankRegressionFit


@dataclass(frozen=True, eq=False)
class CorrectedCovariance:
    """Covariance of the coefficient vector (already divided by the
    sample size) and the per-coefficient projection residual variances."""

    matrix: DenseMatrix
    sigma_nu2: FloatArray
    names: tuple[str, ...]


def _apply_indicator(ties: _TieRuns, v: FloatArray, omega: float) -> FloatArray:
    """I @ v for the indicator matrix of the vector behind `ties`.

    Accumulates per-value masses over the tie codes and reads one table
    sized by the number of distinct values, not by n.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (ties.n,):
        raise ValueError("v must match the indicator vector length")
    if not np.all(np.isfinite(v)):
        raise NonFinite("v contains NaN or infinity")
    # below[r] = v-mass on values strictly below the r-th distinct
    # value; row i then needs total - omega*below[code_i]
    # - (1-omega)*below[code_i + 1].
    mass = np.bincount(ties.code, weights=v, minlength=ties.m)
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


def _influence(fit: RankRegressionFit, gamma_j: FloatArray, membership: DenseMatrix,
               ranked_coef: FloatArray) -> FloatArray:
    """Per-observation influence H1 + H2 + H3 of the coefficient whose
    projection column is `gamma_j`.

    H1 is the residual-times-projection-residual term; H2 carries the
    effect of having estimated the response ranks; H3 the effect of
    having estimated the regressor ranks. Rank-estimation terms enter by
    swapping each fractional rank for the matching indicator comparison,
    which turns every inner sum into an indicator-matrix product.
    `ranked_coef` is each row's coefficient on the regressor ranks.
    """
    design = fit.design
    omega = design.model.omega
    n = design.n
    eps = fit.residuals
    nu_j = design.z @ gamma_j

    h1 = eps * nu_j

    base = float(eps @ nu_j)
    h2 = np.full(n, base)
    if design.ties_y is not None:
        h2 = h2 + (_apply_indicator(design.ties_y, nu_j, omega)
                   - float(design.r_y @ nu_j))
    if design.ties_x is not None:
        weighted = ranked_coef * nu_j
        h2 = h2 - (_apply_indicator(design.ties_x, weighted, omega)
                   - float(design.r_x @ weighted))
        d_j = membership @ gamma_j[list(design.x_cols)]
        weighted_eps = d_j * eps
        h3 = (base + _apply_indicator(design.ties_x, weighted_eps, omega)
              - float(weighted_eps @ design.r_x)) / n
    else:
        h3 = np.full(n, base / n)
    return h1 + h2 / n + h3


def corrected_vcov(fit: RankRegressionFit) -> CorrectedCovariance:
    """Full corrected covariance of the coefficient vector.

    Per coefficient j, the influence column is H1 + H2 + H3; entry (j, k)
    of the asymptotic covariance is the cross moment of the influence
    columns normalized by both projection residual variances, and the
    returned matrix is that divided by n (coefficient scale).
    """
    design = fit.design
    gammas = projection_from_inverse(inverse_from_qr(fit.qr))
    nu = design.z @ gammas
    n = design.n
    sigma_nu2 = np.mean(nu * nu, axis=0)
    # 0/1 rows covered by each ranked design column (all, unless grouped)
    membership = np.empty((n, len(design.x_cols)))
    for idx, code in enumerate(design.x_col_group):
        membership[:, idx] = 1.0 if code < 0 else design.group_codes == code
    ranked_coef = membership @ fit.coefficients[list(design.x_cols)]
    h = np.column_stack([_influence(fit, gammas[:, j], membership, ranked_coef)
                         for j in range(gammas.shape[1])])
    cross = (h.T @ h) / n
    sigma = cross / np.outer(sigma_nu2, sigma_nu2)
    matrix = sigma / n
    matrix = (matrix + matrix.T) / 2.0
    return CorrectedCovariance(matrix=matrix, sigma_nu2=sigma_nu2, names=design.colnames)
