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
    sample size), the per-coefficient projection residual variances,
    and optionally the per-coefficient influence columns."""

    matrix: DenseMatrix
    sigma_nu2: FloatArray
    names: tuple[str, ...]
    h_columns: DenseMatrix | None = None


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


def projection_coefficients(fit: RankRegressionFit) -> DenseMatrix:
    """All column-on-other-columns projection coefficients in one shot."""
    if "projection" not in fit._caches:
        fit._caches["projection"] = projection_from_inverse(inverse_from_qr(fit.qr))
    return fit._caches["projection"]


@dataclass(frozen=True, eq=False)
class _HContext:
    eps: FloatArray
    omega: float
    response_ranked: bool
    has_ranked_regressor: bool
    r_y: FloatArray | None
    r_x: FloatArray | None
    ties_y: _TieRuns | None
    ties_x: _TieRuns | None
    x_membership: FloatArray | None  # n x (#ranked columns), 0/1
    x_cols: tuple[int, ...]
    ranked_coef: FloatArray | None  # per-observation coefficient on the ranks


def _context(fit: RankRegressionFit) -> _HContext:
    if "hcontext" in fit._caches:
        return fit._caches["hcontext"]
    design = fit.design
    has_x = len(design.x_cols) > 0
    membership = None
    ranked_coef = None
    if has_x:
        n = design.n
        membership = np.empty((n, len(design.x_cols)))
        for idx, code in enumerate(design.x_col_group):
            if code < 0:
                membership[:, idx] = 1.0
            else:
                membership[:, idx] = design.group_codes == code
        ranked_coef = membership @ fit.coefficients[list(design.x_cols)]
    ctx = _HContext(
        eps=fit.residuals,
        omega=design.model.omega,
        response_ranked=design.model.response_ranked,
        has_ranked_regressor=has_x,
        r_y=design.r_y,
        r_x=design.r_x,
        ties_y=design.ties_y,
        ties_x=design.ties_x,
        x_membership=membership,
        x_cols=design.x_cols,
        ranked_coef=ranked_coef,
    )
    fit._caches["hcontext"] = ctx
    return ctx


def h_terms(fit: RankRegressionFit, gammas: DenseMatrix,
            j: int) -> tuple[FloatArray, FloatArray, FloatArray]:
    """The three per-observation influence components for coefficient j.

    H1 is the residual-times-projection-residual term; H2 carries the
    effect of having estimated the response ranks; H3 the effect of
    having estimated the regressor ranks. Rank-estimation terms enter by
    swapping each fractional rank for the matching indicator comparison,
    which turns every inner sum into an indicator-matrix product.
    """
    ctx = _context(fit)
    n = fit.n
    nu_j = fit.z @ gammas[:, j]
    eps = ctx.eps

    h1 = eps * nu_j

    base = float(eps @ nu_j)
    h2_parts = np.full(n, base)
    if ctx.response_ranked:
        h2_parts = h2_parts + (_apply_indicator(ctx.ties_y, nu_j, ctx.omega)
                               - float(ctx.r_y @ nu_j))
    if ctx.has_ranked_regressor:
        weighted = ctx.ranked_coef * nu_j
        h2_parts = h2_parts - (_apply_indicator(ctx.ties_x, weighted, ctx.omega)
                               - float(ctx.r_x @ weighted))
    h2 = h2_parts / n

    if ctx.has_ranked_regressor:
        d_j = ctx.x_membership @ gammas[list(ctx.x_cols), j]
        weighted_eps = d_j * eps
        h3 = (base + _apply_indicator(ctx.ties_x, weighted_eps, ctx.omega)
              - float(weighted_eps @ ctx.r_x)) / n
        h3 = np.asarray(h3)
    else:
        h3 = np.full(n, base / n)
    return h1, h2, h3


def corrected_vcov(fit: RankRegressionFit, keep_h: bool = False) -> CorrectedCovariance:
    """Full corrected covariance of the coefficient vector.

    Per coefficient j, the influence column is H1 + H2 + H3; entry (j, k)
    of the asymptotic covariance is the cross moment of the influence
    columns normalized by both projection residual variances, and the
    returned matrix is that divided by n (coefficient scale).
    """
    cache_key = "vcov_h" if keep_h else "vcov"
    if cache_key in fit._caches:
        return fit._caches[cache_key]
    gammas = projection_coefficients(fit)
    nu = fit.z @ gammas
    n = fit.n
    sigma_nu2 = np.mean(nu * nu, axis=0)
    p_cols = fit.z.shape[1]

    def influence(j: int) -> FloatArray:
        h1, h2, h3 = h_terms(fit, gammas, j)
        return h1 + h2 + h3

    h = np.column_stack([influence(j) for j in range(p_cols)])
    cross = (h.T @ h) / n
    sigma = cross / np.outer(sigma_nu2, sigma_nu2)
    matrix = sigma / n
    matrix = (matrix + matrix.T) / 2.0
    result = CorrectedCovariance(
        matrix=matrix,
        sigma_nu2=sigma_nu2,
        names=fit.colnames,
        h_columns=h if keep_h else None,
    )
    fit._caches[cache_key] = result
    return result
