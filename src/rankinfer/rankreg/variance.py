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

from ..errors import DegenerateCovariance, DomainError, NonFinite
from ..numerics import DenseMatrix, FloatArray, inverse_from_qr
from ..ranking import _TieRuns

if TYPE_CHECKING:
    from .model import DesignMatrix, RankRegressionFit


# Most n x P influence cells a covariance forms: the influence array then
# takes at most 1 GiB, and the command's peak is about 1.4 times that.
MAX_INFLUENCE_CELLS = 1 << 27


@dataclass(frozen=True, eq=False)
class CorrectedCovariance:
    """Covariance of the coefficient vector (already divided by the
    sample size) and the per-coefficient projection residual variances."""

    matrix: DenseMatrix
    sigma_nu2: FloatArray


def _indicator_table(ties: _TieRuns, v: FloatArray, omega: float,
                     rows: slice | np.ndarray = slice(None)) -> FloatArray:
    """Per distinct value of the vector behind `ties`, the entry of I @ v
    at a row holding that value, where v holds the entries on `rows` and
    is zero elsewhere.

    Accumulates per-value masses over the tie codes of those rows; the
    table has one entry per distinct value, however many rows read it.
    """
    code = ties.code[rows]
    v = np.asarray(v, dtype=np.float64)
    if v.shape != code.shape:
        raise ValueError("v must match the indicator vector length")
    if not np.all(np.isfinite(v)):
        raise NonFinite("v contains NaN or infinity")
    # below[r] = v-mass on values strictly below the r-th distinct
    # value; a row with code c then needs total - omega*below[c]
    # - (1-omega)*below[c + 1].
    mass = np.bincount(code, weights=v, minlength=ties.m)
    below = np.zeros(ties.m + 1)
    np.cumsum(mass, out=below[1:])
    blended = below[:-1] * omega + below[1:] * (1.0 - omega)
    return below[-1] - blended


def projection_from_inverse(ztz_inv: DenseMatrix) -> DenseMatrix:
    """Scale each column of (Z'Z)^-1 by the reciprocal of its diagonal
    entry; column j then reads (-g_1, ..., 1 at j, ..., -g_P) where g are
    the OLS coefficients of design column j on the other columns."""
    return ztz_inv / np.diag(ztz_inv)[None, :]


def _influence(fit: RankRegressionFit, rows: slice | np.ndarray, z_b: DenseMatrix,
               gamma_j: FloatArray, ranked_coef: float | None) -> tuple:
    """Influence H1 + H2 + H3 of the coefficient whose projection column,
    restricted to its block's columns, is `gamma_j`, as per-value tables.

    H1 is the residual-times-projection-residual term; H2 carries the
    effect of having estimated the response ranks; H3 the effect of
    having estimated the regressor ranks. Rank-estimation terms enter by
    swapping each fractional rank for the matching indicator comparison,
    which turns every inner sum into an indicator-matrix product.

    The projection residual nu_j is zero outside the block's `rows`
    (design `z_b`), so every sum runs over those rows alone. Outside them
    row i's influence depends on the row only through its tie codes y_i
    and x_i: it is (P[y_i] - Q[x_i]) / n + S[x_i]. On the block's rows
    E = eps * nu_j is added before S. Returns (P, Q, S, E); without a
    ranked response P is the scalar `base`, and without a ranked
    regressor Q is 0 and S the scalar base / n. `ranked_coef` is the
    block's coefficient on the regressor ranks, whose column comes first
    in every block, or None without ranked regressor.
    """
    design = fit.design
    omega = design.model.omega
    n = design.n
    eps = fit.residuals[rows]
    nu_j = z_b @ gamma_j

    base = float(eps @ nu_j)
    table_p = base
    if design.ties_y is not None:
        table_p = base + (_indicator_table(design.ties_y, nu_j, omega, rows)
                          - float(design.r_y[rows] @ nu_j))
    table_q = 0.0
    table_s = base / n
    if ranked_coef is not None:
        r_x = design.r_x[rows]
        weighted = ranked_coef * nu_j
        table_q = (_indicator_table(design.ties_x, weighted, omega, rows)
                   - float(r_x @ weighted))
        weighted_eps = gamma_j[0] * eps
        table_s = (base + _indicator_table(design.ties_x, weighted_eps, omega, rows)
                   - float(weighted_eps @ r_x)) / n
    return table_p, table_q, table_s, eps * nu_j


# Influence cells per row chunk of the covariance's fill pass: at 2^16
# (512 KiB) a chunk of h and its gather buffer fit a 2 MiB L2 cache with
# room for table rows. On a 2-vCPU Xeon, 2^14 to 2^17 were within noise
# of each other on a tied n=1e5 file (P=60) and a distinct n=2e5 file.
_ROW_CELLS = 1 << 16


def _fill_influence(h: DenseMatrix, design: DesignMatrix, tables: tuple,
                    e: DenseMatrix) -> None:
    """Write every row's influence into the n x P array h, chunk by chunk
    of rows: (P[y code] - Q[x code]) / n, then E on the row's block
    columns, then S[x code]. Each element takes the subtraction, the
    division and the additions in that order, as a per-coefficient
    column would (a zero Q subtracts nothing).

    `tables` holds P, with one row per Y value, then Q and S, with one
    row per X value; a table of a column that is not ranked is a single
    row that every row reads. `e` holds each row's E values in its
    block's column order."""
    table_p, table_q, table_s = tables
    n, k = h.shape
    code_y = design.ties_y.code if design.ties_y is not None else None
    code_x = design.ties_x.code if design.ties_x is not None else None
    if len(design.blocks) > 1:
        block_of = np.empty(n, dtype=np.intp)
        for b, (rows, _) in enumerate(design.blocks):
            block_of[rows] = b
        every_col = np.arange(k)
        block_cols = np.array([every_col[cols] for _, cols in design.blocks])
    step = max(1, _ROW_CELLS // k)
    buf = np.empty((min(step, n), k))

    def gather(table, code, a, b, out):
        if code is None:
            out[...] = table
        else:
            # tie-run codes index the table's rows by construction; "clip"
            # writes into out directly, where "raise" buffers to check
            np.take(table, code[a:b], axis=0, out=out, mode="clip")

    for a in range(0, n, step):
        b = min(a + step, n)
        chunk, work = h[a:b], buf[: b - a]
        gather(table_p, code_y, a, b, chunk)
        gather(table_q, code_x, a, b, work)
        chunk -= work
        chunk /= n
        if len(design.blocks) > 1:
            chunk[np.arange(b - a)[:, None], block_cols[block_of[a:b]]] += e[a:b]
        else:
            chunk += e[a:b]
        gather(table_s, code_x, a, b, work)
        chunk += work


def corrected_vcov(fit: RankRegressionFit) -> CorrectedCovariance:
    """Full corrected covariance of the coefficient vector.

    Per coefficient j, the influence column is H1 + H2 + H3; entry (j, k)
    of the asymptotic covariance is the cross moment of the influence
    columns normalized by both projection residual variances, and the
    returned matrix is that divided by n (coefficient scale). Z'Z is
    block-diagonal over the design's blocks, so each projection column
    lives on its block's columns and its residual on the block's rows.

    Raises DomainError for more than MAX_INFLUENCE_CELLS n x P cells,
    before anything of that size is allocated, and DegenerateCovariance
    when the result is not finite (values that overflow).
    """
    design = fit.design
    n, k = design.n, len(design.colnames)
    if n * k > MAX_INFLUENCE_CELLS:
        raise DomainError(
            f"{n} rows x {k} coefficients exceed the {MAX_INFLUENCE_CELLS} "
            "influence cells a corrected covariance may hold"
        )
    gammas = projection_from_inverse(inverse_from_qr(fit.qr))
    rows_y = design.ties_y.m if design.ties_y is not None else 1
    rows_x = design.ties_x.m if design.ties_x is not None else 1
    tables = (np.empty((rows_y, k)), np.empty((rows_x, k)), np.empty((rows_x, k)))
    table_p, table_q, table_s = tables
    e = np.empty(design.z.shape)  # eps * nu_j, in block column order
    sigma_nu2 = np.empty(k)
    with np.errstate(all="ignore"):  # a non-finite result is rejected below
        for b, (rows, cols) in enumerate(design.blocks):
            z_b = design.z[rows]
            nu = z_b @ gammas[cols, cols]
            sigma_nu2[cols] = np.sum(nu * nu, axis=0) / n
            ranked_coef = (fit.coefficients[design.x_cols[b]]
                           if design.ties_x is not None else None)
            for local, j in enumerate(range(k)[cols]):
                (table_p[:, j], table_q[:, j], table_s[:, j],
                 e[rows, local]) = _influence(fit, rows, z_b, gammas[cols, j], ranked_coef)
        h = np.empty((n, k))
        _fill_influence(h, design, tables, e)
        cross = (h.T @ h) / n
        sigma = cross / np.outer(sigma_nu2, sigma_nu2)
        matrix = sigma / n
        matrix = (matrix + matrix.T) / 2.0
    if not np.all(np.isfinite(matrix)):
        raise DegenerateCovariance(
            "the corrected covariance is degenerate (values that overflow)"
        )
    return CorrectedCovariance(matrix=matrix, sigma_nu2=sigma_nu2)
