"""Deterministic numeric kernels used by all statistical modules.

Linear algebra (QR, normal-equation inverses, PSD Cholesky), seeded
sampling with a platform-independent normal transform, and the
binomial sign-test tail.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.special import betaincc, erfc

from .errors import NonFinite, NotPSD, RankDeficient

FloatArray = NDArray[np.float64]
# Dense row-major real matrix; plain 2-D float64 arrays throughout.
DenseMatrix = FloatArray

# Relative tolerance on |R| diagonal ratios below which a design is
# declared collinear.
_RANK_TOL = 1e-10
# Eigenvalues above -_PSD_CLIP * max(eig) are treated as zero.
_PSD_CLIP = 1e-8
# Largest |s - s'| entry accepted as symmetric, relative to max(1, |s|).
_SYMMETRY_TOL = 1e-8


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise NonFinite(f"{what} contains NaN or infinite entries")


@dataclass(frozen=True, eq=False)
class QRFactorization:
    """Thin QR factorization of a full-column-rank matrix Z = QR.

    r is upper-triangular (k x k) and R'R reconstructs Z'Z, i.e. R is a
    Cholesky factor of the normal equations up to row signs. q has
    orthonormal columns (n x k), or is None for a factor assembled block
    by block, where no dense Q is kept.
    """

    q: FloatArray | None
    r: FloatArray

    @property
    def cols(self) -> int:
        return self.r.shape[1]


_DEFICIENT = "design matrix is numerically rank-deficient"


def _require_design(z: DenseMatrix, k: int | None = None) -> DenseMatrix:
    """z as a finite 2-D float64 array with at least one column and at
    least as many rows as the design's k columns (default z's own)."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError("z must be a 2-D matrix")
    _require_finite(z, "design matrix")
    n, k = z.shape[0], z.shape[1] if k is None else k
    if k == 0:
        raise ValueError("z must have at least one column")
    if n < k:
        raise RankDeficient(f"design has more columns ({k}) than rows ({n})")
    return z


def _require_full_rank(r: FloatArray) -> None:
    d = np.abs(np.diag(r))
    if d.min() <= _RANK_TOL * d.max() or d.max() == 0.0:
        raise RankDeficient(_DEFICIENT)


def qr_decompose(z: DenseMatrix) -> QRFactorization:
    """Reduced QR of z with a collinearity check.

    Raises RankDeficient when the smallest |R| diagonal entry falls below
    1e-10 times the largest (or when z has more columns than rows).
    """
    z = _require_design(z)
    q, r = np.linalg.qr(z, mode="reduced")
    _require_full_rank(r)
    return QRFactorization(q=q, r=r)


def block_least_squares(
    z: DenseMatrix, y: FloatArray, blocks: Sequence[tuple[slice | np.ndarray, slice]],
    k: int,
) -> tuple[QRFactorization, FloatArray, FloatArray]:
    """Least squares of y on a block-diagonal design of k columns, given
    its n x B base columns z.

    `blocks` lists (rows, cols) pairs: rows a slice or an index array
    into z, cols a slice of the k coefficients selecting B of them
    (ValueError otherwise). Together they cover every row once and every
    coefficient once, and the design is z[rows] at (rows, cols) and zero
    elsewhere, so only the n x B array is held.
    Each block matrix z[rows] is factored by its own QR, and its R is
    placed at (cols, cols) of the k x k factor; with the columns of each
    block in increasing order, that factor is upper-triangular and R'R
    is the design's Z'Z. One block holding every row and column is a
    plain QR of z. Q is not kept.

    The design needs n >= k rows, and the collinearity check is global:
    the smallest |R| diagonal entry over all blocks against the largest.
    A block with fewer rows than columns is rank-deficient. A response
    whose Q'y overflows raises NonFinite. Returns the factor (q None),
    the coefficients and the residuals.
    """
    z = _require_design(z, k)
    n = z.shape[0]
    if any(len(range(k)[cols]) != z.shape[1] for _, cols in blocks):
        raise ValueError("each block must select as many coefficients as z has columns")
    r = np.zeros((k, k))
    qty = np.empty(k)
    for rows, cols in blocks:
        z_b = z[rows]
        if z_b.shape[0] < z_b.shape[1]:
            raise RankDeficient(_DEFICIENT)
        factor = qr_decompose(z_b)
        r[cols, cols] = factor.r
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below
            qty[cols] = factor.q.T @ y[rows]
    _require_full_rank(r)
    if not np.all(np.isfinite(qty)):
        raise NonFinite("the response projected on the design (Q'y) overflows; "
                        "rescale the response")
    coefficients = np.empty(k)
    residuals = np.empty(n)
    for rows, cols in blocks:
        coefficients[cols] = _back_substitute(r[cols, cols], qty[cols])
        residuals[rows] = y[rows] - z[rows] @ coefficients[cols]
    return QRFactorization(q=None, r=r), coefficients, residuals


def _back_substitute(r: FloatArray, b: FloatArray) -> FloatArray:
    """x with r x = b for an upper-triangular r of nonzero diagonal.

    Row by row from the last, in dot form, on a C-contiguous copy of r:
    below 64 columns this gave the bits of scipy's LAPACK dtrtrs on
    numpy 2.4.6 with scipy 1.17.1 (OpenBLAS solves in 64-row panels, so
    wider systems may differ in the last bits). Dots over the rows of a
    strided view of r do not, nor does np.linalg.solve(r, b)."""
    r = np.ascontiguousarray(r)
    x = np.empty(b.shape[0])
    with np.errstate(all="ignore"):
        for i in range(b.shape[0] - 1, -1, -1):
            x[i] = (b[i] - r[i, i + 1:] @ x[i + 1:]) / r[i, i]
    return x


def inverse_from_qr(f: QRFactorization) -> DenseMatrix:
    """(Z'Z)^-1 from the QR factors: R^-1 R^-T, symmetrized.

    R^-1 comes from LAPACK's dgesv: the LU of an upper-triangular R
    makes no row swaps and has L = I, so what is left is the triangular
    solve against R. np.linalg.solve sets its own errstate, so it warns
    of no overflow."""
    rinv = np.linalg.solve(f.r, np.eye(f.cols))
    out = rinv @ rinv.T
    return (out + out.T) / 2.0


def cholesky_psd(s: DenseMatrix) -> DenseMatrix:
    """Lower-triangular L with LL' = s, accepting semidefinite input.

    Strictly positive definite matrices go through the plain Cholesky
    routine. Singular-but-PSD matrices fall back to a symmetric
    eigendecomposition: eigenvalues in [-1e-8 * max_eig, 0) are clipped
    to zero, anything lower raises NotPSD.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("s must be a square matrix")
    _require_finite(s, "matrix")
    scale = max(1.0, float(np.abs(s).max()))
    if float(np.abs(s - s.T).max()) > _SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    try:
        return np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh((s + s.T) / 2.0)
    w_max = max(float(w.max()), 0.0)
    if float(w.min()) < -_PSD_CLIP * w_max:
        raise NotPSD(
            f"matrix has eigenvalue {w.min():.3e} below the PSD tolerance "
            f"{-_PSD_CLIP * w_max:.3e}"
        )
    a = v * np.sqrt(np.clip(w, 0.0, None))
    # QR of A' turns A A' = S into R'R with L = R' lower-triangular.
    _, r = np.linalg.qr(a.T, mode="reduced")
    sign = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return r.T * sign


# Rational approximation coefficients for the inverse standard normal
# CDF (Acklam), max relative error about 1.2e-9. Pure arithmetic plus
# sqrt/log keeps the transform bit-stable across platforms.
_ND_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ND_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
_ND_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ND_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
_ND_P_LOW = 0.02425


def _tail_quantile(q: FloatArray) -> FloatArray:
    # q = sqrt(-2 log p) for tail probability p.
    c0, c1, c2, c3, c4, c5 = _ND_C
    d0, d1, d2, d3 = _ND_D
    num = ((((c0 * q + c1) * q + c2) * q + c3) * q + c4) * q + c5
    den = (((d0 * q + d1) * q + d2) * q + d3) * q + 1.0
    return num / den


def inverse_normal_cdf(u: FloatArray) -> FloatArray:
    """Standard normal quantile of u in (0, 1), elementwise."""
    u = np.asarray(u, dtype=np.float64)
    out = np.empty_like(u)
    lo = u < _ND_P_LOW
    hi = u > 1.0 - _ND_P_LOW
    mid = ~(lo | hi)

    if np.any(mid):
        q = u[mid] - 0.5
        r = q * q
        a0, a1, a2, a3, a4, a5 = _ND_A
        b0, b1, b2, b3, b4 = _ND_B
        num = ((((a0 * r + a1) * r + a2) * r + a3) * r + a4) * r + a5
        den = ((((b0 * r + b1) * r + b2) * r + b3) * r + b4) * r + 1.0
        out[mid] = q * num / den
    if np.any(lo):
        out[lo] = _tail_quantile(np.sqrt(-2.0 * np.log(u[lo])))
    if np.any(hi):
        out[hi] = -_tail_quantile(np.sqrt(-2.0 * np.log(1.0 - u[hi])))
    return out


# Values per block when filling normal draws.
_NORMAL_BLOCK = 1 << 16


class SeededRng:
    """Deterministic random stream: the same seed means bit-exact
    identical draws on every platform.

    The generator is PCG64 seeded by SeedSequence(entropy=seed,
    spawn_key=(0,)); every seeded envelope depends on that key.
    """

    def __init__(self, seed: int):
        if not (0 <= int(seed) < 2**64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        self.seed = int(seed)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(0,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def uniforms(self, n: int) -> FloatArray:
        """n doubles uniform on the open interval (0, 1)."""
        k = self._gen.integers(0, 1 << 53, size=n, dtype=np.uint64)
        return (k.astype(np.float64) + 0.5) * 2.0**-53

    def standard_normals(self, shape: int | tuple[int, ...]) -> FloatArray:
        """Standard normal draws via inversion of the uniform stream.

        The output is filled in blocks of _NORMAL_BLOCK values; each value
        takes one integer from the stream, so the draws are those of one
        call over the whole array, and the transform's temporaries stay
        block-sized."""
        out = np.empty(shape)
        flat = out.reshape(-1)
        for a in range(0, flat.size, _NORMAL_BLOCK):
            b = min(a + _NORMAL_BLOCK, flat.size)
            flat[a:b] = inverse_normal_cdf(self.uniforms(b - a))
        return out


def mvn_sample(l: DenseMatrix, rng: SeededRng, m: int) -> DenseMatrix:
    """m draws from N(0, LL'): each row is L @ xi with xi iid standard
    normal from rng. Returns an m x p matrix."""
    l = np.asarray(l, dtype=np.float64)
    if l.ndim != 2 or l.shape[0] != l.shape[1]:
        raise ValueError("l must be a square matrix")
    if not np.array_equal(l, np.tril(l)):
        raise ValueError("l must be lower-triangular")
    if m <= 0:
        raise ValueError("m must be positive")
    xi = rng.standard_normals((m, l.shape[0]))
    return xi @ l.T


def binom_tail(x, s) -> FloatArray:
    """P(Binomial(s, 1/2) >= x), elementwise over broadcast integer x, s
    with 0 <= x <= s <= 2**53.

    One regularized incomplete beta call: the tail equals
    I_{1/2}(x, s - x + 1), evaluated as its complement betaincc(s - x + 1,
    x, 1/2), with the x = 0 entries set to 1. Measured relative error:
    2.2e-16 for every x at s <= 1200, subnormal tails included; 5e-15 at
    s = 3e6 and 3.2e-14 at s = 1e9, deep in the upper tail; 1.7e-13 for
    s in [2^52, 2^53] and x within 1e6 of s/2 (1500 random pairs).

    betaincc returns NaN for some s in [2^52, 2^53] with x near s/2 (15
    of 400 random s at x = s/2, 3 of 400 with x within 1e5 of it; none
    below 2^52, none with x spread 1e6 or more). Those entries take the
    continuity-corrected normal tail Q((2x - 1 - s) / sqrt(s)), with
    2x - s exact. At p = 1/2 its error is 0.0272 / s + O(s^-2) for every
    x (the skewness term vanishes; max |tail - Q| * s measured 0.0272 at
    s = 1e3 to 1e7), so below 7e-18 absolute, and 1.4e-17 relative to
    tails near 1/2, at s >= 2^52; erfc adds its own rounding.
    """
    x = np.asarray(x, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if np.any(x < 0.0) or np.any(x > s):
        raise ValueError("requires 0 <= x <= s")
    tail = np.where(x == 0.0, 1.0, betaincc(s - x + 1.0, x, 0.5))
    lost = np.isnan(tail)
    if lost.any():
        x, s = np.broadcast_arrays(x, s)
        tail[lost] = 0.5 * erfc(((2.0 * x[lost] - s[lost]) - 1.0) / np.sqrt(2.0 * s[lost]))
    return tail
