"""Confidence sets for ranks under Gaussian asymptotics.

Given point estimates with an estimated covariance matrix, pairwise
differences are studentized and compared against critical values
simulated by a parametric bootstrap from N(0, sigma_hat). Marginal sets
cover one population's rank, simultaneous sets cover all ranks jointly,
and the tau-best / tau-worst sets are projections of the simultaneous
set: its lower bounds and its upper bounds.
All of them read per-draw maxima of |Z_k - Z_j| / se_jk (`_pair_maxima`),
screened in float32, with critical values exact to the float64 bit
(`_critical_values`).
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import DegeneratePair, DomainError, InsufficientCategories, NonFinite, NotPSD
from .numerics import DenseMatrix, FloatArray, SeededRng, cholesky_psd, mvn_sample
from .ranking import TieRule, irank

Mode = Literal["marginal", "simultaneous"]

# Reported point-estimate ranks use smallest-rank ties with rank 1 for
# the largest estimate.
REPORT_RULE = TieRule(omega=0.0, direction="decreasing")

# Most draws x p cells, and p x p cells, a bootstrap runs: the draws matrix
# or a p x p array then takes at most 1 GiB. A set's peak is about 2.5 to
# 4.3 times the draws matrix, or 6 times a p x p array.
MAX_DRAW_CELLS = 1 << 27


@dataclass(frozen=True, eq=False)
class EstimatesWithCovariance:
    """Point estimates theta_hat (length p >= 2) with a symmetric p x p
    covariance estimate and optional population labels."""

    theta_hat: FloatArray
    sigma_hat: DenseMatrix
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        theta = np.asarray(self.theta_hat, dtype=np.float64)
        sigma = np.asarray(self.sigma_hat, dtype=np.float64)
        object.__setattr__(self, "theta_hat", theta)
        object.__setattr__(self, "sigma_hat", sigma)
        if theta.ndim != 1:
            raise ValueError("theta_hat must be 1-D")
        p = theta.size
        if p < 2:
            raise InsufficientCategories("need at least two populations to rank")
        if sigma.shape != (p, p):
            raise ValueError("sigma_hat must be p x p")
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(sigma))):
            raise ValueError("estimates and covariance must be finite")
        scale = float(np.abs(sigma).max())
        if float(np.abs(sigma - sigma.T).max()) > 1e-10 * scale:
            raise ValueError("sigma_hat must be symmetric within 1e-10 of its largest entry")
        if float(np.diag(sigma).min()) < 0.0:
            raise NotPSD("sigma_hat has a negative diagonal entry")
        if self.labels is not None:
            labels = tuple(str(lbl) for lbl in self.labels)
            if len(labels) != p:
                raise ValueError("labels length must match theta_hat")
            object.__setattr__(self, "labels", labels)

    @property
    def p(self) -> int:
        return self.theta_hat.size


@dataclass(frozen=True)
class BootstrapConfig:
    """Parametric bootstrap settings: number of draws, target coverage,
    and the 64-bit seed that makes results reproducible."""

    draws: int = 1000
    coverage: float = 0.95
    seed: int = 0

    def __post_init__(self):
        if self.draws < 100:
            raise ValueError("draws must be at least 100")
        if not 0.0 < self.coverage < 1.0:
            raise ValueError("coverage must lie strictly between 0 and 1")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True, eq=False)
class RankConfidenceSet:
    """Per-population rank bounds [L_j, U_j] with the point-estimate
    rank in between; indices are 0-based positions into the input."""

    indices: tuple[int, ...]
    lower: np.ndarray
    rank: FloatArray
    upper: np.ndarray
    p: int
    mode: Mode
    coverage: float
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        k = len(self.indices)
        if not (self.lower.shape == self.rank.shape == self.upper.shape == (k,)):
            raise ValueError("bounds and ranks must align with indices")
        if np.any(self.lower < 1) or np.any(self.upper > self.p):
            raise ValueError("bounds must lie within [1, p]")
        if np.any(self.lower > np.ceil(self.rank)) or np.any(self.upper < np.floor(self.rank)):
            raise ValueError("bounds must bracket the estimated rank")


@dataclass(frozen=True, eq=False)
class TauBestSet:
    """Populations that cannot be ruled out of the best (or worst) tau."""

    tau: int
    members: tuple[int, ...]
    coverage: float
    p: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if len(self.members) < self.tau:
            raise ValueError("a tau-best set must contain at least tau members")


def pairwise_se(est: EstimatesWithCovariance) -> DenseMatrix:
    """Standard errors of all pairwise differences:
    se_jk = sqrt(var_j + var_k - 2 cov_jk), zero on the diagonal. Taking
    cov_jk + cov_kj for 2 cov_jk keeps the bits of a symmetric sigma_hat
    and makes se exactly symmetric for one symmetric within tolerance.

    Each pair is checked by its share, se2_jk / (var_j + var_k), so the
    checks do not depend on the units of the estimates: NotPSD below
    -4u, DegeneratePair at 4u or less, with u = 2^-53. The bound: se2 is
    fl(fl(a) - fl(b)) for a = var_j + var_k and b = cov_jk + cov_kj.
    When sigma_hat is PSD, |cov_jk| <= sqrt(var_j var_k) <= a / 2, so
    |b| <= a, and rounding the two sums moves fl(a) - fl(b) from
    a - b >= 0 by at most u (a + |b|) <= 2u a. Twice that also covers
    the rounding of the subtraction and of the share. So a share below
    -4u is more than rounding makes of a PSD sigma_hat, and a share of
    4u or less is within rounding of zero: the pair's difference may have
    no variance at all.
    """
    sigma = est.sigma_hat
    d = np.diag(sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        share = d[:, None] + d[None, :]
        se2 = share - (sigma + sigma.T)
    if not np.all(np.isfinite(se2)):
        raise NonFinite("a pairwise variance overflows; rescale the estimates")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(se2, share, out=share)  # NaN for two zero variances
    np.fill_diagonal(share, np.inf)  # no pair
    tol = 4 * 2.0**-53
    low = float(np.fmin.reduce(share, axis=None))  # NaN skipped
    if low < -tol:
        raise NotPSD(f"a pairwise variance is {low:.3e} times var_j + var_k; "
                     "covariance is not PSD")
    j, k = divmod(int(np.argmin(share)), est.p)  # a NaN first
    if not share[j, k] > tol:
        raise DegeneratePair(
            f"populations {j} and {k} have a numerically zero difference "
            "standard error; their estimates are perfectly coupled"
        )
    return np.sqrt(se2, out=se2)  # every pair's se2 is positive, the diagonal's 0


def _order_index(m: int, coverage: float) -> int:
    """1-based index of the upper-quantile order statistic of m values:
    the smallest k >= m * coverage. The tiny nudge guards against float
    slop in the product."""
    return min(max(math.ceil(m * coverage - 1e-9), 1), m)


def _upper_quantile(samples: FloatArray, coverage: float):
    """Smallest order statistic with 1-based index >= ceil(m * coverage),
    of a 1-D sample or of each column of an m x k array."""
    k = _order_index(samples.shape[0], coverage)
    return np.partition(samples, k - 1, axis=0)[k - 1]


def _bootstrap_normals(est: EstimatesWithCovariance, cfg: BootstrapConfig) -> DenseMatrix:
    chol = cholesky_psd(est.sigma_hat)
    return mvn_sample(chol, SeededRng(cfg.seed), cfg.draws)


# Bytes of draws per chunk of the pair pass, over p times the item size.
# At 1 MiB a chunk's populations x draws copy and its difference block
# fit a 2 MiB L2 cache together. On a 2-vCPU Xeon at p=300 and 1000 draws
# it was the fastest of 2^17 to 2^23 bytes for float64 blocks (tied with
# 2 MiB at p=1000); for float32 blocks 1 and 2 MiB stayed within the
# noise of each other (one thread: 66 against 64 ms marginal, 48 against
# 46 ms simultaneous), and 128 to 512 KiB took 1.4 to 2.7 times as long.
_CHUNK_BYTES = 1 << 20
# Fewest pair cells (draws x studentized pairs) per thread of the pair
# pass. `_critical_values` on float32 blocks, the screen that every
# in-range input takes, on a 2-vCPU Xeon, two threads against one
# (medians of 15 interleaved runs, marginal then simultaneous): a second
# thread cost time at p=100 and 1000 draws (5e6 cells: 10.0 against
# 7.6 ms, 8.0 against 6.5 ms), and won at p=100 and 4000 draws (2e7
# cells: 26.6 against 38.3 ms, 14.1 against 23.4 ms), at p=200 and 1000
# draws (2e7 cells: 23.2 against 29.1 ms), at p=300 and 1000 draws (4.5e7
# cells: 43.6 against 60.0 ms, 36.8 against 50.6 ms) and at p=150 and
# 4000 draws (4.5e7 cells: 47.4 against 69.2 ms). A pass takes a second
# thread from 2^25 cells, so the 2e7-cell passes above run on one where
# a second would gain; `league`'s 4.5e7-cell passes run on two. The
# float64 pass, now only a fallback, gained from a second thread from
# about 5e6 cells (p=130 and 1000 draws: 25 against 37 ms).
_WORKER_CELLS = 1 << 24
# The float32 screen of `_critical_values` bounds its error by
# (_SCREEN_REL * max|z| + _SCREEN_ABS) / s + _SCREEN_ABS (see there).
_SCREEN_REL = 16 * 2.0**-24
_SCREEN_ABS = 2.0**-146
# It runs only while max|z| and max|z| / min se stay below 2^125 and
# every se lies in [2^-126, 2^127]: float32 then holds every quotient.
_SCREEN_MAX = 2.0**125


def _cpu_count() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call, e.g. macOS
        return os.cpu_count() or 1


def _pair_maxima(z: DenseMatrix, se: DenseMatrix,
                 rows: Sequence[int] | None) -> FloatArray:
    """Per draw (row of z), the max over k != j of |Z_k - Z_j| / se_jk,
    computed in z's float dtype (se is cast to it).

    Given `rows`, an m x len(rows) array with one column per population j
    in `rows`. With `rows` None, the length-m max over every pair, which
    is the max of that array's columns for all populations, and needs no
    per-population maxima. `se` must be symmetric.

    With `rows` put first, each pair with a requested member is
    studentized once, in one upper-triangle block that updates the
    columns of both; pairs of two unrequested populations are never
    formed. The draws are split into one contiguous range per CPU, but
    into no more ranges than the pass has multiples of _WORKER_CELLS pair
    cells; each range is cut into chunks of at most _CHUNK_BYTES bytes of
    draws, and the calling thread takes the first one.
    Every element still takes the same subtract, abs, divide and max, so
    the result does not depend on the chunking or the number of threads.
    In float32 it is the screen of `_critical_values`, whose docstring
    derives the screen's error bound against the float64 values and says
    when the float64 pass runs instead.
    """
    m, p = z.shape
    se = se.astype(z.dtype, copy=False)
    if rows is None:
        order = np.arange(p)
        out = np.zeros((1, m), dtype=z.dtype)
    else:
        rows = list(rows)
        order = np.concatenate([rows, np.setdiff1d(np.arange(p), rows)])
        se = se[np.ix_(order, order)]
        out = np.zeros((len(rows), m), dtype=z.dtype)
    width = max(1, _CHUNK_BYTES // (p * z.itemsize))
    # blocks i = 0 .. led - 1 of the pass hold p - 1 - i pairs each
    led = p - 1 if rows is None else min(len(rows), p - 1)
    pairs = led * (p - 1) - led * (led - 1) // 2
    workers = max(1, min(_cpu_count(), m, m * pairs // _WORKER_CELLS))
    cuts = [m * w // workers for w in range(workers + 1)]
    errors: list[BaseException] = []

    def run(start: int, stop: int) -> None:
        try:
            _pair_chunks(z, se, order, out, rows is not None, start, stop, width)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(cuts[w], cuts[w + 1]))
               for w in range(1, workers)]
    for thread in threads:
        thread.start()
    run(cuts[0], cuts[1])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return out.T if rows is not None else out[0]


def _pair_chunks(z: DenseMatrix, se: DenseMatrix, order: np.ndarray, out: DenseMatrix,
                 columns: bool, start: int, stop: int, width: int) -> None:
    """The pair pass over draws [start, stop), cut into equal chunks of
    at most `width` draws, into out[:, start:stop] (`se` already in
    `order`). `columns` False keeps only the running max over all pairs,
    in out[0]. Each chunk accumulates in a contiguous buffer that is
    copied back, because the column updates on a slice of out's rows made
    a marginal pass at p=300 and 1000 draws 5-10% slower."""
    p = se.shape[0]
    k = out.shape[0]
    span = stop - start
    chunks = -(-span // width)
    cuts = [start + span * c // chunks for c in range(chunks + 1)]
    buf = np.empty((p - 1) * -(-span // chunks), dtype=out.dtype)
    for a, b in zip(cuts[:-1], cuts[1:]):
        w = b - a
        acc = np.zeros((k, w), dtype=out.dtype)
        zt = z[a:b].T[order]  # populations x draws, contiguous per population
        for i in range(min(k, p - 1) if columns else p - 1):
            block = buf[: (p - 1 - i) * w].reshape(p - 1 - i, w)
            np.subtract(zt[i + 1:], zt[i], out=block)
            np.abs(block, out=block)
            np.divide(block, se[i, i + 1:, None], out=block)
            row = acc[i] if columns else acc[0]
            np.maximum(row, block.max(axis=0), out=row)
            if columns:
                np.maximum(acc[i + 1:], block[: k - 1 - i], out=acc[i + 1:])
        out[:, a:b] = acc


def _critical_values(z: DenseMatrix, se: DenseMatrix, rows: Sequence[int] | None,
                     coverage: float):
    """`_upper_quantile(_pair_maxima(z, se, rows), coverage)` to the bit:
    a float32 pass screens every draw, and only the draws near each
    quantile get float64 maxima.

    Error bound. Let u = 2^-24 and A = max |z|. For a pair (j, k) with
    s = se_jk, the pass's float64 value is fl(|fl(z_k - z_j)| / s), and
    the screen takes the same steps on fl32(z) and fl32(s). While no
    float32 overflows, rounding z costs at most u|z| + 2^-150 per value,
    and the subtract, the divide and rounding s a factor (1 + u) each,
    a divide that underflows 2^-150 more; so the screened value is within
    (8u + 17u^2) A / s + 2^-148 / s + 2^-150 of |z_k - z_j| / s, and the
    float64 one within (2^-51 + 2^-105) A / s + 2^-1075. Their gap is
    therefore below

        eps_j = (_SCREEN_REL A + _SCREEN_ABS) / s_j + _SCREEN_ABS,

    with s_j = min_{k != j} se_jk (the minimum over every pair for the
    joint max), since a max over pairs moves by at most its worst pair.
    eps_j is at least 1.9 times that sum (16u A and 2^-146 against it),
    which also covers the rounding of the window ends below. An order
    statistic moves by at most eps_j too, so draws screened below
    q32 - 2 eps_j lie strictly below the float64 quantile, draws above
    q32 + 2 eps_j strictly above it, and the quantile is the
    (k - below)-th smallest float64 maximum of the draws in between
    (`_exact_maxima`).

    The float64 pass runs instead when the bound does not hold or does
    not pay: max|z| or max|z| / min se above _SCREEN_MAX, an se outside
    [2^-126, 2^127], a NaN anywhere, or windows that would form more pair
    cells than the float64 pass (2 x window > m x columns). In that range
    no float32 step overflows, so no screened value is infinite.
    """
    m, p = z.shape
    k = _order_index(m, coverage)
    others = se + np.diag(np.full(p, np.inf))  # the self pair divides to 0
    near = others.min(axis=1)
    top = max(float(z.max()), -float(z.min()))
    low = float(near.min())
    # false for a NaN as well
    if not (top <= _SCREEN_MAX and top <= _SCREEN_MAX * low
            and 2.0**-126 <= low and float(se.max()) <= 2.0**127):
        return _upper_quantile(_pair_maxima(z, se, rows), coverage)
    screen = _pair_maxima(z.astype(np.float32), se, rows)
    if rows is None:
        screen, scale = screen[:, None], np.array([low])
    else:
        scale = near[list(rows)]
    eps = (_SCREEN_REL * top + _SCREEN_ABS) / scale + _SCREEN_ABS
    q = np.partition(screen, k - 1, axis=0)[k - 1].astype(np.float64)
    lo, hi = q - 2.0 * eps, q + 2.0 * eps
    below = np.count_nonzero(screen < lo, axis=0)
    col, draw = np.nonzero(((screen >= lo) & (screen <= hi)).T)  # grouped by column
    if 2 * draw.size > m * screen.shape[1]:
        return _upper_quantile(_pair_maxima(z, se, rows), coverage)
    if rows is None:
        exact = _exact_maxima(z, others, np.repeat(draw, p), np.tile(np.arange(p), draw.size))
        exact = exact.reshape(draw.size, p).max(axis=1)
    else:
        exact = _exact_maxima(z, others, draw, np.asarray(rows)[col])
    ranked = np.lexsort((exact, col))
    start = np.searchsorted(col, np.arange(screen.shape[1]))
    crit = exact[ranked[start + k - 1 - below]]
    return crit if rows is not None else crit[0]


def _exact_maxima(z: DenseMatrix, others: DenseMatrix, draws: np.ndarray,
                  pops: np.ndarray) -> FloatArray:
    """For each (draw d, population j) of `draws` and `pops`, the max over
    k of |z[d, k] - z[d, j]| / others[j, k], with the pair pass's own
    subtract, abs and divide, so each pair's value has its bits.
    `others` is se with an infinite diagonal."""
    out = np.empty(draws.size)
    step = max(1, _CHUNK_BYTES // (z.shape[1] * z.itemsize))
    for a in range(0, draws.size, step):
        d, j = draws[a:a + step], pops[a:a + step]
        block = z[d]
        np.subtract(block, z[d, j][:, None], out=block)
        np.abs(block, out=block)
        np.divide(block, others[j], out=block)
        out[a:a + step] = block.max(axis=1)
    return out


def _rank_bounds(theta: FloatArray, se: DenseMatrix, rows: Sequence[int],
                 crit: FloatArray) -> tuple[np.ndarray, np.ndarray]:
    """Rank bounds of the populations in `rows` at critical values `crit`
    (one per row, or one shared). Intervals for theta_j - theta_k entirely
    below zero push the lower bound up, entirely above zero pull the upper
    bound down; touching zero never rejects, so the self-pair never does.
    A sum or difference that overflows keeps its sign as an infinity, so
    it decides each comparison as the exact value would."""
    rows = list(rows)
    with np.errstate(over="ignore"):
        diff = theta[rows, None] - theta
        half = se[rows] * np.reshape(crit, (-1, 1))
        lower = np.count_nonzero(diff + half < 0.0, axis=1) + 1
        upper = theta.size - np.count_nonzero(diff - half > 0.0, axis=1)
    return lower, upper


def check_bootstrap_size(draws: int, p: int) -> None:
    """Raises DomainError when a bootstrap of p populations would hold
    more than MAX_DRAW_CELLS cells in a p x p array or its draws x p one."""
    if p * p > MAX_DRAW_CELLS:
        raise DomainError(
            f"{p} populations exceed the {MAX_DRAW_CELLS} p x p cells a bootstrap may hold"
        )
    if draws * p > MAX_DRAW_CELLS:
        raise DomainError(
            f"{draws} draws of {p} populations exceed the "
            f"{MAX_DRAW_CELLS} draws x p cells a bootstrap may hold"
        )


def _normalize_indices(indices: Sequence[int] | None, p: int) -> tuple[int, ...]:
    if indices is None:
        return tuple(range(p))
    out = tuple(int(i) for i in indices)
    if len(out) == 0:
        raise ValueError("indices must be nonempty when given")
    if len(set(out)) != len(out):
        raise ValueError("indices must be distinct")
    for i in out:
        if not 0 <= i < p:
            raise ValueError(f"index {i} out of range for p={p}")
    return out


def _labels_subset(labels: tuple[str, ...] | None,
                   indices: tuple[int, ...]) -> tuple[str, ...] | None:
    if labels is None:
        return None
    return tuple(labels[i] for i in indices)


def cs_ranks(est: EstimatesWithCovariance, cfg: BootstrapConfig,
             mode: Mode = "marginal",
             indices: Sequence[int] | None = None) -> RankConfidenceSet:
    """Two-sided confidence sets for ranks.

    marginal mode covers each requested population's rank separately at
    the configured coverage (each index gets its own critical value from
    the shared bootstrap draws); simultaneous mode covers all ranks
    jointly with a single critical value, the quantile of each draw's max
    over every pair. Raises DomainError, before any draw, past
    `check_bootstrap_size`.
    """
    if mode not in ("marginal", "simultaneous"):
        raise ValueError("mode must be 'marginal' or 'simultaneous'")
    wanted = _normalize_indices(indices, est.p)
    check_bootstrap_size(cfg.draws, est.p)
    se = pairwise_se(est)
    z = _bootstrap_normals(est, cfg)
    crit = _critical_values(z, se, wanted if mode == "marginal" else None, cfg.coverage)
    lower, upper = _rank_bounds(est.theta_hat, se, wanted, crit)
    ranks = irank(est.theta_hat, REPORT_RULE)
    return RankConfidenceSet(
        indices=wanted,
        lower=lower,
        rank=ranks[list(wanted)],
        upper=upper,
        p=est.p,
        mode=mode,
        coverage=cfg.coverage,
        labels=_labels_subset(est.labels, wanted),
    )


def _tau_set(est: EstimatesWithCovariance, cfg: BootstrapConfig, tau: int,
             worst: bool) -> TauBestSet:
    if not 1 <= tau <= est.p:
        raise ValueError("tau must lie in [1, p]")
    cs = cs_ranks(est, cfg, "simultaneous")
    bound = est.p + 1 - cs.upper if worst else cs.lower
    members = tuple(int(j) for j in np.flatnonzero(bound <= tau))
    return TauBestSet(tau=tau, members=members, coverage=cfg.coverage,
                      p=est.p, labels=est.labels)


def cs_tau_best(est: EstimatesWithCovariance, cfg: BootstrapConfig, tau: int) -> TauBestSet:
    """Populations whose simultaneous lower rank bound L_j does not exceed
    tau: no population outside the set can be among the true tau best.

    A one-sided lower set would give the same L_j: the max over ordered
    pairs of (Z_k - Z_j) / se_jk is the two-sided max over unordered
    pairs, so its critical value is the simultaneous one.
    """
    return _tau_set(est, cfg, tau, worst=False)


def cs_tau_worst(est: EstimatesWithCovariance, cfg: BootstrapConfig, tau: int) -> TauBestSet:
    """Populations whose simultaneous upper rank bound U_j has
    p + 1 - U_j <= tau: no population outside the set can be among the
    true tau worst.

    This is the tau-best set of the negated estimates, bit for bit.
    Negating theta negates each difference d_jk = theta_j - theta_k
    exactly, an overflowed one included (its infinity flips sign), and
    rounding to nearest is symmetric, so fl(-d + h) = -fl(d - h). The
    draws, se and the critical value do not depend on theta. So
    -d_jk + h_jk < 0 exactly when d_jk - h_jk > 0, and the negated set's
    lower bound is p + 1 - U_j.
    """
    return _tau_set(est, cfg, tau, worst=True)
