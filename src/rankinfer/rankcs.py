"""Confidence sets for ranks under Gaussian asymptotics.

Given point estimates with an estimated covariance matrix, pairwise
differences are studentized and compared against critical values
simulated by a parametric bootstrap from N(0, sigma_hat). Marginal sets
cover one population's rank, simultaneous sets cover all ranks jointly,
one-sided sets give simultaneous lower bounds, and the tau-best /
tau-worst sets are projections of the one-sided sets.
All of them read per-draw maxima of |Z_k - Z_j| / se_jk (`_pair_maxima`).
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

_SE_FLOOR = 1e-12
# Most draws x p cells a bootstrap runs: the draws matrix then takes at
# most 1 GiB, and a set's peak is about 2.5 to 4.6 times that.
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
        scale = max(1.0, float(np.abs(sigma).max()))
        if float(np.abs(sigma - sigma.T).max()) > 1e-10 * scale:
            raise ValueError("sigma_hat must be symmetric within 1e-10")
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
    sidedness: Literal["two-sided", "lower-bounds-only"] = "two-sided"
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        k = len(self.indices)
        if not (self.lower.shape == self.rank.shape == self.upper.shape == (k,)):
            raise ValueError("bounds and ranks must align with indices")
        if np.any(self.lower < 1) or np.any(self.upper > self.p):
            raise ValueError("bounds must lie within [1, p]")
        if np.any(self.lower > np.ceil(self.rank)) or np.any(self.upper < np.floor(self.rank)):
            raise ValueError("bounds must bracket the estimated rank")
        if self.sidedness == "lower-bounds-only" and np.any(self.upper != self.p):
            raise ValueError("one-sided sets must have upper bound p")


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
    and makes se exactly symmetric for one symmetric within tolerance."""
    sigma = est.sigma_hat
    d = np.diag(sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        se2 = d[:, None] + d[None, :] - (sigma + sigma.T)
    if not np.all(np.isfinite(se2)):
        raise NonFinite("a pairwise variance overflows; rescale the estimates")
    low = float(se2.min())
    if low < -_SE_FLOOR:
        raise NotPSD(f"negative pairwise variance {low:.3e}; covariance is not PSD")
    se = np.sqrt(np.clip(se2, 0.0, None))
    np.fill_diagonal(se, 0.0)
    off_mask = ~np.eye(est.p, dtype=bool)
    if float(se[off_mask].min()) < _SE_FLOOR:
        j, k = divmod(int(np.argmin(np.where(off_mask, se, np.inf))), est.p)
        raise DegeneratePair(
            f"populations {j} and {k} have a numerically zero difference "
            "standard error; their estimates are perfectly coupled"
        )
    return se


def _upper_quantile(samples: FloatArray, coverage: float):
    """Smallest order statistic with 1-based index >= ceil(m * coverage),
    of a 1-D sample or of each column of an m x k array.
    The tiny nudge guards against float slop in the product."""
    m = samples.shape[0]
    k = math.ceil(m * coverage - 1e-9)
    k = min(max(k, 1), m)
    return np.partition(samples, k - 1, axis=0)[k - 1]


def _bootstrap_normals(est: EstimatesWithCovariance, cfg: BootstrapConfig) -> DenseMatrix:
    chol = cholesky_psd(est.sigma_hat)
    return mvn_sample(chol, SeededRng(cfg.seed), cfg.draws)


# Draws per chunk of the pair pass are this many doubles over p. At 2^17
# (1 MiB) a chunk's populations x draws copy and its difference block fit
# a 2 MiB L2 cache together. On a 2-vCPU Xeon it was the fastest of 2^14
# to 2^20 at p=300 and 1000 draws, and tied with 2^18 at p=1000.
_CHUNK_CELLS = 1 << 17
# Fewest pair cells (draws x studentized pairs) per thread of the pair
# pass. On a 2-vCPU Xeon two threads took 12 ms against 19 ms on one at
# p=50 and 4000 draws (4.9e6 cells), and 25 ms against 37 ms at p=130 and
# 1000 draws; at p=100 and 1000 draws they tied, and at p=50 and 1000
# draws (1.2e6 cells) or below the second thread only cost time.
_WORKER_CELLS = 1 << 21


def _cpu_count() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call, e.g. macOS
        return os.cpu_count() or 1


def _pair_maxima(z: DenseMatrix, se: DenseMatrix,
                 rows: Sequence[int] | None) -> FloatArray:
    """Per draw (row of z), the max over k != j of |Z_k - Z_j| / se_jk.

    Given `rows`, an m x len(rows) array with one column per population j
    in `rows`. With `rows` None, the length-m max over every pair, which
    is the max of that array's columns for all populations, and needs no
    per-population maxima. `se` must be symmetric.

    With `rows` put first, each pair with a requested member is
    studentized once, in one upper-triangle block that updates the
    columns of both; pairs of two unrequested populations are never
    formed. The draws are split into one contiguous range per CPU, but
    into no more ranges than the pass has multiples of _WORKER_CELLS pair
    cells; each range is cut into chunks of at most _CHUNK_CELLS // p
    draws, and the calling thread takes the first one.
    Every element still takes the same subtract, abs, divide and max, so
    the result does not depend on the chunking or the number of threads.
    """
    m, p = z.shape
    if rows is None:
        order = np.arange(p)
        out = np.zeros((1, m))
    else:
        rows = list(rows)
        order = np.concatenate([rows, np.setdiff1d(np.arange(p), rows)])
        se = se[np.ix_(order, order)]
        out = np.zeros((len(rows), m))
    width = max(1, _CHUNK_CELLS // p)
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
    in out[0]. A chunk holding every draw accumulates in `out` itself;
    any other chunk in a contiguous buffer that is copied back, because
    the column updates on a slice of out's rows made a marginal pass at
    p=300 and 1000 draws 5-10% slower."""
    p = se.shape[0]
    k = out.shape[0]
    span = stop - start
    chunks = -(-span // width)
    cuts = [start + span * c // chunks for c in range(chunks + 1)]
    buf = np.empty((p - 1) * -(-span // chunks))
    for a, b in zip(cuts[:-1], cuts[1:]):
        w = b - a
        whole = w == out.shape[1]
        acc = out if whole else np.zeros((k, w))
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
        if not whole:
            out[:, a:b] = acc


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


def _bootstrap_bounds(est: EstimatesWithCovariance, cfg: BootstrapConfig, mode: Mode,
                      wanted: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Rank bounds of `wanted`, each at the quantile of its own pair maxima
    (marginal) or all at the quantile of their max over every population.
    Raises DomainError, before any draw, for more than MAX_DRAW_CELLS
    draws x p cells."""
    if cfg.draws * est.p > MAX_DRAW_CELLS:
        raise DomainError(
            f"{cfg.draws} draws of {est.p} populations exceed the "
            f"{MAX_DRAW_CELLS} draws x p cells a bootstrap may hold"
        )
    se = pairwise_se(est)
    z = _bootstrap_normals(est, cfg)
    if mode == "marginal":
        crit = _upper_quantile(_pair_maxima(z, se, wanted), cfg.coverage)
    else:
        crit = _upper_quantile(_pair_maxima(z, se, None), cfg.coverage)
    return _rank_bounds(est.theta_hat, se, wanted, crit)


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
    jointly with a single critical value.
    """
    if mode not in ("marginal", "simultaneous"):
        raise ValueError("mode must be 'marginal' or 'simultaneous'")
    wanted = _normalize_indices(indices, est.p)
    lower, upper = _bootstrap_bounds(est, cfg, mode, wanted)
    ranks = irank(est.theta_hat, REPORT_RULE).values
    return RankConfidenceSet(
        indices=wanted,
        lower=lower,
        rank=ranks[list(wanted)],
        upper=upper,
        p=est.p,
        mode=mode,
        coverage=cfg.coverage,
        sidedness="two-sided",
        labels=_labels_subset(est.labels, wanted),
    )


def cs_ranks_lower(est: EstimatesWithCovariance, cfg: BootstrapConfig) -> RankConfidenceSet:
    """Simultaneous lower confidence bounds on all ranks.

    One-sided intervals for the pairwise differences stretch to minus
    infinity, so upper rank bounds are always p. The max over ordered
    pairs of (Z_k - Z_j) / se_jk is the two-sided max over unordered
    pairs, so the lower bounds equal the simultaneous ones.
    """
    p = est.p
    everyone = tuple(range(p))
    lower, _ = _bootstrap_bounds(est, cfg, "simultaneous", everyone)
    ranks = irank(est.theta_hat, REPORT_RULE).values
    return RankConfidenceSet(
        indices=everyone,
        lower=lower,
        rank=ranks,
        upper=np.full(p, p, dtype=np.int64),
        p=p,
        mode="simultaneous",
        coverage=cfg.coverage,
        sidedness="lower-bounds-only",
        labels=est.labels,
    )


def cs_tau_best(est: EstimatesWithCovariance, cfg: BootstrapConfig, tau: int) -> TauBestSet:
    """Populations whose simultaneous lower rank bound does not exceed
    tau: no population outside the set can be among the true tau best."""
    if not 1 <= tau <= est.p:
        raise ValueError("tau must lie in [1, p]")
    cs = cs_ranks_lower(est, cfg)
    members = tuple(int(j) for j, lo in zip(cs.indices, cs.lower) if lo <= tau)
    return TauBestSet(tau=tau, members=members, coverage=cfg.coverage,
                      p=est.p, labels=est.labels)


def cs_tau_worst(est: EstimatesWithCovariance, cfg: BootstrapConfig, tau: int) -> TauBestSet:
    """tau-worst set: the tau-best set of the negated estimates."""
    negated = EstimatesWithCovariance(
        theta_hat=-est.theta_hat, sigma_hat=est.sigma_hat, labels=est.labels
    )
    return cs_tau_best(negated, cfg, tau)
