"""Confidence sets for ranks under Gaussian asymptotics.

Given point estimates with an estimated covariance matrix, pairwise
differences are studentized and compared against critical values
simulated by a parametric bootstrap from N(0, sigma_hat). Marginal sets
cover one population's rank, simultaneous sets cover all ranks jointly,
one-sided sets give simultaneous lower bounds, and the tau-best /
tau-worst sets are projections of the one-sided sets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from ._parallel import map_ordered
from .errors import DegeneratePair, InsufficientCategories, NotPSD
from .numerics import DenseMatrix, FloatArray, SeededRng, cholesky_psd, mvn_sample
from .ranking import TieRule, irank

Mode = Literal["marginal", "simultaneous"]

# Reported point-estimate ranks use smallest-rank ties with rank 1 for
# the largest estimate.
REPORT_RULE = TieRule(omega=0.0, direction="decreasing")

_SE_FLOOR = 1e-12


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
    se_jk = sqrt(var_j + var_k - 2 cov_jk), zero on the diagonal."""
    d = np.diag(est.sigma_hat)
    se2 = d[:, None] + d[None, :] - 2.0 * est.sigma_hat
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


def _upper_quantile(samples: FloatArray, coverage: float) -> float:
    """Smallest order statistic with 1-based index >= ceil(m * coverage).
    The tiny nudge guards against float slop in the product."""
    m = samples.size
    k = math.ceil(m * coverage - 1e-9)
    k = min(max(k, 1), m)
    return float(np.partition(samples, k - 1)[k - 1])


def _per_index_max(z: DenseMatrix, se: DenseMatrix, j: int, signed: bool) -> FloatArray:
    """Per-draw max over k != j of (Z_k - Z_j)/se_jk (signed) or of the
    absolute studentized difference."""
    diff = z - z[:, [j]]
    if not signed:
        diff = np.abs(diff)
    denom = se[j].copy()
    denom[j] = np.inf
    return (diff / denom).max(axis=1)


def _bootstrap_normals(est: EstimatesWithCovariance, cfg: BootstrapConfig) -> DenseMatrix:
    chol = cholesky_psd(est.sigma_hat, tol=1e-8)
    return mvn_sample(chol, SeededRng(cfg.seed), cfg.draws)


def _all_pairs_max(z: DenseMatrix, se: DenseMatrix, signed: bool) -> FloatArray:
    p = se.shape[0]
    cols = map_ordered(lambda j: _per_index_max(z, se, j, signed), range(p))
    return np.max(np.column_stack(cols), axis=1)


def _bounds_for_index(theta: FloatArray, se: DenseMatrix, j: int, c: float) -> tuple[int, int]:
    """Count significant pairwise differences: intervals entirely below
    zero push the lower rank bound up, entirely above zero pull the
    upper bound down. Touching zero never rejects."""
    p = theta.size
    diff = theta[j] - theta
    half = se[j] * c
    mask = np.arange(p) != j
    n_minus = int(np.count_nonzero((diff + half < 0.0) & mask))
    n_plus = int(np.count_nonzero((diff - half > 0.0) & mask))
    return n_minus + 1, p - n_plus


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
    se = pairwise_se(est)
    z = _bootstrap_normals(est, cfg)
    if mode == "simultaneous":
        c_shared = _upper_quantile(_all_pairs_max(z, se, signed=False), cfg.coverage)
        crit = {j: c_shared for j in wanted}
    else:
        per_index = map_ordered(
            lambda j: _upper_quantile(_per_index_max(z, se, j, signed=False), cfg.coverage),
            wanted,
        )
        crit = dict(zip(wanted, per_index))
    ranks = irank(est.theta_hat, REPORT_RULE).values
    lower = np.empty(len(wanted), dtype=np.int64)
    upper = np.empty(len(wanted), dtype=np.int64)
    for pos, j in enumerate(wanted):
        lower[pos], upper[pos] = _bounds_for_index(est.theta_hat, se, j, crit[j])
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
    infinity, so upper rank bounds are always p; the critical value is
    the quantile of the signed max over ordered pairs.
    """
    se = pairwise_se(est)
    z = _bootstrap_normals(est, cfg)
    c_upper = _upper_quantile(_all_pairs_max(z, se, signed=True), cfg.coverage)
    p = est.p
    ranks = irank(est.theta_hat, REPORT_RULE).values
    lower = np.empty(p, dtype=np.int64)
    for j in range(p):
        diff = est.theta_hat[j] - est.theta_hat
        upper_end = diff + se[j] * c_upper
        mask = np.arange(p) != j
        lower[j] = int(np.count_nonzero((upper_end < 0.0) & mask)) + 1
    return RankConfidenceSet(
        indices=tuple(range(p)),
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
