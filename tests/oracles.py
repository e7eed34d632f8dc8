"""Brute-force reference implementations the tests compare against.

Everything here favors obviousness over speed: pairwise double loops,
materialized indicator matrices, Fraction arithmetic. None of it shares
code with the package.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def naive_rank(theta, omega, increasing=True):
    """Rank by counting predecessors pair by pair."""
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    out = np.empty(n)
    for j in range(n):
        weak = 0
        strict = 0
        for i in range(n):
            if increasing:
                weak += theta[i] <= theta[j]
                strict += theta[i] < theta[j]
            else:
                weak += theta[i] >= theta[j]
                strict += theta[i] > theta[j]
        out[j] = omega * weak + (1.0 - omega) * strict + (1.0 - omega)
    return out


def indicator_matrix(x, omega):
    x = np.asarray(x, dtype=float)
    return omega * (x[:, None] <= x[None, :]) + (1.0 - omega) * (x[:, None] < x[None, :])


def naive_indicator_matvec(x, v, omega):
    """I @ v through the materialized n x n matrix."""
    return indicator_matrix(x, omega) @ np.asarray(v, dtype=float)


def naive_indicator_matvec_loop(x, v, omega):
    """Same product entry by entry; guards the matrix version itself."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    n = x.size
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            if x[i] < x[j]:
                acc += v[j]
            elif x[i] == x[j]:
                acc += omega * v[j]
        out[i] = acc
    return out


def exact_binom_tail(x, s):
    """P(Binomial(s, 1/2) >= x) as an exact Fraction."""
    total = sum(math.comb(s, i) for i in range(x, s + 1))
    return Fraction(total, 2**s)


def exact_binom_tails(s, xs):
    """{x: P(Binomial(s, 1/2) >= x)} as exact Fractions for each x in xs,
    from one downward pass over the binomial coefficients C(s, i)."""
    wanted = set(xs)
    out = {}
    term = 1
    total = 0
    for i in range(s, -1, -1):
        total += term
        if i in wanted:
            out[i] = Fraction(total, 2**s)
        term = term * i // (s - i + 1)
    return out


def exact_rank_bounds(counts, coverage, mode, method, tail=exact_binom_tail):
    """(L, U) of the multinomial rank sets for every category, with each
    p-value an exact Fraction and each Holm/Bonferroni comparison made
    in rational arithmetic against alpha = 1 - coverage (the float).
    `tail(x, s)` gives P(Binomial(s, 1/2) >= x) as a Fraction."""
    counts = [int(c) for c in counts]
    p = len(counts)
    alpha = Fraction(1.0 - coverage)

    def rejected(family):
        pv = [tail(counts[k], counts[k] + counts[l]) for k, l in family]
        m = len(pv)
        if method == "bonferroni":
            return {h for h, v in zip(family, pv) if m * v <= alpha}
        out = set()
        for step, i in enumerate(sorted(range(m), key=lambda i: pv[i])):
            if (m - step) * pv[i] > alpha:
                break
            out.add(family[i])
        return out

    shared = None
    if mode == "simultaneous":
        shared = rejected([(k, l) for k in range(p) for l in range(p) if k != l])
    lower, upper = [], []
    for j in range(p):
        others = [k for k in range(p) if k != j]
        rej = shared
        if rej is None:
            rej = rejected([(k, j) for k in others] + [(j, k) for k in others])
        lower.append(1 + sum((k, j) in rej for k in others))
        upper.append(p - sum((j, k) in rej for k in others))
    return lower, upper


def hoeffding_kept_pairs(counts, alpha, family, rtol):
    """How many pairs of distinct counts a > b a Hoeffding screen leaves
    to the tail kernel: those whose exponent (a - b)^2 / (2(a + b)) lies
    below ln(2 family / alpha) raised by the relative margin rtol,
    compared in rational arithmetic."""
    cutoff = Fraction(math.log(2 * family / alpha)) * (1 + Fraction(rtol))
    values = sorted({int(c) for c in counts})
    return sum(Fraction((a - b) ** 2, 2 * (a + b)) < cutoff
               for i, a in enumerate(values) for b in values[:i])


def naive_holm(pvals):
    """Step-down adjustment straight from the definition."""
    pvals = list(pvals)
    m = len(pvals)
    order = sorted(range(m), key=lambda i: pvals[i])
    adj = [0.0] * m
    running = 0.0
    for pos, i in enumerate(order):
        running = max(running, (m - pos) * pvals[i])
        adj[i] = min(1.0, running)
    return np.array(adj)


def naive_bonferroni(pvals):
    p = np.asarray(pvals, dtype=float)
    return np.minimum(1.0, p.size * p)


def hc0_sandwich(z, residuals):
    """White's heteroskedasticity-consistent covariance, textbook form."""
    bread = np.linalg.inv(z.T @ z)
    meat = (z * residuals[:, None] ** 2).T @ z
    return bread @ meat @ bread


def _raw_columns(model, data):
    """The response, the ranked regressor (None without one) and each
    row's group code (None when ungrouped, or when the group column has a
    single level), read from the data a model is fitted on."""
    y = np.asarray(data[model.response], dtype=float)
    x_name = model.ranked_regressor
    x = None if x_name is None else np.asarray(data[x_name], dtype=float)
    codes = None
    if model.group is not None:
        levels, codes = np.unique(np.asarray(data[model.group]), return_inverse=True)
        if levels.size == 1:
            codes = None
    return y, x, codes


def dense_design(design, data):
    """The n x P design matrix with its zeros: z itself when ungrouped;
    when grouped, column b*G + g holds base column b of z on the rows of
    group level g (levels in sorted order)."""
    _, _, codes = _raw_columns(design.model, data)
    if codes is None:
        return design.z
    n, base = design.z.shape
    levels = int(codes.max()) + 1
    z = np.zeros((n, base * levels))
    for b in range(base):
        z[np.arange(n), b * levels + codes] = design.z[:, b]
    return z


def naive_corrected_vcov(fit_result, data):
    """Corrected coefficient covariance from first principles, for a fit
    of `data`.

    Builds every indicator matrix in full and loops over coefficients.
    Grouped designs keep pooled ranks; the per-column group membership
    enters as a 0/1 weight on the regressor-rank term.
    """
    design = fit_result.design
    omega = design.model.omega
    y_raw, x_raw, codes = _raw_columns(design.model, data)
    z = dense_design(design, data)
    n, n_cols = z.shape
    beta = fit_result.coefficients
    eps = fit_result.residuals

    ztz_inv = np.linalg.inv(z.T @ z)
    proj = ztz_inv / np.diag(ztz_inv)[None, :]

    has_x = x_raw is not None
    if has_x:
        # one ranked-regressor column per group level, in level order
        membership = np.empty((n, len(design.x_cols)))
        for idx in range(len(design.x_cols)):
            membership[:, idx] = 1.0 if codes is None else (codes == idx)
        ind_x = indicator_matrix(x_raw, omega)
        frank_x = naive_rank(x_raw, omega) / n
        rank_coef = membership @ beta[list(design.x_cols)]
    if design.model.response_ranked:
        ind_y = indicator_matrix(y_raw, omega)
        frank_y = naive_rank(y_raw, omega) / n

    h = np.zeros((n, n_cols))
    for j in range(n_cols):
        nu = z @ proj[:, j]
        base = float(eps @ nu)
        h2 = np.full(n, base)
        if design.model.response_ranked:
            h2 = h2 + (ind_y @ nu - float(frank_y @ nu))
        if has_x:
            w = rank_coef * nu
            h2 = h2 - (ind_x @ w - float(frank_x @ w))
        h2 = h2 / n
        if has_x:
            d = membership @ proj[list(design.x_cols), j]
            weighted = d * eps
            h3 = (base + ind_x @ weighted - float(weighted @ frank_x)) / n
        else:
            h3 = np.full(n, base / n)
        h[:, j] = eps * nu + h2 + h3

    sigma_nu2 = np.array([np.mean((z @ proj[:, j]) ** 2) for j in range(n_cols)])
    sigma = (h.T @ h) / n / np.outer(sigma_nu2, sigma_nu2)
    out = sigma / n
    return (out + out.T) / 2.0


def _column_indicator(x, v, omega, rows):
    """I @ v for the indicator matrix of x, with v on `rows` and zero
    elsewhere, from per-value masses over the codes of np.unique."""
    _, code = np.unique(x, return_inverse=True)
    m = int(code.max()) + 1
    mass = np.bincount(code[rows], weights=v, minlength=m)
    below = np.zeros(m + 1)
    np.cumsum(mass, out=below[1:])
    blended = below[:-1] * omega + below[1:] * (1.0 - omega)
    return below[-1] - blended.take(code)


def loop_corrected_vcov(fit_result, data):
    """(matrix, sigma_nu2) of the corrected covariance of a fit of
    `data`, one length-n influence column per coefficient, block by
    block, in the order of operations of the package's covariance: each
    element takes the same arithmetic, so the results agree to the bit.

    Column j is h2 / n + eps * nu_j (on its block's rows) + h3, where
    h2 = base + (I_y nu_j - r_y . nu_j) - (I_x w - r_x . w) with
    w = b_x nu_j, and h3 = (base + I_x w_e - w_e . r_x) / n with
    w_e = g_j eps; each term is present when its column is ranked.
    """
    from scipy.linalg import solve_triangular

    design = fit_result.design
    omega = design.model.omega
    y_raw, x_raw, _ = _raw_columns(design.model, data)
    r = fit_result.qr.r
    rinv = solve_triangular(r, np.eye(r.shape[1]), lower=False)
    ztz_inv = rinv @ rinv.T
    ztz_inv = (ztz_inv + ztz_inv.T) / 2.0
    gammas = ztz_inv / np.diag(ztz_inv)[None, :]
    z = dense_design(design, data)
    n, k = z.shape
    sigma_nu2 = np.empty(k)
    h = np.empty((n, k))
    with np.errstate(all="ignore"):
        for b, (rows, cols) in enumerate(design.blocks):
            z_b = z[rows, cols]
            nu = z_b @ gammas[cols, cols]
            sigma_nu2[cols] = np.sum(nu * nu, axis=0) / n
            eps = fit_result.residuals[rows]
            for j in range(k)[cols]:
                gamma_j = gammas[cols, j]
                nu_j = z_b @ gamma_j
                base = float(eps @ nu_j)
                h2 = np.full(n, base)
                if design.r_y is not None:
                    h2 = h2 + (_column_indicator(y_raw, nu_j, omega, rows)
                               - float(design.r_y[rows] @ nu_j))
                if design.r_x is not None:
                    r_x = design.r_x[rows]
                    weighted = fit_result.coefficients[design.x_cols[b]] * nu_j
                    h2 = h2 - (_column_indicator(x_raw, weighted, omega, rows)
                               - float(r_x @ weighted))
                    weighted_eps = gamma_j[0] * eps
                    h3 = (base + _column_indicator(x_raw, weighted_eps, omega, rows)
                          - float(weighted_eps @ r_x)) / n
                else:
                    h3 = base / n
                column = h2 / n
                column[rows] += eps * nu_j
                column += h3
                h[:, j] = column
        cross = (h.T @ h) / n
        sigma = cross / np.outer(sigma_nu2, sigma_nu2)
        matrix = sigma / n
        matrix = (matrix + matrix.T) / 2.0
    return matrix, sigma_nu2


def spearman_rho(x, y):
    """Sample Spearman correlation for tie-free data, via 1..n ranks."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rx = np.empty(x.size)
    ry = np.empty(y.size)
    rx[np.argsort(x)] = np.arange(1, x.size + 1)
    ry[np.argsort(y)] = np.arange(1, y.size + 1)
    return float(np.corrcoef(rx, ry)[0, 1])


_CSV_MISSING = {"", "NA", "NaN", "nan"}


def csv_columns(text, names):
    """Per-cell reading of a CSV text, the CLI dialect spelled out: the
    csv module's default dialect, the first row is the header, blank rows
    are skipped, one `float()` per cell of each requested column in
    order.

    Returns ("ok", header names, row count, {name: float64 array},
    {name: cells}) or ("error", exception class name, message).
    """
    import csv
    import io

    def error(kind, message):
        return ("error", kind, message)

    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        return error("CsvFormatError", f"malformed CSV: {exc}")
    header = tuple(cell.strip() for cell in rows[0]) if rows else ()
    if not header or all(name == "" for name in header):
        return error("CsvFormatError", "empty input: expected a header row")
    for i, name in enumerate(header):
        if name in header[:i]:
            return error("CsvFormatError", f"duplicate column name {name!r} in header")
    body = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            return error("CsvFormatError",
                         f"row {lineno} has {len(row)} fields, expected {len(header)}")
        body.append(row)
    cells = {name: [row[i] for row in body] for i, name in enumerate(header)}
    values = {}
    for name in names:
        if name not in cells:
            return error("MissingColumn",
                         f"no column {name!r}; available: {', '.join(header)}")
        column = []
        for i, cell in enumerate(cells[name]):
            token = cell.strip()
            if token in _CSV_MISSING:
                return error("MissingValues",
                             f"column {name!r} has a missing value at row {i + 2}")
            try:
                column.append(float(token))
            except ValueError:
                return error("CsvFormatError",
                             f"column {name!r} has a non-numeric cell {cell!r} at row {i + 2}")
        for i, v in enumerate(column):
            if not math.isfinite(v):
                return error("NonFinite", f"column {name!r} has a non-finite value at row {i + 2}")
        values[name] = np.array(column, dtype=np.float64)
    return ("ok", header, len(body), values, cells)
