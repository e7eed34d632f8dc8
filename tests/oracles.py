"""Brute-force reference implementations the tests compare against.

Everything here favors obviousness over speed: pairwise double loops,
materialized indicator matrices, Fraction arithmetic. None of it shares
code with the package.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath
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


@functools.cache
def _xlogx(n):
    with mpmath.workdps(50):
        return n * mpmath.log(n) if n else mpmath.mpf(0)


def zubkov_serov_exponent(x, s):
    """e(x) = 2x ln(2x/s) + 2(s - x) ln(2(s - x)/s), 0 <= x <= s, in
    50-digit mpmath."""
    with mpmath.workdps(50):
        return 2 * (_xlogx(x) + _xlogx(s - x) - _xlogx(s)) + 2 * s * mpmath.log(2)


def zubkov_serov_bounds(a, s):
    """The bounds of Zubkov and Serov on P(Binomial(s, 1/2) >= a), for
    a - 1 >= s/2, in 50-digit mpmath: (upper, lower) = (Phi(-sqrt(e(a -
    1))), Phi(-sqrt(e(a)))), Phi the normal distribution function."""
    with mpmath.workdps(50):
        return tuple(mpmath.ncdf(-mpmath.sqrt(zubkov_serov_exponent(x, s)))
                     for x in (a - 1, a))


def zubkov_serov_kept_pairs(counts, alpha, family, rtol):
    """How many pairs of distinct counts a > b the bounds of Zubkov and
    Serov (`zubkov_serov_bounds`, s = a + b; the upper one holds only
    for a - 1 >= s/2) leave to the tail kernel. A pair is kept unless
    its upper bound is at most alpha / (2 family) times (1 - rtol) or
    its lower bound exceeds alpha (1 + rtol). Each bound is compared
    through its exponent: Phi(-sqrt(e)) <= c exactly when e >= z^2,
    Phi(-z) = c."""
    with mpmath.workdps(50):
        def cutoff(c):
            return 2 * mpmath.erfinv(1 - 2 * c) ** 2

        alpha = mpmath.mpf(alpha)
        rtol = mpmath.mpf(rtol)
        rejected_from = cutoff(alpha / (2 * family) * (1 - rtol))
        never_below = alpha * (1 + rtol)
        # a lower bound is at most Phi(0) = 1/2
        never_below = cutoff(never_below) if never_below < 0.5 else 0
        values = sorted({int(c) for c in counts})
        kept = 0
        for i, a in enumerate(values):
            for b in values[:i]:
                s = a + b
                if 2 * (a - 1) >= s and zubkov_serov_exponent(a - 1, s) >= rejected_from:
                    continue
                if zubkov_serov_exponent(a, s) < never_below:
                    continue
                kept += 1
        return kept


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
        # one ranked-regressor column per group level, in level order: the
        # first column of each block
        ranked_cols = [range(n_cols)[cols][0] for _, cols in design.blocks]
        membership = np.empty((n, len(ranked_cols)))
        for idx in range(len(ranked_cols)):
            membership[:, idx] = 1.0 if codes is None else (codes == idx)
        ind_x = indicator_matrix(x_raw, omega)
        frank_x = naive_rank(x_raw, omega) / n
        rank_coef = membership @ beta[ranked_cols]
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
            d = membership @ proj[ranked_cols, j]
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
    """Corrected covariance of a fit of `data`, one length-n influence
    column per coefficient, block by block, in the order of operations of
    the package's covariance: each element takes the same arithmetic, so
    the results agree to the bit.

    Column j is h2 / n + eps * nu_j (on its block's rows) + h3, where
    h2 = base + (I_y nu_j - y . nu_j) - (I_x w - r_x . w) with
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
        for rows, cols in design.blocks:
            z_b = z[rows, cols]
            nu = z_b @ gammas[cols, cols]
            sigma_nu2[cols] = np.sum(nu * nu, axis=0) / n
            eps = fit_result.residuals[rows]
            for j in range(k)[cols]:
                gamma_j = gammas[cols, j]
                nu_j = z_b @ gamma_j
                base = float(eps @ nu_j)
                h2 = np.full(n, base)
                if design.ties_y is not None:
                    h2 = h2 + (_column_indicator(y_raw, nu_j, omega, rows)
                               - float(design.y[rows] @ nu_j))
                if design.r_x is not None:
                    r_x = design.r_x[rows]
                    weighted = fit_result.coefficients[cols][0] * nu_j
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
    return matrix


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


def etree_interval_chart(labels, lower, rank, upper):
    """The rank-interval chart of all p populations, built as an
    ElementTree and serialized by it; the text writer must give the same
    bytes."""
    import xml.etree.ElementTree as ET

    def fmt(v):
        return f"{v:.2f}".rstrip("0").rstrip(".")

    p = len(labels)
    left = min(max(8 * max((len(s) for s in labels), default=1) + 14, 64), 220)
    width = left + 420 + 16
    height = 34 + p * 22 + 18

    def sx(r):
        if p == 1:
            return left + 420 / 2
        return left + (r - 0.5) / p * 420

    root = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": str(width),
        "height": str(height),
        "viewBox": f"0 0 {width} {height}",
        "font-family": "sans-serif",
        "font-size": "12",
    })
    axis_y = 34 + p * 22 + 4
    ET.SubElement(root, "line", {
        "x1": fmt(sx(0.5)), "y1": fmt(axis_y), "x2": fmt(sx(p + 0.5)), "y2": fmt(axis_y),
        "stroke": "#444",
    })
    step = max(1, (p + 9) // 10)
    for r in range(1, p + 1):
        if (r - 1) % step and r != p:
            continue
        tick = ET.SubElement(root, "text", {
            "x": fmt(sx(r)), "y": fmt(axis_y + 12), "text-anchor": "middle", "fill": "#444",
        })
        tick.text = str(r)
    for row, j in enumerate(sorted(range(p), key=lambda j: (rank[j], j))):
        cy = 34 + row * 22 + 22 / 2
        name = ET.SubElement(root, "text",
                             {"x": str(left - 8), "y": fmt(cy + 4), "text-anchor": "end"})
        name.text = labels[j]
        x0 = sx(lower[j])
        x1 = sx(upper[j])
        ET.SubElement(root, "rect", {
            "class": "interval", "x": fmt(x0), "y": fmt(cy - 8 / 2),
            "width": fmt(max(x1 - x0, 2.0)), "height": fmt(8), "fill": "#9ecae1",
        })
        ET.SubElement(root, "circle", {
            "class": "point", "cx": fmt(sx(rank[j])), "cy": fmt(cy), "r": "3.5",
            "fill": "#08519c",
        })
    return ('<?xml version="1.0" encoding="UTF-8"?>\n'
            + ET.tostring(root, encoding="unicode") + "\n")
