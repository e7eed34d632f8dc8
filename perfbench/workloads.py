"""Seeded input generation and the CLI invocations of each workload.

Every workload writes its CSV inputs into a work directory and lists the
`rankinfer` invocations that read them. The generated values are also
kept as arrays (exactly the floats the CSV text parses to), so the output
checks never have to trust the program's own parser.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

# The indicator operator in rankreg.variance switches from binary search
# to a scatter above this many distinct values; the two panel files sit
# on either side of it.
SEARCH_TABLE_MAX = 1 << 17
# Pair totals up to this use the exact big-integer tail in multinomcs.
EXACT_PAIR_TOTAL_MAX = 1000
# Fixed bootstrap seed handed to the Gaussian commands.
CLI_SEED = 20240127
TAU = 10


@dataclass
class InputFile:
    key: str
    path: str
    raw: bytes
    columns: dict
    rows: int
    cols: int
    properties: dict = field(default_factory=dict)

    def sizes(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "cells": self.rows * self.cols,
                "bytes": len(self.raw), **self.properties}


@dataclass
class Invocation:
    id: str
    command: str
    argv: list
    inputs: list
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    inputs: dict
    invocations: list
    # invocations that traced runs repeat with RANKINFER_THREADS=2
    threads2: tuple = ()


def _write(workdir: str, key: str, header: list, cols: list, fmt: list) -> tuple[str, bytes]:
    lines = [",".join(header)]
    lines.extend(",".join(f % v for f, v in zip(fmt, row)) for row in zip(*cols))
    raw = ("\n".join(lines) + "\n").encode("utf-8")
    path = os.path.join(workdir, key + ".csv")
    with open(path, "wb") as handle:
        handle.write(raw)
    return path, raw


def _as_text(values, fmt: str) -> np.ndarray:
    """The floats that `fmt`-formatted values parse back to."""
    return np.array([float(fmt % v) for v in values])


def _distinct_text(values, fmt: str, redraw) -> np.ndarray:
    """Formatted values, with repeats redrawn until all are distinct."""
    values = _as_text(values, fmt)
    while True:
        _, first = np.unique(values, return_index=True)
        dup = np.setdiff1d(np.arange(values.size), first)
        if dup.size == 0:
            return values
        values[dup] = _as_text(redraw(dup.size), fmt)


def _rel(path: str, root: str) -> str:
    return os.path.relpath(path, root)


def league(seed: int, workdir: str, root: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    p = 300
    theta = _as_text(rng.normal(0.0, 1.0, p), "%.6f")
    se = rng.uniform(0.15, 0.35, p)
    factors = rng.normal(0.0, 0.4, (p, 5))
    base = factors @ factors.T + np.diag(rng.uniform(0.5, 1.0, p))
    scale = se / np.sqrt(np.diag(base))
    sigma = base * np.outer(scale, scale)
    sigma = (sigma + sigma.T) / 2.0
    names = ["pop%03d" % (k + 1) for k in range(p)]
    est_path, est_raw = _write(workdir, "league_estimates", ["name", "estimate"],
                               [names, theta], ["%s", "%.6f"])
    cov_path, cov_raw = _write(workdir, "league_cov", ["c%03d" % (k + 1) for k in range(p)],
                               list(sigma.T), ["%.17g"] * p)
    inputs = {
        "estimates": InputFile("estimates", est_path, est_raw,
                               {"name": names, "estimate": theta}, p, 2),
        "cov": InputFile("cov", cov_path, cov_raw, {}, p, p),
    }
    common = ["--input", _rel(est_path, root), "--estimates", "estimate",
              "--cov", _rel(cov_path, root), "--label", "name",
              "--draws", "1000", "--seed", str(CLI_SEED)]
    svg = _rel(os.path.join(workdir, "league.svg"), root)
    invocations = [
        Invocation("cs-ranks.marginal", "cs-ranks", ["cs-ranks", *common],
                   ["estimates", "cov"], {"mode": "marginal"}),
        Invocation("cs-ranks.simul", "cs-ranks", ["cs-ranks", *common, "--simul", "--svg", svg],
                   ["estimates", "cov"], {"mode": "simultaneous", "svg": svg}),
        Invocation("cs-taubest", "cs-taubest", ["cs-taubest", *common, "--tau", str(TAU)],
                   ["estimates", "cov"], {"tau": TAU, "best": True}),
        Invocation("cs-tauworst", "cs-tauworst", ["cs-tauworst", *common, "--tau", str(TAU)],
                   ["estimates", "cov"], {"tau": TAU, "best": False}),
    ]
    return Workload("league", inputs, invocations,
                    threads2=("cs-ranks.marginal",))


def _zipf_counts(rng, p: int, n: int) -> np.ndarray:
    """Zipf(0.8) counts summing to n, in seeded category order.

    Each category gets the integer part of its expected count and only the
    remainder is drawn, so the pair totals, and with them which tail branch
    each pair takes, barely move between seeds.
    """
    probs = np.arange(1, p + 1, dtype=np.float64) ** -0.8
    expected = n * probs / probs.sum()
    counts = np.floor(expected).astype(np.int64)
    counts += rng.multinomial(n - int(counts.sum()), probs / probs.sum())
    return rng.permutation(counts)


def multinom(seed: int, workdir: str, root: str) -> Workload:
    rng = np.random.default_rng([seed, 2])
    inputs = {}
    for key, p, n in (("small", 150, 10_000), ("large", 40, 1_000_000)):
        counts = _zipf_counts(rng, p, n)
        labels = ["c%03d" % (k + 1) for k in range(p)]
        path, raw = _write(workdir, "multinom_" + key, ["category", "count"],
                           [labels, counts], ["%s", "%d"])
        totals = counts[:, None] + counts[None, :]
        off = ~np.eye(p, dtype=bool)
        exact_share = float(np.mean(totals[off] <= EXACT_PAIR_TOTAL_MAX))
        inputs[key] = InputFile(key, path, raw, {"category": labels, "count": counts}, p, 2,
                                {"total": int(counts.sum()),
                                 "pair_totals_exact_share": exact_share})

    def inv(key, flags, params):
        return Invocation(".".join(["cs-multinom", key, *[f.lstrip("-") for f in flags]]),
                          "cs-multinom",
                          ["cs-multinom", "--input", _rel(inputs[key].path, root),
                           "--column", "count", "--label", "category", *flags],
                          [key], params)

    invocations = [
        inv("small", [], {"mode": "marginal", "method": "holm"}),
        inv("small", ["--simul"], {"mode": "simultaneous", "method": "holm"}),
        inv("small", ["--multcorr", "bonferroni"], {"mode": "marginal", "method": "bonferroni"}),
        inv("large", [], {"mode": "marginal", "method": "holm"}),
    ]
    return Workload("multinom", inputs, invocations)


UNGROUPED = "r(Y) ~ r(X) + W"
GROUPED = "r(Y) ~ (r(X) + W):G"


def _ties_file(seed: int, workdir: str) -> InputFile:
    """n=1e5 rows: 5,000 distinct X, Y rounded to 0.01, continuous W, 20 groups."""
    rng = np.random.default_rng([seed, 3])
    n = 100_000
    draw = lambda k: rng.normal(0.0, 1.0, k)  # noqa: E731
    levels_x = _distinct_text(draw(5000), "%.6f", draw)
    pick = rng.permutation(np.concatenate([np.arange(5000), rng.integers(0, 5000, n - 5000)]))
    x = levels_x[pick]
    y = _as_text(0.6 * x + 0.8 * draw(n), "%.2f")
    w = _as_text(draw(n), "%.6f")
    g = ["g%02d" % (k + 1) for k in rng.integers(0, 20, n)]
    path, raw = _write(workdir, "panel_ties", ["Y", "X", "W", "G"], [y, x, w, g],
                       ["%.2f", "%.6f", "%.6f", "%s"])
    props = {"distinct_x": int(np.unique(x).size), "distinct_y": int(np.unique(y).size),
             "groups": len(set(g)), "search_table_max": SEARCH_TABLE_MAX}
    return InputFile("ties", path, raw, {"Y": y, "X": x, "W": w, "G": g}, n, 4, props)


def _distinct_file(seed: int, workdir: str) -> InputFile:
    """n=2e5 rows of continuous, all-distinct Y, X and W."""
    rng = np.random.default_rng([seed, 4])
    n = 200_000
    draw = lambda k: rng.normal(0.0, 1.0, k)  # noqa: E731
    x = _distinct_text(draw(n), "%.12g", draw)
    y = _distinct_text(0.6 * x + 0.8 * draw(n), "%.12g", draw)
    w = _as_text(draw(n), "%.12g")
    path, raw = _write(workdir, "panel_distinct", ["Y", "X", "W"], [y, x, w],
                       ["%.12g", "%.12g", "%.12g"])
    props = {"distinct_x": int(np.unique(x).size), "distinct_y": int(np.unique(y).size),
             "search_table_max": SEARCH_TABLE_MAX}
    return InputFile("distinct", path, raw, {"Y": y, "X": x, "W": w}, n, 3, props)


def panel(seed: int, workdir: str, root: str) -> Workload:
    """Both sides of the indicator operator's search/scatter choice: the
    tied file stays below SEARCH_TABLE_MAX distinct values, the distinct
    file exceeds it. The report splits layer times by file."""
    inputs = {"ties": _ties_file(seed, workdir), "distinct": _distinct_file(seed, workdir)}
    ties, distinct = (_rel(inputs[k].path, root) for k in ("ties", "distinct"))

    def regression(key, path, formula, grouped):
        return Invocation(f"{key}.rank-reg.{'grouped' if grouped else 'ungrouped'}",
                          "rank-reg", ["rank-reg", "--input", path, "--formula", formula],
                          [key], {"formula": formula, "grouped": grouped})

    invocations = [
        regression("ties", ties, "r(Y) ~ r(X) + W", False),
        regression("ties", ties, "r(Y) ~ (r(X) + W):G", True),
        Invocation("ties.ranks.Y", "ranks", ["ranks", "--input", ties, "--column", "Y"],
                   ["ties"], {"column": "Y", "against": None}),
        regression("distinct", distinct, "r(Y) ~ r(X) + W", False),
        Invocation("distinct.ranks.Y-against-X", "ranks",
                   ["ranks", "--input", distinct, "--column", "Y", "--against", "X"],
                   ["distinct"], {"column": "Y", "against": "X"}),
    ]
    return Workload("panel", inputs, invocations, threads2=("ties.rank-reg.grouped",))


BUILDERS = {
    "league": league,
    "multinom": multinom,
    "panel": panel,
}
