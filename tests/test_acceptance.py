"""Release gate: twenty-three end-to-end checks, each printing one summary line.

Run with -s (or -rP) to see the per-check lines; every check also
asserts its own tolerance and runtime budget.
"""
import json
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np

from oracles import (
    exact_binom_tail,
    hoeffding_kept_pairs,
    naive_corrected_vcov,
    naive_indicator_matvec,
    spearman_rho,
)
import rankinfer.cli.envelope as envelope
from rankinfer.cli.io import parse_table
from rankinfer.cli.main import main as cli_main
import rankinfer.multinomcs as multinomcs
from rankinfer.multinomcs import MultinomialCounts, PairwisePValueTable, cs_ranks_multinomial
from rankinfer.numerics import binom_tail, inverse_from_qr, qr_decompose
from rankinfer.rankcs import (
    BootstrapConfig,
    EstimatesWithCovariance,
    _bootstrap_normals,
    _critical_values,
    _pair_maxima,
    _upper_quantile,
    cs_ranks,
    pairwise_se,
)
from rankinfer.ranking import TieRule, _TieRuns, irank
from rankinfer.rankreg.model import RankRegressionModel, fit
from rankinfer.rankreg.variance import (
    _indicator_table,
    corrected_vcov,
    projection_from_inverse,
)


def _report(tag, detail, seconds):
    print(f"{tag} PASS {detail} [{seconds:.2f}s]")


def test_c01_tied_rank_table():
    theta = np.array([3.0, 4, 7, 7, 10, 11, 15, 15, 15, 15])
    expected = {
        0.0: [1, 2, 3, 3, 5, 6, 7, 7, 7, 7],
        0.5: [1, 2, 3.5, 3.5, 5, 6, 8.5, 8.5, 8.5, 8.5],
        1.0: [1, 2, 4, 4, 5, 6, 10, 10, 10, 10],
    }

    def run_all():
        return {
            w: irank(theta, TieRule(omega=w, direction="increasing")).values
            for w in (0.0, 0.5, 1.0)
        }

    run_all()  # warm the numpy dispatch before timing
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        got = run_all()
        best = min(best, time.perf_counter() - t0)
    for w, want in expected.items():
        assert got[w].tolist() == want, (w, got[w])
    assert best < 1e-3, f"three-omega ranking took {best * 1e3:.3f} ms"
    _report("C01", f"tied-rank table exact for omega in {{0, 0.5, 1}}, {best * 1e6:.0f} us", best)


def test_c02_country_ranking(country_scores):
    t0 = time.perf_counter()
    names, scores = country_scores
    ranks = irank(scores, TieRule(omega=0.0, direction="decreasing")).values
    by_rank = [name for _, name in sorted(zip(ranks, names))]
    assert by_rank == ["Canada", "Belgium", "Austria", "Australia", "Chile", "Colombia"]
    assert ranks.tolist() == [4, 3, 2, 1, 5, 6]
    _report("C02", "six-country fixture ranks 1-6 in expected order", time.perf_counter() - t0)


def test_c03_gaussian_coverage():
    p = 10
    theta = np.linspace(0.0, 1.0, p)
    sigma = 0.01 * np.eye(p)
    true_rank = np.arange(p, 0, -1)
    reps = 2000
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    marginal_hits = np.zeros(p)
    simultaneous_hits = 0
    for rep in range(reps):
        est = EstimatesWithCovariance(theta + 0.1 * rng.standard_normal(p), sigma)
        cfg = BootstrapConfig(draws=1000, coverage=0.95, seed=rep)
        cs_m = cs_ranks(est, cfg, mode="marginal")
        cs_s = cs_ranks(est, cfg, mode="simultaneous")
        marginal_hits += (cs_m.lower <= true_rank) & (true_rank <= cs_m.upper)
        simultaneous_hits += bool(
            ((cs_s.lower <= true_rank) & (true_rank <= cs_s.upper)).all()
        )
    elapsed = time.perf_counter() - t0
    marginal = marginal_hits / reps
    simultaneous = simultaneous_hits / reps
    assert marginal.min() >= 0.94, marginal
    assert simultaneous >= 0.94, simultaneous
    assert elapsed < 300.0
    _report(
        "C03",
        f"gaussian coverage: marginal min {marginal.min():.4f}, "
        f"simultaneous {simultaneous:.4f} over {reps} reps",
        elapsed,
    )


def test_c04_multinomial_coverage():
    theta = np.array([0.4, 0.3, 0.2, 0.1])
    true_rank = np.array([1, 2, 3, 4])
    reps = 5000
    floor = 0.95 - 2.0 * math.sqrt(0.95 * 0.05 / reps)
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    hits = np.zeros(4)
    for _ in range(reps):
        counts = MultinomialCounts(rng.multinomial(200, theta))
        cs = cs_ranks_multinomial(counts, coverage=0.95, mode="marginal", method="holm")
        hits += (cs.lower <= true_rank) & (true_rank <= cs.upper)
    elapsed = time.perf_counter() - t0
    coverage = hits / reps
    assert coverage.min() >= floor, (coverage, floor)
    assert elapsed < 120.0
    _report(
        "C04",
        f"multinomial coverage min {coverage.min():.4f} >= {floor:.4f} over {reps} reps",
        elapsed,
    )


def test_c05_pvalue_closed_forms():
    t0 = time.perf_counter()
    # the kernel, and the grid of counts 0..60, whose cell (k, l) tests
    # count k against count l
    table = PairwisePValueTable.from_counts(MultinomialCounts(np.arange(61)), 0.5, 120).values
    for s in range(1, 61):
        assert binom_tail(0, s) == table[0, s] == 1.0
        assert binom_tail(s, s) == table[s, 0] == 2.0 ** (-s)
    assert table[3, 1] == 0.3125
    # the tail kernel against exact rational arithmetic for every s <= 30
    worst_abs = worst_rel = 0.0
    for s in range(1, 31):
        for x in range(1, s + 1):
            got = float(binom_tail(x, s))
            want = float(exact_binom_tail(x, s))
            worst_abs = max(worst_abs, abs(got - want))
            worst_rel = max(worst_rel, abs(got - want) / want)
    assert worst_abs <= 1e-14, worst_abs
    assert worst_rel <= 1e-14, worst_rel
    _report(
        "C05",
        f"closed forms exact; tail kernel vs rational: abs {worst_abs:.1e}, rel {worst_rel:.1e}",
        time.perf_counter() - t0,
    )


def test_c06_indicator_matvec_oracle_and_scaling():
    rng = np.random.default_rng(6)
    omegas = [0.0, 0.3, 0.5, 1.0]
    t0 = time.perf_counter()
    worst = 0.0
    for case in range(10_000):
        n = int(rng.integers(1, 501))
        style = case % 3
        if style == 0:
            x = rng.standard_normal(n)
        elif style == 1:
            pool = max(2, int(rng.integers(2, max(3, n // 2 + 1))))
            x = rng.integers(0, pool, n).astype(float)
        else:
            x = rng.standard_normal(n)
            if n // 2 > 1:
                x[: n // 2] = x[0]  # one value at multiplicity n/2
        v = rng.standard_normal(n)
        ties = _TieRuns.of(x)
        got = _indicator_table(ties, v, omegas[case % 4]).take(ties.code)
        want = naive_indicator_matvec(x, v, omegas[case % 4])
        worst = max(worst, float(np.max(np.abs(got - want))))
    battery_elapsed = time.perf_counter() - t0
    assert worst <= 1e-12, worst

    def one_shot(n):
        best = math.inf
        for _ in range(5):
            x = rng.integers(0, 1000, n).astype(np.float64)
            v = rng.standard_normal(n)
            t0 = time.perf_counter()
            ties = _TieRuns.of(x)
            _indicator_table(ties, v, 0.5).take(ties.code)
            best = min(best, time.perf_counter() - t0)
        return best

    t5 = one_shot(10**5)
    t6 = one_shot(10**6)
    assert t6 < 2.0, t6
    assert t6 / t5 <= 13.0, (t5, t6, t6 / t5)
    _report(
        "C06",
        f"10^4 cases worst {worst:.1e}; t(1e6) {t6 * 1e3:.0f} ms, "
        f"t(1e6)/t(1e5) {t6 / t5:.2f}",
        battery_elapsed + 5 * (t5 + t6),
    )


def test_c07_projection_identity():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for case in range(1000):
        k = int(rng.integers(2, 11))
        n = int(rng.integers(k + 2, 201))
        z = rng.standard_normal((n, k))
        if case % 2:
            z[:, -1] = 1.0
        proj = projection_from_inverse(inverse_from_qr(qr_decompose(z)))
        for j in range(k):
            others = [c for c in range(k) if c != j]
            gamma, *_ = np.linalg.lstsq(z[:, others], z[:, j], rcond=None)
            col = proj[:, j]
            worst = max(
                worst,
                abs(col[j] - 1.0),
                float(np.max(np.abs(col[others] + gamma))),
            )
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10, worst
    _report("C07", f"1000 designs: projection columns vs per-column OLS, worst {worst:.1e}", elapsed)


def _variance_check_fit(n, with_cov, with_ties, omega, seed):
    rng = np.random.default_rng(seed)
    if with_ties:
        x = rng.integers(0, n // 10, n).astype(float)
        y = np.round(rng.standard_normal(n) + 0.8 * x / (n // 10), 1)
    else:
        x = rng.standard_normal(n)
        y = 0.8 * x + rng.standard_normal(n)
    data = {"Y": y, "X": x}
    text = "r(Y) ~ r(X)"
    if with_cov:
        data["W"] = rng.standard_normal(n)
        text = "r(Y) ~ r(X) + W"
    return fit(RankRegressionModel.from_formula(text, omega=omega), data), data


def test_c08_corrected_variance_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    configs = [
        (with_cov, with_ties, omega)
        for with_cov in (False, True)
        for with_ties in (False, True)
        for omega in (0.5, 1.0)
    ]
    for i, (with_cov, with_ties, omega) in enumerate(configs):
        f, data = _variance_check_fit(300, with_cov, with_ties, omega, seed=800 + i)
        got = corrected_vcov(f).matrix
        want = naive_corrected_vcov(f, data)
        worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10, worst
    assert elapsed < 60.0
    _report("C08", f"corrected vcov vs naive double loop, worst rel {worst:.1e}", elapsed)


def test_c09_spearman_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    x = rng.standard_normal(2000)
    y = 0.6 * x + rng.standard_normal(2000)
    f = fit(RankRegressionModel.from_formula("r(Y) ~ r(X)"), {"Y": y, "X": x})
    slope = f.coefficients[list(f.colnames).index("r(X)")]
    rho = spearman_rho(x, y)
    assert abs(slope - rho) <= 1e-12, (slope, rho)
    _report("C09", f"slope {slope:.6f} equals spearman rho within {abs(slope - rho):.1e}",
            time.perf_counter() - t0)


def test_c10_corrected_vs_homoskedastic_gap():
    t0 = time.perf_counter()
    n = 3894
    rng = np.random.default_rng(3894)
    chol = np.linalg.cholesky(np.array([[1.0, 0.4], [0.4, 1.0]]))
    draws = rng.standard_normal((n, 2)) @ chol.T
    x, y = draws[:, 0], draws[:, 1]
    f = fit(RankRegressionModel.from_formula("r(Y) ~ r(X)"), {"Y": y, "X": x})

    ry = f.design.y
    zx = f.design.z
    beta, *_ = np.linalg.lstsq(zx, ry, rcond=None)
    assert np.max(np.abs(beta - f.coefficients)) <= 1e-12

    k = zx.shape[1]
    sigma2 = float(f.residuals @ f.residuals) / (n - k)
    se_ols = np.sqrt(np.diag(sigma2 * inverse_from_qr(f.qr)))
    se_corr = np.sqrt(np.diag(corrected_vcov(f).matrix))
    slope = list(f.colnames).index("r(X)")
    gap = abs(se_corr[slope] / se_ols[slope] - 1.0)
    assert gap > 0.01, (se_corr[slope], se_ols[slope])
    _report(
        "C10",
        f"estimates match pre-ranked OLS; slope SE gap {gap * 100:.1f}% vs homoskedastic",
        time.perf_counter() - t0,
    )


def test_c11_grouped_equals_per_group():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    n = 150
    groups = np.array(["a", "b", "c"])[rng.integers(0, 3, n)]
    x = rng.integers(0, 20, n).astype(float)
    w = rng.standard_normal(n)
    y = np.round(0.5 * x / 20 + 0.3 * w + rng.standard_normal(n), 2)
    model = RankRegressionModel.from_formula("r(Y) ~ (r(X) + W):G")
    f = fit(model, {"Y": y, "X": x, "W": w, "G": groups})

    rule = TieRule(omega=model.omega, direction="increasing")
    ry = irank(y, rule).values / n
    rx = irank(x, rule).values / n
    worst = 0.0
    for level in ("a", "b", "c"):
        rows = groups == level
        zg = np.column_stack([rx[rows], w[rows], np.ones(int(rows.sum()))])
        beta, *_ = np.linalg.lstsq(zg, ry[rows], rcond=None)
        for name, got in zip((f"r(X):{level}", f"W:{level}", f"(Intercept):{level}"), beta):
            mine = f.coefficients[list(f.colnames).index(name)]
            worst = max(worst, abs(mine - got))
    assert worst <= 1e-10, worst
    _report("C11", f"grouped fit vs per-group OLS on pooled ranks, worst {worst:.1e}",
            time.perf_counter() - t0)


def test_c12_cli_determinism(invoke_cli):
    t0 = time.perf_counter()
    country = (
        "country,math_score\n"
        "Australia,491.3600\n"
        "Austria,498.9423\n"
        "Belgium,508.0703\n"
        "Canada,512.0169\n"
        "Chile,417.4066\n"
        "Colombia,390.9323\n"
    )
    estimates = "name,est,se\na,0.0,0.05\nb,10.0,0.05\nc,20.0,0.05\n"
    counts = "count\n260\n240\n170\n90\n"
    regdata = "Y,X\n" + "".join(f"{v},{v * 0.7 + (v % 3)}\n" for v in range(1, 25))
    invocations = [
        (["ranks", "--column", "math_score", "--label", "country"], country),
        (["cs-ranks", "--estimates", "est", "--se", "se", "--seed", "20240817"], estimates),
        (["cs-taubest", "--estimates", "est", "--se", "se", "--tau", "2",
          "--seed", "20240817"], estimates),
        (["cs-tauworst", "--estimates", "est", "--se", "se", "--tau", "2",
          "--seed", "20240817"], estimates),
        (["cs-multinom", "--column", "count"], counts),
        (["rank-reg", "--formula", "r(Y) ~ r(X)"], regdata),
    ]
    for args, payload in invocations:
        first = invoke_cli(args, stdin=payload)
        second = invoke_cli(args, stdin=payload)
        assert first.code == 0, (args, first.stderr)
        assert second.code == 0
        assert first.stdout == second.stdout, args
        assert first.stdout.endswith("\n")
    _report("C12", f"{len(invocations)} commands byte-identical across repeat runs",
            time.perf_counter() - t0)


def test_c13_multinomial_p300_budget():
    # Zipf(0.8) expected counts at n=1e5: integer parts plus a seeded
    # multinomial draw of the remainder
    p, n = 300, 100_000
    probs = 1.0 / np.arange(1, p + 1) ** 0.8
    probs /= probs.sum()
    rng = np.random.default_rng(13)
    counts = np.floor(n * probs).astype(np.int64)
    counts += rng.multinomial(n - int(counts.sum()), probs)
    data = MultinomialCounts(rng.permutation(counts))
    t0 = time.perf_counter()
    cs = cs_ranks_multinomial(data, coverage=0.95, mode="marginal", method="holm")
    elapsed = time.perf_counter() - t0
    assert np.all((cs.lower <= cs.rank) & (cs.rank <= cs.upper))
    assert elapsed < 1.0, f"p=300 marginal Holm took {elapsed:.2f}s"
    _report("C13", f"p=300, n=1e5 Zipf counts, marginal Holm in {elapsed * 1e3:.0f} ms",
            elapsed)


def test_c14_csv_parse_budget():
    # 2e5 rows of three distinct %.12g columns, as in the panel benchmark
    rng = np.random.default_rng(14)
    n = 200_000
    values = rng.normal(size=(n, 3))
    text = "Y,X,W\n" + "".join("%.12g,%.12g,%.12g\n" % tuple(row) for row in values.tolist())
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        table = parse_table(text)
        columns = table.numeric(["Y", "X", "W"])
        best = min(best, time.perf_counter() - t0)
    assert table.n == n and columns.shape == (3, n)
    assert np.allclose(columns, values.T, rtol=1e-11, atol=0.0)
    assert best <= 0.3, f"parse + numeric of 2e5 x 3 took {best:.2f}s"
    _report("C14", f"parse_table + numeric of a 2e5 x 3 CSV in {best * 1e3:.0f} ms", best)


def _grouped_panel(n, groups, seed):
    # 5,000 distinct X, Y rounded to 0.01, as in the panel benchmark's tied file
    rng = np.random.default_rng(seed)
    x = rng.normal(size=5000)[rng.integers(0, 5000, n)]
    data = {
        "Y": np.round(0.6 * x + 0.8 * rng.normal(size=n), 2),
        "X": x,
        "W": rng.normal(size=n),
        "G": rng.integers(0, groups, n),
    }
    return RankRegressionModel.from_formula("r(Y) ~ (r(X) + W):G"), data


def test_c15_grouped_fit_budget():
    model, data = _grouped_panel(100_000, 100, seed=15)
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        f = fit(model, data)
        cov = corrected_vcov(f)
        best = min(best, time.perf_counter() - t0)
    assert cov.matrix.shape == (300, 300)
    assert best < 3.0, f"grouped fit + corrected_vcov at n=1e5, G=100 took {best:.2f}s"
    _report("C15", f"grouped fit + corrected vcov, n=1e5 and G=100, in {best:.2f}s", best)


def test_c16_grouped_vcov_memory():
    model, data = _grouped_panel(100_000, 20, seed=16)
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        f = fit(model, data)
        corrected_vcov(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, p = f.design.n, len(f.colnames)
    ratio = peak / (n * p * 8)
    assert ratio <= 1.6, f"peak {ratio:.2f} x n*P doubles"
    _report("C16", f"grouped fit + corrected vcov peak {ratio:.2f} x n*P doubles (n=1e5, P={p})",
            time.perf_counter() - t0)


def test_c17_gaussian_draws_memory():
    # the normal draws are generated block by block, and the pair pass
    # holds draw chunks, so neither needs several draws x p temporaries
    p, draws = 1000, 4000
    rng = np.random.default_rng(17)
    factor = rng.normal(size=(p, 4))
    sigma = 0.01 * (factor @ factor.T) + np.diag(rng.uniform(0.01, 0.02, p))
    est = EstimatesWithCovariance(rng.normal(size=p), (sigma + sigma.T) / 2.0)
    cfg = BootstrapConfig(draws=draws, coverage=0.95, seed=17)
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        cs = cs_ranks(est, cfg, indices=range(0, p, 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(cs.lower <= cs.upper)
    ratio = peak / (draws * p * 8)
    assert ratio <= 5.0, f"peak {ratio:.2f} x draws*p doubles"
    _report("C17", f"cs_ranks peak {ratio:.2f} x draws*p doubles (p=1000, 4000 draws)",
            time.perf_counter() - t0)


def _zipf_counts(p, n, seed):
    """Zipf(0.8) expected counts: integer parts plus a seeded multinomial
    draw of the remainder, in a seeded order."""
    probs = 1.0 / np.arange(1, p + 1) ** 0.8
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    counts = np.floor(n * probs).astype(np.int64)
    counts += rng.multinomial(n - int(counts.sum()), probs)
    return MultinomialCounts(rng.permutation(counts))


def _zipf_p1000():
    """Zipf(0.8) counts at p=1000, n=1e5, as in C13: about 220 distinct
    counts, so the p-value kernel runs on a few percent of the table."""
    return _zipf_counts(1000, 100_000, 18)


def test_c18_multinomial_p1000_budget():
    data = _zipf_p1000()
    times = {}
    for mode in ("marginal", "simultaneous"):
        t0 = time.perf_counter()
        cs = cs_ranks_multinomial(data, coverage=0.95, mode=mode, method="holm")
        times[mode] = time.perf_counter() - t0
        assert np.all((cs.lower <= cs.rank) & (cs.rank <= cs.upper))
    for mode, elapsed in times.items():
        assert elapsed < 0.8, f"p=1000 {mode} Holm took {elapsed:.2f}s"
    distinct = np.unique(data.counts).size
    _report("C18", f"p=1000, n=1e5 Zipf counts ({distinct} distinct), marginal Holm in "
            f"{times['marginal'] * 1e3:.0f} ms, simultaneous in "
            f"{times['simultaneous'] * 1e3:.0f} ms", sum(times.values()))


def test_c22_multinomial_kernel_cells(monkeypatch):
    # C18's counts: at coverage 0.95 the tail kernel sees only the pairs
    # of distinct counts with x_k > x_l that the Hoeffding screen keeps,
    # those with (x_k - x_l)^2 / (2 s) below ln(2m / alpha): 8526 for the
    # marginal families (m = 2(p - 1)), 10361 for the simultaneous one
    # (m = p(p - 1)), of u(u - 1)/2 = 24090; at coverage 0.4 a set can
    # reject a pair whose p-value is above 1/2, so the kernel sees all
    # u x u pairs
    data = _zipf_p1000()
    p = data.p
    u = np.unique(data.counts).size

    def kept(m):
        return hoeffding_kept_pairs(data.counts, 1.0 - 0.95, m, multinomcs._SCREEN_RTOL)

    cells = []

    def counting(x, s):
        cells.append(np.broadcast(x, s).size)
        return binom_tail(x, s)

    monkeypatch.setattr(multinomcs, "binom_tail", counting)
    t0 = time.perf_counter()
    seen = {}
    for coverage, mode in ((0.95, "marginal"), (0.95, "simultaneous"), (0.4, "marginal")):
        cells.clear()
        cs_ranks_multinomial(data, coverage=coverage, mode=mode, method="holm")
        seen[coverage, mode] = sum(cells)
    assert seen[0.95, "marginal"] == kept(2 * (p - 1)) == 8526
    assert seen[0.95, "simultaneous"] == kept(p * (p - 1)) == 10361
    assert seen[0.4, "marginal"] == u * u
    _report("C22", f"p=1000 Zipf counts ({u} distinct): kernel on "
            f"{seen[0.95, 'marginal']} (marginal) and {seen[0.95, 'simultaneous']} "
            f"(simultaneous) of {u * (u - 1) // 2} cells at coverage 0.95, {u * u} at 0.4, "
            f"of {p ** 2}", time.perf_counter() - t0)


def test_c20_ranks_against_memory(tmp_path):
    # the ranks command holds neither the input bytes nor the table while
    # it encodes, and writes its 600k-float envelope from arrays in slices
    # and its row labels from digit arrays. np.loadtxt reads the kept bytes
    # with no text copy, so the peak falls while the envelope is encoded:
    # 3.72 x the input bytes in five runs (2-vCPU Xeon, numpy 2.4.6), and
    # the bound is that plus 15 %. Parsing peaks at 3.0 x and loadtxt at 2.4 x
    rng = np.random.default_rng(20)
    n = 200_000
    values = rng.normal(size=(n, 3))
    source = tmp_path / "distinct.csv"
    source.write_text("Y,X,W\n" + "".join("%.12g,%.12g,%.12g\n" % tuple(row)
                                           for row in values.tolist()))
    target = tmp_path / "ranks.json"
    size = source.stat().st_size
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        code = cli_main(["ranks", "--input", str(source), "--column", "Y", "--against", "X",
                         "--output", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert target.stat().st_size > size
    ratio = peak / size
    assert ratio <= 4.28, f"peak {ratio:.2f} x input bytes"
    _report("C20", f"ranks --against on a 2e5-row CSV peaks at {ratio:.2f} x its "
            f"{size / 1e6:.1f} MB", time.perf_counter() - t0)


def test_c21_screened_critical_values():
    # a league-sized set: p=300 with a five-factor covariance, 1000 draws.
    # The float32 screen plus float64 windows must give the float64
    # pass's critical values to the bit, and in less time
    p, draws = 300, 1000
    rng = np.random.default_rng(21)
    factors = rng.normal(0.0, 0.4, (p, 5))
    base = factors @ factors.T + np.diag(rng.uniform(0.5, 1.0, p))
    scale = rng.uniform(0.15, 0.35, p) / np.sqrt(np.diag(base))
    sigma = base * np.outer(scale, scale)
    est = EstimatesWithCovariance(rng.normal(size=p), (sigma + sigma.T) / 2.0)
    cfg = BootstrapConfig(draws=draws, coverage=0.95, seed=21)
    se = pairwise_se(est)
    z = _bootstrap_normals(est, cfg)
    t0 = time.perf_counter()
    times = {}
    for mode, rows in (("marginal", range(p)), ("simultaneous", None)):
        screened = full = math.inf
        for _ in range(3):
            t1 = time.perf_counter()
            want = _upper_quantile(_pair_maxima(z, se, rows), cfg.coverage)
            t2 = time.perf_counter()
            got = _critical_values(z, se, rows, cfg.coverage)
            t3 = time.perf_counter()
            full, screened = min(full, t2 - t1), min(screened, t3 - t2)
            assert np.array_equal(got, want), mode
        times[mode] = (screened, full)
    for mode, (screened, full) in times.items():
        # measured on a 2-vCPU Xeon: 0.04 to 0.06 s marginal, 0.03 to
        # 0.045 s simultaneous, 0.35 to 0.5 times the float64 pass
        assert screened < 0.3, f"{mode} critical values took {screened:.3f}s"
        assert screened < 0.75 * full, f"{mode}: {screened:.3f}s against {full:.3f}s"
    _report("C21", "p=300, 1000 draws: critical values bit-equal to the float64 pass; "
            + ", ".join(f"{mode} {s * 1e3:.0f} ms against {f * 1e3:.0f} ms"
                        for mode, (s, f) in times.items()),
            time.perf_counter() - t0)


def test_c23_ranks_formats_each_run_once(tmp_path, monkeypatch):
    # a binned column Y: 1e5 rows printed with two decimals, about 715
    # distinct values, some of them "-0.00". The writer formats each tie
    # run's value, irank and frank once, m floats per column instead of n,
    # and the file still holds the per-row lists as json.dumps writes
    # them. The value column has one run more when its zero run holds
    # both 0.0 and -0.0, which print apart. The row labels are "1" ...
    # "n". The all-distinct column X has a run per row, so its columns go
    # out as row floats and no run texts are made
    rng = np.random.default_rng(23)
    n = 100_000
    cells = ["%.2f" % v for v in rng.normal(size=n)]
    distinct = rng.permutation(n) + 0.5
    source = tmp_path / "binned.csv"
    source.write_text("Y,X\n" + "".join(f"{y},{x!r}\n" for y, x in zip(cells, distinct.tolist())))
    m = len(set(map(float, cells)))
    m_values = m + ({"0.00", "-0.00"} <= set(cells))
    assert "-0.00" in cells and m < 1000
    formatted = []
    float_texts = envelope._float_texts
    monkeypatch.setattr(envelope, "_float_texts",
                        lambda values: formatted.append(values.size) or float_texts(values))
    target = tmp_path / "ranks.json"
    t0 = time.perf_counter()
    assert cli_main(["ranks", "--input", str(source), "--column", "Y",
                     "--output", str(target)]) == 0
    seconds = time.perf_counter() - t0
    assert seconds < 2.0, f"ranks on 1e5 binned rows took {seconds:.2f}s"
    assert formatted == [m_values, m, m]
    text = target.read_text()
    body = json.loads(text)
    assert text == json.dumps(body, indent=2, ensure_ascii=False) + "\n"
    assert body["results"]["labels"] == [str(i) for i in range(1, n + 1)]
    assert list(map(repr, body["results"]["values"])) == [repr(float(c)) for c in cells]
    assert body["results"]["irank"][:3] == [
        1.0 + sum(float(c) > float(cells[i]) for c in cells) for i in range(3)]
    formatted.clear()
    assert cli_main(["ranks", "--input", str(source), "--column", "X",
                     "--output", str(target)]) == 0
    assert formatted == []
    body = json.loads(target.read_text())
    assert body["results"]["values"] == distinct.tolist()
    assert body["results"]["irank"] == (n - distinct + 0.5).tolist()
    _report("C23", f"ranks on a 1e5-row column with {m} distinct values formats "
            f"{m_values + 2 * m} floats for {3 * n} value and rank cells", seconds)


def test_c24_multinomial_sets_follow_distinct_counts():
    # each family is decided once per distinct count, so a set's time
    # and memory follow the u distinct counts, not the p categories.
    # Measured before these bounds were set (2-vCPU Xeon, numpy 2.4.6,
    # five runs): on Zipf(0.8) counts at p=3000, n=1e6 (672 distinct),
    # marginal Holm took 0.18-0.28 s and peaked at 9.8 MiB, simultaneous
    # 0.20-0.26 s and 20.8 MiB, where a p x p table with one family per
    # category took 1.4-1.9 s and peaked at 183 and 558 MiB. With every
    # count distinct (p = u = 2000) the peaks were 85.1 and 183.2 MiB,
    # and may not pass that table's 96176664 and 259977320 bytes
    t0 = time.perf_counter()
    # (counts, seconds or None, peak MiB by mode)
    cases = [(_zipf_counts(3000, 1_000_000, 24), 0.75, {"marginal": 15, "simultaneous": 32}),
             (MultinomialCounts(np.random.default_rng(24).permutation(2000) * 3 + 1), None,
              {"marginal": 96176664 / 2**20, "simultaneous": 259977320 / 2**20})]
    lines = []
    for data, budget, bounds in cases:
        u = np.unique(data.counts).size
        for mode, bound in bounds.items():
            t1 = time.perf_counter()
            tracemalloc.start()
            try:
                cs = cs_ranks_multinomial(data, coverage=0.95, mode=mode, method="holm")
                peak = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
            elapsed = time.perf_counter() - t1
            assert np.all((cs.lower <= cs.rank) & (cs.rank <= cs.upper))
            assert peak <= bound, f"p={data.p}, u={u} {mode} Holm peaked at {peak:.1f} MiB"
            if budget is not None:
                assert elapsed < budget, f"p={data.p} {mode} Holm took {elapsed:.2f}s"
            lines.append(f"p={data.p}, u={u} {mode} {elapsed:.2f}s, {peak:.1f} MiB")
    _report("C24", "; ".join(lines), time.perf_counter() - t0)
