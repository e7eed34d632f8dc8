"""Output checks that do not trust the code under test.

Each check takes the parsed JSON envelope of one invocation and returns a
list of failure messages (empty when it passes). Expected values come
from the generated inputs and from independent implementations: scipy's
`rankdata` for ranks, `bdtrc` with a Holm/Bonferroni written here for the
multinomial sets, `numpy.linalg.lstsq` for the regression coefficients.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy.special import bdtrc, erfc, ndtri
from scipy.stats import rankdata

# Adjusted p-values this close to alpha are not decided by the float
# reference; such pairs widen the accepted bound range instead.
KNIFE_EDGE = 1e-9
REFERENCE_RTOL = 1e-9
# Lists longer than this are kept in a reference as length plus samples.
REFERENCE_LIST_MAX = 32


class Checker:
    """Checks for one workload's invocations; counts knife-edge skips."""

    def __init__(self, workload):
        self.workload = workload
        self.knife_edge_skipped = 0
        self._expected: dict = {}

    def check(self, inv, envelope: dict, svg: bytes | None) -> list[str]:
        inputs = [self.workload.inputs[key] for key in inv.inputs]
        digest = hashlib.sha256(b"\x1e".join(f.raw for f in inputs)).hexdigest()
        fails = []
        if envelope.get("input_digest") != "sha256:" + digest:
            fails.append("input_digest is not the SHA-256 of the input bytes")
        if "svg" in inv.params and (svg is None or b"<svg" not in svg):
            fails.append("--svg did not write an SVG chart")
        if envelope.get("procedure") != inv.command:
            fails.append(f"procedure {envelope.get('procedure')!r} != {inv.command!r}")
        results = envelope.get("results", {})
        check = getattr(self, "_" + inv.command.replace("-", "_"))
        try:
            fails.extend(check(inv, results))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            fails.append(f"malformed results: {type(exc).__name__}: {exc}")
        return fails

    def _ranks(self, inv, res):
        table = self.workload.inputs[inv.inputs[0]].columns
        values = np.asarray(table[inv.params["column"]])
        against = inv.params["against"]
        if against is None:
            expected = rankdata(-values, method="min")
            n_ref = values.size
        else:
            reference = np.asarray(table[against])
            combined = -np.concatenate([reference, values])
            strict = rankdata(combined, method="min")[reference.size:] \
                - rankdata(-values, method="min")
            expected = strict + 1
            n_ref = reference.size
        fails = []
        if not np.array_equal(np.asarray(res["values"], dtype=float), values):
            fails.append("ranks: values differ from the input column")
        if res["labels"] != [str(k + 1) for k in range(values.size)]:
            fails.append("ranks: labels are not 1..n")
        if not np.array_equal(np.asarray(res["irank"], dtype=float), expected):
            fails.append("ranks: irank differs from scipy.stats.rankdata")
        if not np.allclose(res["frank"], expected / n_ref, rtol=1e-12, atol=0.0):
            fails.append("ranks: frank differs from rankdata / n")
        return fails

    def _bounds(self, res, p: int, rank) -> list[str]:
        lower, point, upper = (np.asarray(res[k]) for k in ("L", "rank", "U"))
        fails = []
        if not np.array_equal(point, rank):
            fails.append("rank differs from rankdata(-estimates, 'min')")
        if not (np.all(lower >= 1) and np.all(lower <= point) and np.all(point <= upper)
                and np.all(upper <= p)):
            fails.append("bounds violate 1 <= L <= rank <= U <= p")
        return fails

    def _cs_ranks(self, inv, res):
        est = self.workload.inputs["estimates"].columns
        theta = np.asarray(est["estimate"])
        p = theta.size
        fails = self._bounds(res, p, rankdata(-theta, method="min"))
        if res["indices"] != list(range(1, p + 1)) or res["labels"] != est["name"]:
            fails.append("cs-ranks: indices or labels do not list every population")
        if res["mode"] != inv.params["mode"]:
            fails.append(f"cs-ranks: mode {res['mode']!r}")
        return fails

    def _tau(self, inv, res):
        est = self.workload.inputs["estimates"].columns
        theta = np.asarray(est["estimate"])
        tau = inv.params["tau"]
        members = res["members"]
        fails = []
        if res["tau"] != tau or len(members) < tau:
            fails.append("tau set has fewer than tau members")
        if len(set(members)) != len(members) or not all(1 <= m <= theta.size for m in members):
            fails.append("tau set members are not distinct indices in 1..p")
        if inv.params["best"]:
            must = np.flatnonzero(theta >= np.sort(theta)[::-1][tau - 1]) + 1
        else:
            must = np.flatnonzero(theta <= np.sort(theta)[tau - 1]) + 1
        if not set(must.tolist()) <= set(members):
            which = "largest" if inv.params["best"] else "smallest"
            fails.append(f"tau set misses one of the tau {which} estimates")
        if res["labels"] != [est["name"][m - 1] for m in members]:
            fails.append("tau set labels do not match members")
        return fails

    _cs_taubest = _tau
    _cs_tauworst = _tau

    def _cs_multinom(self, inv, res):
        data = self.workload.inputs[inv.inputs[0]].columns
        counts = np.asarray(data["count"], dtype=np.int64)
        p = counts.size
        fails = self._bounds(res, p, rankdata(-counts, method="min"))
        if res["indices"] != list(range(1, p + 1)) or res["labels"] != data["category"]:
            fails.append("cs-multinom: indices or labels do not list every category")
        if (res["mode"], res["method"]) != (inv.params["mode"], inv.params["method"]):
            fails.append("cs-multinom: mode or method differ from the request")
        l_low, l_high, u_low, u_high = self._multinom_bounds(
            counts, inv.params["mode"], inv.params["method"])
        got_l, got_u = np.asarray(res["L"]), np.asarray(res["U"])
        if not np.all((l_low <= got_l) & (got_l <= l_high)):
            fails.append("cs-multinom: L differs from the bdtrc Holm/Bonferroni reference")
        if not np.all((u_low <= got_u) & (got_u <= u_high)):
            fails.append("cs-multinom: U differs from the bdtrc Holm/Bonferroni reference")
        return fails

    def _multinom_bounds(self, counts, mode, method) -> np.ndarray:
        """Rows L_low, L_high, U_low, U_high of the accepted bounds.

        Hypothesis (k, l) has p-value P(Binomial(x_k + x_l, 1/2) >= x_k).
        Rejecting (k, j) raises L_j and rejecting (j, k) lowers U_j. The
        marginal family of j is its 2(p - 1) hypotheses; the simultaneous
        family is all p(p - 1). Knife-edge hypotheses may go either way.
        """
        p = counts.size
        pv = bdtrc(counts[:, None] - 1, counts[:, None] + counts[None, :], 0.5)
        off = ~np.eye(p, dtype=bool)
        if mode == "simultaneous":
            adj = np.full((p, p), np.inf)
            adj[off] = _adjust(pv[off], method)
        ranges = np.empty((4, p), dtype=np.int64)
        for j in range(p):
            others = np.flatnonzero(off[j])
            if mode == "simultaneous":
                into, out_of = adj[others, j], adj[j, others]
            else:
                family = _adjust(np.concatenate([pv[others, j], pv[j, others]]), method)
                into, out_of = family[:others.size], family[others.size:]
            sure_in, edge_in = self._decide(into)
            sure_out, edge_out = self._decide(out_of)
            ranges[:, j] = (1 + sure_in, 1 + sure_in + edge_in,
                            p - sure_out - edge_out, p - sure_out)
        return ranges

    def _decide(self, adjusted: np.ndarray) -> tuple[int, int]:
        """Sure rejections at alpha = 0.05, and knife-edge hypotheses."""
        alpha = 1.0 - 0.95
        edge = int(np.count_nonzero(np.abs(adjusted - alpha) <= KNIFE_EDGE))
        self.knife_edge_skipped += edge
        return int(np.count_nonzero(adjusted < alpha - KNIFE_EDGE)), edge

    def _rank_reg(self, inv, res):
        table = self.workload.inputs[inv.inputs[0]].columns
        names, beta = self._regression(inv.inputs[0], inv.params["grouped"])
        coefs = res["coefficients"]
        fails = []
        if res["n"] != len(table["Y"]) or res["omega"] != 1.0:
            fails.append("rank-reg: n or omega differ from the request")
        if [c["name"] for c in coefs] != names:
            return fails + [f"rank-reg: coefficient names {[c['name'] for c in coefs]}"]
        est = np.array([c["estimate"] for c in coefs])
        se = np.array([c["se"] for c in coefs])
        if not np.allclose(est, beta, rtol=1e-8, atol=1e-10):
            fails.append("rank-reg: estimates differ from numpy.linalg.lstsq")
        vcov = np.asarray(res["vcov"])
        if not (np.all(np.isfinite(se)) and np.all(se > 0)):
            fails.append("rank-reg: standard errors are not positive and finite")
        elif not (np.array_equal(vcov, vcov.T)
                  and np.allclose(np.sqrt(np.diag(vcov)), se, rtol=1e-12, atol=0.0)):
            fails.append("rank-reg: vcov is not symmetric with diagonal se^2")
        z = est / se
        if not np.allclose([c["z"] for c in coefs], z, rtol=1e-12, atol=0.0) or \
                not np.allclose([c["p"] for c in coefs], erfc(np.abs(z) / math.sqrt(2.0)),
                                rtol=1e-9, atol=1e-300):
            fails.append("rank-reg: z or p values inconsistent with estimate / se")
        half = ndtri(0.975) * se
        ci = res["confint"]
        if not (np.allclose([c["lower"] for c in ci], est - half, rtol=1e-12, atol=1e-15)
                and np.allclose([c["upper"] for c in ci], est + half, rtol=1e-12, atol=1e-15)):
            fails.append("rank-reg: confint is not estimate -/+ z_0.975 * se")
        return fails

    def _regression(self, key: str, grouped: bool):
        """Coefficient names and lstsq estimates on fractional ranks
        rankdata(method='max') / n, ranked regressor first, intercept last."""
        if (key, grouped) in self._expected:
            return self._expected[key, grouped]
        table = self.workload.inputs[key].columns
        y, x, w = (np.asarray(table[k]) for k in ("Y", "X", "W"))
        n = y.size
        base = [("r(X)", rankdata(x, method="max") / n), ("W", w), ("(Intercept)", np.ones(n))]
        if grouped:
            groups = np.asarray(table["G"])
            levels = sorted(set(table["G"]))
            names = [f"{name}:{lvl}" for name, _ in base for lvl in levels]
            cols = [col * (groups == lvl) for _, col in base for lvl in levels]
        else:
            names = [name for name, _ in base]
            cols = [col for _, col in base]
        beta = np.linalg.lstsq(np.column_stack(cols), rankdata(y, method="max") / n,
                               rcond=None)[0]
        self._expected[key, grouped] = (names, beta)
        return names, beta


def _adjust(pvals: np.ndarray, method: str) -> np.ndarray:
    m = pvals.size
    if method == "bonferroni":
        return np.minimum(1.0, m * pvals)
    order = np.argsort(pvals, kind="stable")
    stepped = np.maximum.accumulate((m - np.arange(m)) * pvals[order])
    out = np.empty(m)
    out[order] = np.minimum(1.0, stepped)
    return out


def _contains(outer: dict, inner: dict) -> bool:
    """Every [L, U] of `outer` contains the matching one of `inner`."""
    return bool(np.all(np.asarray(outer["L"]) <= np.asarray(inner["L"]))
                and np.all(np.asarray(outer["U"]) >= np.asarray(inner["U"])))


def _within_best(tau_set: dict, simul: dict) -> bool:
    """The one-sided critical value never exceeds the two-sided one on the
    same draws, so every tau-best member has a two-sided L <= tau."""
    lower = np.asarray(simul["L"])
    return all(lower[m - 1] <= tau_set["tau"] for m in tau_set["members"])


def _within_worst(tau_set: dict, simul: dict) -> bool:
    upper = np.asarray(simul["U"])
    return all(upper[m - 1] >= upper.size + 1 - tau_set["tau"] for m in tau_set["members"])


# (checked invocation, invocation it is compared with, relation, message)
RELATIONS = [
    ("cs-ranks.simul", "cs-ranks.marginal", _contains,
     "simultaneous sets do not contain the marginal sets"),
    ("cs-multinom.small.simul", "cs-multinom.small", _contains,
     "simultaneous sets do not contain the marginal sets"),
    ("cs-taubest", "cs-ranks.simul", _within_best,
     "a member has a simultaneous two-sided L above tau"),
    ("cs-tauworst", "cs-ranks.simul", _within_worst,
     "a member has a simultaneous two-sided U below p + 1 - tau"),
]


def relations(results: dict) -> list[tuple[str, str]]:
    """(invocation id, message) for every relation that fails between the
    results of one pass, given as invocation id -> results."""
    return [(a, f"{a}: {message}") for a, b, holds, message in RELATIONS
            if a in results and b in results and not holds(results[a], results[b])]


def summarize(value):
    """A reference-sized copy of a results value: long lists become their
    length plus evenly spaced samples."""
    if isinstance(value, dict):
        return {k: summarize(v) for k, v in value.items()}
    if isinstance(value, list):
        if len(value) <= REFERENCE_LIST_MAX:
            return [summarize(v) for v in value]
        step = math.ceil(len(value) / REFERENCE_LIST_MAX)
        return {"__len__": len(value), "__step__": step,
                "__sample__": [summarize(v) for v in value[::step]]}
    return value


def compare(ref, got, path="results") -> list[str]:
    """Mismatches of `got` against a recorded reference. Integers and
    strings must match exactly, floats within REFERENCE_RTOL; keys that
    the reference does not know are ignored."""
    if isinstance(ref, dict) and "__len__" in ref:
        if not isinstance(got, list) or len(got) != ref["__len__"]:
            return [f"{path}: length differs from the reference"]
        return compare(ref["__sample__"], got[::ref["__step__"]], path)
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, value in ref.items():
            if key not in got:
                out.append(f"{path}.{key}: missing")
            else:
                out.extend(compare(value, got[key], f"{path}.{key}"))
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: length differs from the reference"]
        out = []
        for k, (a, b) in enumerate(zip(ref, got)):
            out.extend(compare(a, b, f"{path}[{k}]"))
            if len(out) > 5:
                break
        return out
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if ref == got or abs(ref - got) <= REFERENCE_RTOL * max(abs(ref), abs(got)):
            return []
        return [f"{path}: {got!r} != reference {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != reference {ref!r}"]
    return []
