"""Layer spans recorded from outside the program, by wrapping its public
functions after import.

A span records (name, start, end, parent). The span name is the per-layer
metric its self time is added to, so several functions can feed one
metric. Only calls on the main thread open spans; calls made from worker
threads run unwrapped inside whatever main-thread span is open. Some
targets are only counted, never timed, because they are called per pair
and a span each would distort the layer above them.

`install` runs in the child interpreter; `layer_metrics` in the parent.
"""
from __future__ import annotations

import importlib
import sys
import threading
import time


def _cells(args, kwargs, result):
    return result.n * len(result.names)


def _studentized_diffs(args, kwargs, result):
    """draws * (populations given a critical value) * (p - 1)."""
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    checked = len(result.indices) if result.mode == "marginal" else result.p
    return cfg.draws * checked * (result.p - 1)


# (module, attribute path, span name or None for count-only, counter, count)
TARGETS = [
    ("rankinfer.cli.io", "read_bytes", "cli.io.read_s", None, None),
    ("rankinfer.cli.io", "decode", "cli.io.read_s", None, None),
    ("rankinfer.cli.io", "read_covariance", "cli.io.read_s", None, None),
    ("rankinfer.cli.io", "parse_table", "cli.io.parse_s", "cli.io.cells", _cells),
    ("rankinfer.cli.io", "TableData.numeric", "cli.io.numeric_s", None, None),
    ("rankinfer.cli.io", "write_text", "cli.io.write_s", None, None),
    ("rankinfer.cli.envelope", "input_digest", "cli.envelope.digest_s", None, None),
    ("rankinfer.cli.envelope", "OutputEnvelope.to_json", "cli.envelope.to_json_s",
     "cli.envelope.bytes", lambda a, k, r: len(r.encode("utf-8"))),
    ("rankinfer.cli.svg", "interval_chart", "cli.svg_s", None, None),
    ("rankinfer.ranking", "irank", "ranking.rank_s", None, None),
    ("rankinfer.ranking", "frank", "ranking.rank_s", None, None),
    ("rankinfer.ranking", "irank_against", "ranking.rank_s", None, None),
    ("rankinfer.ranking", "frank_against", "ranking.rank_s", None, None),
    ("rankinfer.numerics", "cholesky_psd", "numerics.cholesky_s", None, None),
    ("rankinfer.numerics", "mvn_sample", "numerics.mvn_sample_s", "numerics.normals",
     lambda a, k, r: int(r.size)),
    ("rankinfer.numerics", "qr_decompose", "numerics.qr_s", "numerics.design_cols",
     lambda a, k, r: int(r.cols)),
    ("rankinfer.numerics", "log_binom_tail", None, "numerics.log_binom_tail_calls", None),
    ("rankinfer.rankcs", "pairwise_se", "rankcs.pairwise_se_s", None, None),
    ("rankinfer.rankcs", "cs_ranks", "rankcs.crit_bounds_s", "rankcs.studentized_diffs",
     _studentized_diffs),
    ("rankinfer.rankcs", "cs_ranks_lower", "rankcs.crit_bounds_s", "rankcs.studentized_diffs",
     _studentized_diffs),
    ("rankinfer.rankcs", "cs_tau_best", "rankcs.tau_select_s", None, None),
    ("rankinfer.rankcs", "cs_tau_worst", "rankcs.tau_select_s", None, None),
    ("rankinfer.multinomcs", "PairwisePValueTable.from_counts", "multinomcs.pvalue_table_s",
     None, None),
    ("rankinfer.multinomcs", "pairwise_pvalue", None, "multinomcs.pvalue_calls", None),
    ("rankinfer.multinomcs", "adjust_pvalues", "multinomcs.adjust_s", "multinomcs.adjust_calls",
     None),
    ("rankinfer.multinomcs", "cs_ranks_multinomial", "multinomcs.bounds_s", None, None),
    ("rankinfer.rankreg.model", "RankRegressionModel.from_formula", "rankreg.formula_s",
     None, None),
    ("rankinfer.rankreg.model", "build_design", "rankreg.model.design_s", None, None),
    ("rankinfer.rankreg.model", "fit", "rankreg.model.fit_s", None, None),
    ("rankinfer.rankreg.model", "summarize", "rankreg.summary_s", None, None),
    ("rankinfer.rankreg.model", "confint", "rankreg.summary_s", None, None),
    ("rankinfer.rankreg.variance", "corrected_vcov", "rankreg.variance.vcov_s", None, None),
]

ROOT = "cli.main.self_s"
RANKING = "ranking.rank_s"


class Tracer:
    """In-memory spans and counters for one child process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._main = threading.get_ident()

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, span, counter, count):
        tracer = self

        def traced(*args, **kwargs):
            timed = span is not None and threading.get_ident() == tracer._main
            index = tracer.open(span) if timed else -1
            try:
                result = fn(*args, **kwargs)
            finally:
                if timed:
                    tracer.close(index)
            if counter is not None:
                n = 1 if count is None else count(args, kwargs, result)
                tracer.counts[counter] = tracer.counts.get(counter, 0) + n
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def record(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "missing": self.missing}


def _rebind(fn, traced) -> None:
    """Point every name bound to `fn` at `traced`: module globals of the
    package, and closure cells of the click command callbacks."""
    for name, module in list(sys.modules.items()):
        if name != "rankinfer" and not name.startswith("rankinfer."):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, traced)
    cli = sys.modules["rankinfer.cli.main"].cli
    for command in cli.commands.values():
        for cell in command.callback.__closure__ or ():
            if cell.cell_contents is fn:
                cell.cell_contents = traced


def install() -> Tracer:
    tracer = Tracer()
    for module_name, path, span, counter, count in TARGETS:
        *outer, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            tracer.missing.append(f"{module_name}.{path}")
            continue
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        traced = tracer.wrap(fn, span, counter, count)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(traced))
        elif isinstance(owner, type):
            setattr(owner, attr, traced)
        else:
            _rebind(fn, traced)
    return tracer


def layer_metrics(record: dict) -> dict:
    """Per-metric self times and counts of one traced invocation."""
    spans = record["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, parent), inner in zip(spans, child_time):
        out[name] = out.get(name, 0.0) + (end - start) - inner
    calls = sum(1 for name, _, _, parent in spans
                if name == RANKING and (parent < 0 or spans[parent][0] != RANKING))
    if calls:
        out["ranking.calls"] = calls
    out.update(record["counts"])
    return out
