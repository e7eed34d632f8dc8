"""Command-line entry points (the `rankinfer` console script).

Exit codes: 0 success, 2 input/parse error, 3 statistical-domain error,
4 internal error.
"""
from __future__ import annotations

import math
import os
import sys

import click
import numpy as np

from .. import __version__
from ..errors import DomainError, FormulaError, InputError, RankInferError
from ..multinomcs import MAX_TOTAL, MultinomialCounts, cs_ranks_multinomial
from ..rankcs import (
    BootstrapConfig,
    EstimatesWithCovariance,
    cs_ranks,
    cs_tau_best,
    cs_tau_worst,
)
from ..ranking import TieRule, _TieRuns, irank_against
from ..rankreg.formula import format_formula_error
from ..rankreg.model import CodedColumn, RankRegressionModel, confint, fit, summarize
from .envelope import OutputEnvelope, RowNumbers, RunColumn, input_digest, render_csv
from .io import parse_table, read_bytes, read_covariance, write_text

_SEED_MAX = 2**64 - 1


def _common_io(fn):
    fn = click.option(
        "--input",
        "-i",
        "input_path",
        default="-",
        show_default=True,
        help="Input CSV path, or - for stdin.",
    )(fn)
    fn = click.option(
        "--output",
        "-o",
        "output_path",
        default=None,
        help="Write result here (atomic temp+rename) instead of stdout.",
    )(fn)
    fn = click.option(
        "--format",
        "out_format",
        type=click.Choice(["json", "csv"]),
        default="json",
        show_default=True,
        help="JSON envelope or bare CSV table.",
    )(fn)
    return fn


class _UnitRange(click.FloatRange):
    """A FloatRange that also refuses NaN, which fails neither of its
    bound comparisons."""

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if math.isnan(number):
            self.fail(f"{value!r} is not a number.", param, ctx)
        return number


def _coverage_option(fn):
    return click.option(
        "--coverage",
        type=_UnitRange(0.0, 1.0, min_open=True, max_open=True),
        default=0.95,
        show_default=True,
    )(fn)


def _resolve_seed(seed: int | None) -> int:
    # no --seed: derive one from OS entropy and record it in the envelope
    if seed is None:
        return int.from_bytes(os.urandom(8), "big")
    return seed


def _parse_indices(spec: str | None, p: int) -> tuple[int, ...] | None:
    if spec is None:
        return None
    out = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            k = int(part)
        except ValueError:
            raise click.UsageError(f"--indices must be integers, got {part!r}")
        if not 1 <= k <= p:
            raise click.UsageError(f"--indices entry {k} outside 1..{p}")
        if k - 1 in out:
            raise click.UsageError(f"--indices entry {k} is repeated")
        out.append(k - 1)
    if not out:
        raise click.UsageError("--indices is empty")
    return tuple(out)


def _label_values(table, label_col: str, p: int) -> list[str]:
    values = table.raw(label_col).tolist()
    if len(values) != p:
        raise InputError(
            f"label column {label_col!r} has {len(values)} rows, expected {p}"
        )
    return values


def _interval_columns(cs, labels: list[str]) -> dict:
    """The `results` entries shared by the rank confidence-set commands."""
    shown = [int(i) for i in cs.indices]
    return {
        "indices": [i + 1 for i in shown],
        "labels": [labels[i] for i in shown],
        "L": cs.lower.astype(np.int64).tolist(),
        "rank": cs.rank.astype(np.int64).tolist(),
        "U": cs.upper.astype(np.int64).tolist(),
    }


def _interval_table(results: dict) -> dict:
    return {
        "index": results["indices"],
        "label": results["labels"],
        "L": results["L"],
        "rank": results["rank"],
        "U": results["U"],
    }


def _emit(envelope, out_format, output_path, csv_columns):
    """Write the envelope, or with --format csv a table whose header is
    the keys of `csv_columns` and whose rows zip their values; a
    RunColumn gives its rows' float texts, written as they are."""
    if out_format == "json":
        write_text(output_path, envelope.to_json())
        return
    for warning in envelope.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    columns = [c.tolist() if isinstance(c, (np.ndarray, RunColumn)) else c
               for c in csv_columns.values()]
    write_text(output_path, render_csv(list(csv_columns), zip(*columns)))


def _value_runs(values: np.ndarray, runs: _TieRuns) -> RunColumn:
    """The column as its tie runs' values. A run holding both 0.0 and
    -0.0, which compare equal but print apart, is split in two: its
    -0.0 rows get a run of their own."""
    run_values = np.empty(runs.m)
    run_values[runs.code] = values  # ascending, as the runs are
    zero = int(np.searchsorted(run_values, 0.0))
    if zero == runs.m or run_values[zero] != 0.0:
        return RunColumn(run_values, runs.code)
    negative = np.signbit(values) & (runs.code == zero)
    count = int(np.count_nonzero(negative))
    if count in (0, runs.ends[zero] - runs.starts[zero]):
        return RunColumn(run_values, runs.code)  # one sign only
    run_values[zero] = 0.0
    return RunColumn(np.append(run_values, -0.0), np.where(negative, runs.m, runs.code))


def _integer_counts(table, column: str) -> np.ndarray:
    """The count column as int64, checked exactly. A float64 rounds
    '3.0000000000000001' to 3 and '9007199254740993' to MAX_TOTAL, so
    every cell that is not plain digits below MAX_TOTAL is read again as
    a Decimal for the integer and bound checks."""
    counts = table.numeric(column)
    tokens = (cell.strip() for cell in table.raw(column))
    inexact = [token for token, value in zip(tokens, counts.tolist())
               if value >= MAX_TOTAL or not (token.isascii() and token.isdigit())]
    if inexact:
        from decimal import Decimal  # only cells that are not plain digits pay the import

        values = [Decimal(token) for token in inexact]
        if any(v < 0 or v != v.to_integral_value() for v in values):
            raise DomainError(f"column {column!r} must hold nonnegative integer counts")
        if any(v > MAX_TOTAL for v in values):
            # checked before the int64 cast, which would wrap larger values
            raise DomainError(f"column {column!r} holds a count above 2**53 = {MAX_TOTAL}")
    return counts.astype(np.int64)


@click.group(name="rankinfer")
@click.version_option(__version__, prog_name="rankinfer")
def cli():
    """Confidence sets for ranks and regressions on ranked variables."""


@cli.command("ranks")
@_common_io
@click.option("--column", required=True, help="Numeric column to rank.")
@click.option(
    "--omega",
    type=_UnitRange(0.0, 1.0),
    default=0.0,
    show_default=True,
    help="Tie handling: 0 counts strict predecessors only, 1 counts ties too.",
)
@click.option(
    "--increasing/--decreasing",
    "increasing",
    default=False,
    help="Rank direction; default ranks the largest value 1.",
)
@click.option(
    "--against",
    default=None,
    help="Rank --column within this reference column instead of within itself.",
)
@click.option("--label", "label_col", default=None, help="Column with row names.")
def cmd_ranks(input_path, output_path, out_format, column, omega, increasing, against, label_col):
    """Integer and fractional ranks of one column."""
    raw = read_bytes(input_path)
    digest = input_digest(raw)
    table = parse_table(raw)
    del raw  # the digest and the table hold all the command reads from it
    rule = TieRule(omega, "increasing" if increasing else "decreasing")
    if against is None:
        values = table.numeric(column)
    else:
        values, reference = table.numeric([column, against])
    if values.size == 0:
        raise InputError("data has no rows")
    n = len(values)
    labels = RowNumbers(n) if label_col is None else _label_values(table, label_col, n)
    del table  # not needed while the envelope is encoded
    if against is None:
        # each tie run's value and rank are computed, and later
        # formatted, once
        runs = _TieRuns.of(values)
        run_ranks = runs.run_ranks(rule)
        vals = _value_runs(values, runs)
        ivals = RunColumn(run_ranks, runs.code)
        fvals = RunColumn(run_ranks / runs.n, runs.code)
    else:
        vals = values
        ivals = irank_against(values, reference, rule).values
        fvals = ivals / len(reference)
    results = {
        "column": column,
        "omega": omega,
        "direction": "increasing" if increasing else "decreasing",
        "labels": labels,
        "values": vals,
        "irank": ivals,
        "frank": fvals,
    }
    envelope = OutputEnvelope(
        procedure="ranks",
        input_digest=digest,
        seed=None,
        coverage=None,
        results=results,
    )
    _emit(envelope, out_format, output_path, {
        "index": range(1, n + 1),
        "label": labels,
        "value": results["values"],
        "irank": results["irank"],
        "frank": results["frank"],
    })


def _load_estimates(input_path, estimates_col, se_col, cov_path, label_col):
    """Shared loader for the Gaussian commands; returns (est, digest, labels)."""
    if (se_col is None) == (cov_path is None):
        raise click.UsageError("provide exactly one of --se or --cov")
    raw = read_bytes(input_path)
    table = parse_table(raw)
    theta = table.numeric(estimates_col)
    if theta.size == 0:
        raise InputError("data has no rows")
    p = len(theta)
    labels = list(RowNumbers(p)) if label_col is None else _label_values(table, label_col, p)
    if se_col is not None:
        se = table.numeric(se_col)
        if np.any(se <= 0):
            raise DomainError(f"column {se_col!r} must be positive standard errors")
        with np.errstate(over="ignore"):
            var = se**2
        if not np.all(np.isfinite(var)):
            raise DomainError(f"column {se_col!r} has a standard error whose square overflows")
        sigma = np.diag(var)
        digest = input_digest(raw)
    else:
        cov_raw = read_bytes(cov_path)
        sigma = read_covariance(cov_raw, len(theta))
        digest = input_digest(raw, cov_raw)
    try:
        est = EstimatesWithCovariance(theta, sigma, labels=tuple(labels))
    except ValueError as exc:
        # the covariance file parsed but is unusable, e.g. not symmetric
        raise DomainError(str(exc)) from exc
    return est, digest, labels


def _gaussian_options(fn):
    fn = click.option("--estimates", "estimates_col", required=True, help="Point-estimate column.")(fn)
    fn = click.option("--se", "se_col", default=None, help="Standard-error column (diagonal covariance).")(fn)
    fn = click.option("--cov", "cov_path", default=None, help="CSV file with the full covariance matrix.")(fn)
    fn = click.option(
        "--draws",
        type=click.IntRange(min=100),
        default=1000,
        show_default=True,
        help="Parametric bootstrap draws.",
    )(fn)
    fn = click.option(
        "--seed",
        type=click.IntRange(0, _SEED_MAX),
        default=None,
        help="RNG seed; omitted, one is drawn from OS entropy and recorded.",
    )(fn)
    fn = click.option("--label", "label_col", default=None, help="Column with population names.")(fn)
    return fn


@cli.command("cs-ranks")
@_common_io
@_gaussian_options
@_coverage_option
@click.option("--simul", is_flag=True, help="Simultaneous over all populations instead of marginal.")
@click.option("--indices", default=None, help="Comma-separated 1-based populations to report.")
@click.option("--svg", "svg_path", default=None, help="Also write an SVG interval chart here.")
def cmd_csranks(
    input_path,
    output_path,
    out_format,
    estimates_col,
    se_col,
    cov_path,
    draws,
    seed,
    label_col,
    coverage,
    simul,
    indices,
    svg_path,
):
    """Confidence sets for the ranks of Gaussian estimates."""
    est, digest, labels = _load_estimates(input_path, estimates_col, se_col, cov_path, label_col)
    used_seed = _resolve_seed(seed)
    cfg = BootstrapConfig(draws=draws, coverage=coverage, seed=used_seed)
    idx = _parse_indices(indices, est.p)
    cs = cs_ranks(est, cfg, mode="simultaneous" if simul else "marginal", indices=idx)
    results = {"mode": cs.mode, **_interval_columns(cs, labels)}
    envelope = OutputEnvelope(
        procedure="cs-ranks",
        input_digest=digest,
        seed=used_seed,
        coverage=coverage,
        results=results,
    )
    if svg_path is not None:
        from .svg import interval_chart  # xml.etree loads only for a chart

        write_text(
            svg_path,
            interval_chart(results["labels"], results["L"], results["rank"], results["U"]),
        )
    _emit(envelope, out_format, output_path, _interval_table(results))


def _tau_command(name, chooser, doc):
    @cli.command(name, help=doc)
    @_common_io
    @_gaussian_options
    @_coverage_option
    @click.option("--tau", type=click.IntRange(min=1), required=True)
    def _cmd(
        input_path,
        output_path,
        out_format,
        estimates_col,
        se_col,
        cov_path,
        draws,
        seed,
        label_col,
        coverage,
        tau,
    ):
        est, digest, labels = _load_estimates(
            input_path, estimates_col, se_col, cov_path, label_col
        )
        if tau > est.p:
            raise click.UsageError(f"--tau {tau} exceeds the {est.p} populations")
        used_seed = _resolve_seed(seed)
        cfg = BootstrapConfig(draws=draws, coverage=coverage, seed=used_seed)
        result = chooser(est, cfg, tau)
        members = [int(j) for j in result.members]
        results = {
            "tau": tau,
            "members": [j + 1 for j in members],
            "labels": [labels[j] for j in members],
        }
        envelope = OutputEnvelope(
            procedure=name,
            input_digest=digest,
            seed=used_seed,
            coverage=coverage,
            results=results,
        )
        _emit(envelope, out_format, output_path,
              {"index": results["members"], "label": results["labels"]})

    return _cmd


_tau_command(
    "cs-taubest",
    cs_tau_best,
    "Populations that cannot be ruled out of the top tau.",
)
_tau_command(
    "cs-tauworst",
    cs_tau_worst,
    "Populations that cannot be ruled out of the bottom tau.",
)


@cli.command("cs-multinom")
@_common_io
@_coverage_option
@click.option("--column", default=None, help="Count column; defaults to the only column.")
@click.option("--simul", is_flag=True, help="Simultaneous over all categories instead of marginal.")
@click.option(
    "--multcorr",
    type=click.Choice(["holm", "bonferroni"]),
    default="holm",
    show_default=True,
    help="Multiple-testing correction.",
)
@click.option("--indices", default=None, help="Comma-separated 1-based categories to report.")
@click.option("--label", "label_col", default=None, help="Column with category names.")
def cmd_csranks_multinom(
    input_path,
    output_path,
    out_format,
    coverage,
    column,
    simul,
    multcorr,
    indices,
    label_col,
):
    """Exact finite-sample confidence sets for multinomial category ranks."""
    raw = read_bytes(input_path)
    table = parse_table(raw)
    if column is None:
        numeric_names = [n for n in table.names if n != label_col]
        if len(numeric_names) != 1:
            raise click.UsageError(
                "--column is required when the input has several columns"
            )
        column = numeric_names[0]
    counts = _integer_counts(table, column)
    if counts.size == 0:
        raise InputError("data has no rows")
    p = len(counts)
    labels = list(RowNumbers(p)) if label_col is None else _label_values(table, label_col, p)
    data = MultinomialCounts(counts, labels=tuple(labels))
    idx = _parse_indices(indices, data.p)
    cs = cs_ranks_multinomial(
        data,
        coverage=coverage,
        mode="simultaneous" if simul else "marginal",
        method=multcorr,
        indices=idx,
    )
    results = {"mode": cs.mode, "method": multcorr, **_interval_columns(cs, labels)}
    envelope = OutputEnvelope(
        procedure="cs-multinom",
        input_digest=input_digest(raw),
        seed=None,
        coverage=coverage,
        results=results,
    )
    _emit(envelope, out_format, output_path, _interval_table(results))


@cli.command("rank-reg")
@_common_io
@click.option(
    "--formula",
    required=True,
    help='Model formula, e.g. "r(Y) ~ r(X) + W" or "r(Y) ~ (r(X) + W):G".',
)
@click.option(
    "--omega",
    type=_UnitRange(0.0, 1.0),
    default=1.0,
    show_default=True,
    help="Tie handling for the rank transforms.",
)
@_coverage_option
def cmd_rankreg(input_path, output_path, out_format, formula, omega, coverage):
    """Regression on ranked variables with corrected standard errors."""
    digest, fit_result = _fit_input(input_path, formula, omega)
    summary = summarize(fit_result)
    intervals = confint(summary, level=coverage)
    table_columns = {
        "name": list(summary.names),
        "estimate": summary.estimates.tolist(),
        "se": summary.std_errors.tolist(),
        "z": summary.z_values.tolist(),
        "p": summary.p_values.tolist(),
        "lower": intervals[:, 0].tolist(),
        "upper": intervals[:, 1].tolist(),
    }
    results = {
        "formula": formula,
        "omega": omega,
        "n": int(len(fit_result.residuals)),
        "coefficients": _records(table_columns, ["name", "estimate", "se", "z", "p"]),
        "vcov": summary.vcov.tolist(),
        "confint": _records(table_columns, ["name", "lower", "upper"]),
    }
    envelope = OutputEnvelope(
        procedure="rank-reg",
        input_digest=digest,
        seed=None,
        coverage=coverage,
        results=results,
        warnings=tuple(summary.warnings),
    )
    _emit(envelope, out_format, output_path, table_columns)


def _fit_input(input_path: str, formula: str, omega: float):
    """The input's digest and the model fitted to it. The input bytes, the
    parsed table and the data columns are freed on return, before the
    covariance, the largest allocation of the command, is formed."""
    raw = read_bytes(input_path)
    table = parse_table(raw)
    try:
        model = RankRegressionModel.from_formula(formula, omega=omega)
    except FormulaError as exc:
        raise FormulaError(format_formula_error(formula, exc), exc.position) from exc
    numeric_names = list(dict.fromkeys([model.response, *(name for name, _ in model.regressors)]))
    data = dict(zip(numeric_names, table.numeric(numeric_names)))
    if model.group is not None:
        data[model.group] = CodedColumn(*table.codes(model.group))
    return input_digest(raw), fit(model, data)


def _records(columns: dict, keys: list[str]) -> list[dict]:
    """Row-wise dicts over the chosen `columns`, keys in the given order."""
    return [dict(zip(keys, row)) for row in zip(*(columns[key] for key in keys))]


def main(argv=None) -> int:
    """Run the CLI, mapping exceptions onto the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Abort:
        return 130
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RankInferError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
