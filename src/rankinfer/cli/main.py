"""Command-line entry points (the `rankinfer` console script).

Exit codes: 0 success, 2 input/parse error, 3 statistical-domain error,
4 internal error.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .. import __version__
from ..errors import DomainError, FormulaError, InputError, RankInferError
from ..multinomcs import MAX_TOTAL, MultinomialCounts, cs_ranks_multinomial
from ..rankcs import (
    BootstrapConfig,
    EstimatesWithCovariance,
    check_bootstrap_size,
    cs_ranks,
    cs_tau_best,
    cs_tau_worst,
)
from ..ranking import TieRule, _TieRuns, irank_against
from ..rankreg.formula import format_formula_error
from ..rankreg.model import CodedColumn, RankRegressionModel, confint, fit, summarize
from .envelope import OutputEnvelope, RowNumbers, RunColumn, input_digest, render_csv
from .io import parse_table, read_bytes, read_covariance, write_text


class _Checked(argparse.Action):
    """Stores a flag's value as `convert` reads it from the flag's text; a
    ValueError from `convert`, such as a library validator's, is a usage
    error that names the flag."""

    def __init__(self, option_strings, dest, convert, **kwargs):
        super().__init__(option_strings, dest, **kwargs)
        self.convert = convert

    def __call__(self, parser, namespace, text, option_string=None):
        try:
            value = self.convert(text)
        except ValueError as exc:
            parser.error(f"Invalid value for '{option_string}': {exc}")
        setattr(namespace, self.dest, value)


def _tau(text: str) -> int:
    tau = int(text)
    if tau < 1:
        raise ValueError("tau must be at least 1")
    return tau


def _flag(*names, **options):
    """The arguments of one `add_argument` call on a command's parser."""
    return names, options


_IO_FLAGS = (
    _flag("-i", "--input", dest="input_path", metavar="PATH", default="-",
          help="Input CSV path, or - for stdin (default: %(default)s)."),
    _flag("-o", "--output", dest="output_path", metavar="PATH",
          help="Write result here (atomic temp+rename) instead of stdout."),
    _flag("--format", dest="out_format", choices=("json", "csv"), default="json",
          help="JSON envelope or bare CSV table (default: %(default)s)."),
)
_COVERAGE = _flag("--coverage", action=_Checked, default=0.95,
                  convert=lambda text: BootstrapConfig(coverage=float(text)).coverage,
                  help="Confidence level, strictly between 0 and 1 (default: %(default)s).")


def _omega(default: float, text: str):
    return _flag("--omega", action=_Checked, default=default,
                 convert=lambda text: TieRule(float(text), "increasing").omega,
                 help=f"{text} (default: %(default)s).")


class _Command:
    """A subcommand: `callback` takes the parsed `argparse.Namespace`."""

    def __init__(self, callback):
        self.callback = callback


class _Cli:
    """The `rankinfer` parser, built once at import, and its commands by
    name."""

    def __init__(self, description: str):
        self.parser = argparse.ArgumentParser(prog="rankinfer", description=description,
                                              allow_abbrev=False)
        self.parser.add_argument("--version", action="version",
                                 version=f"rankinfer, version {__version__}")
        self._subparsers = self.parser.add_subparsers(dest="command", metavar="COMMAND",
                                                      required=True)
        self.commands: dict[str, _Command] = {}

    def command(self, name: str, *flags, doc: str | None = None):
        """Register the decorated function as the command `name`, taking
        `flags` (made by `_flag`); its help is `doc` or its docstring."""

        def register(callback):
            text = doc or callback.__doc__
            # allow_abbrev=False: `--cover 0.9` is refused, not read as --coverage
            parser = self._subparsers.add_parser(name, help=text, description=text,
                                                 allow_abbrev=False)
            for names, options in flags:
                parser.add_argument(*names, **options)
            self.commands[name] = _Command(callback)
            return callback

        return register

    def run(self, argv) -> None:
        """Parse `argv` (sys.argv[1:] when None) and call its command.
        argparse raises SystemExit: 0 after --help or --version, 2 with
        its message on stderr for a usage error."""
        args = self.parser.parse_args(argv)
        self.commands[args.command].callback(args)


cli = _Cli("Confidence sets for ranks and regressions on ranked variables.")


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
            raise InputError(f"--indices must be integers, got {part!r}")
        if not 1 <= k <= p:
            raise InputError(f"--indices entry {k} outside 1..{p}")
        if k - 1 in out:
            raise InputError(f"--indices entry {k} is repeated")
        out.append(k - 1)
    if not out:
        raise InputError("--indices is empty")
    return tuple(out)


def _interval_columns(cs) -> dict:
    """The `results` entries shared by the rank confidence-set commands."""
    return {
        "indices": [i + 1 for i in cs.indices],
        "labels": cs.labels,
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


def _read_input(args):
    """The --input bytes and their table; a table with no rows is refused
    before any column is read."""
    raw = read_bytes(args.input_path)
    table = parse_table(raw)
    if table.n == 0:
        raise InputError("data has no rows")
    return raw, table


def _emit(args, digest, results, csv_columns, seed=None, warnings=()):
    """Write the envelope of `results`: its procedure is the subcommand,
    its coverage the --coverage value (null for `ranks`, which has none).
    With --format csv, write the warnings to stderr and a table whose
    header is the keys of `csv_columns` and whose rows zip their values;
    a RunColumn gives its rows' float texts, written as they are."""
    if args.out_format == "json":
        envelope = OutputEnvelope(procedure=args.command, input_digest=digest, seed=seed,
                                  coverage=getattr(args, "coverage", None), results=results,
                                  warnings=tuple(warnings))
        write_text(args.output_path, envelope.to_json())
        return
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    columns = [c.tolist() if isinstance(c, (np.ndarray, RunColumn)) else c
               for c in csv_columns.values()]
    write_text(args.output_path, render_csv(list(csv_columns), zip(*columns)))


def _destination(path: str | None) -> str | None:
    """Where `write_text(path, ...)` writes: None for stdout, else the
    absolute path."""
    return None if path in (None, "-") else os.path.abspath(path)


def _value_runs(values: np.ndarray, runs: _TieRuns) -> RunColumn:
    """The column as its tie runs' values. A run holding both 0.0 and
    -0.0, which compare equal but print apart, is split in two: its
    -0.0 rows get a run of their own."""
    zero = int(np.searchsorted(runs.values, 0.0))
    if zero == runs.m or runs.values[zero] != 0.0:
        return RunColumn(runs.values, runs.code)
    negative = np.signbit(values) & (runs.code == zero)
    count = int(np.count_nonzero(negative))
    if count in (0, runs.ends[zero] - runs.starts[zero]):
        return RunColumn(runs.values, runs.code)  # one sign only
    run_values = np.append(runs.values, -0.0)
    run_values[zero] = 0.0
    return RunColumn(run_values, np.where(negative, runs.m, runs.code))


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


@cli.command(
    "ranks",
    *_IO_FLAGS,
    _flag("--column", required=True,
          help="Numeric column to rank; write --column=-x for a name that starts with -."),
    _omega(0.0, "Tie handling: 0 counts strict predecessors only, 1 counts ties too"),
    _flag("--increasing", dest="increasing", action="store_true", default=False,
          help="Rank the smallest value 1."),
    _flag("--decreasing", dest="increasing", action="store_false", default=False,
          help="Rank the largest value 1 (the default)."),
    _flag("--against",
          help="Rank --column within this reference column instead of within itself."),
    _flag("--label", dest="label_col", metavar="COLUMN", help="Column with row names."),
)
def cmd_ranks(args):
    """Integer and fractional ranks of one column."""
    raw, table = _read_input(args)
    digest = input_digest(raw)
    del raw  # the digest and the table hold all the command reads from it
    direction = "increasing" if args.increasing else "decreasing"
    rule = TieRule(args.omega, direction)
    if args.against is None:
        values = table.numeric(args.column)
    else:
        values, reference = table.numeric([args.column, args.against])
    n = len(values)
    labels = RowNumbers(n) if args.label_col is None else table.raw(args.label_col).tolist()
    del table  # not needed while the envelope is encoded
    if args.against is None:
        # each tie run's value and rank are computed, and later
        # formatted, once
        runs = _TieRuns.of(values)
        run_ranks = runs.run_ranks(rule)
        vals = _value_runs(values, runs)
        ivals = RunColumn(run_ranks, runs.code)
        fvals = RunColumn(run_ranks / runs.n, runs.code)
    else:
        vals = values
        ivals = irank_against(values, reference, rule)
        fvals = ivals / len(reference)
    results = {
        "column": args.column,
        "omega": args.omega,
        "direction": direction,
        "labels": labels,
        "values": vals,
        "irank": ivals,
        "frank": fvals,
    }
    _emit(args, digest, results, {
        "index": range(1, n + 1),
        "label": labels,
        "value": results["values"],
        "irank": results["irank"],
        "frank": results["frank"],
    })


def _load_estimates(args):
    """Shared loader for the Gaussian commands; returns (est, digest).
    Refuses a bootstrap past the size bounds as soon as the
    number of populations is known, before any p x p array exists."""
    if (args.se_col is None) == (args.cov_path is None):
        raise InputError("provide exactly one of --se or --cov")
    if args.input_path == args.cov_path == "-":
        raise InputError("--input and --cov cannot both read stdin; give one of them a file")
    raw, table = _read_input(args)
    if args.se_col is not None:
        theta, se = table.numeric([args.estimates_col, args.se_col])
    else:
        theta = table.numeric(args.estimates_col)
    p = len(theta)
    check_bootstrap_size(args.draws, p)
    labels = RowNumbers(p) if args.label_col is None else table.raw(args.label_col)
    if args.se_col is not None:
        if np.any(se <= 0):
            raise DomainError(f"column {args.se_col!r} must be positive standard errors")
        with np.errstate(over="ignore"):
            var = se**2
        if not np.all(np.isfinite(var)):
            raise DomainError(
                f"column {args.se_col!r} has a standard error whose square overflows")
        if np.any(var == 0):
            raise DomainError(
                f"column {args.se_col!r} has a standard error whose square underflows to 0")
        sigma = np.diag(var)
        digest = input_digest(raw)
    else:
        cov_raw = read_bytes(args.cov_path)
        sigma = read_covariance(cov_raw, p)
        digest = input_digest(raw, cov_raw)
    try:
        est = EstimatesWithCovariance(theta, sigma, labels=labels)
    except ValueError as exc:
        # the covariance file parsed but is unusable, e.g. not symmetric
        raise DomainError(str(exc)) from exc
    return est, digest


def _bootstrap(args) -> BootstrapConfig:
    # no --seed: derive one from OS entropy and record it in the envelope
    seed = int.from_bytes(os.urandom(8), "big") if args.seed is None else args.seed
    return BootstrapConfig(draws=args.draws, coverage=args.coverage, seed=seed)


_GAUSSIAN_FLAGS = (
    *_IO_FLAGS,
    _flag("--estimates", dest="estimates_col", metavar="COLUMN", required=True,
          help="Point-estimate column."),
    _flag("--se", dest="se_col", metavar="COLUMN",
          help="Standard-error column (diagonal covariance)."),
    _flag("--cov", dest="cov_path", metavar="PATH",
          help="CSV file with the full covariance matrix."),
    _flag("--draws", action=_Checked, default=1000,
          convert=lambda text: BootstrapConfig(draws=int(text)).draws,
          help="Parametric bootstrap draws, at least 100 (default: %(default)s)."),
    _flag("--seed", action=_Checked, convert=lambda text: BootstrapConfig(seed=int(text)).seed,
          help="RNG seed below 2**64; omitted, one is drawn from OS entropy and recorded."),
    _flag("--label", dest="label_col", metavar="COLUMN", help="Column with population names."),
    _COVERAGE,
)


@cli.command(
    "cs-ranks",
    *_GAUSSIAN_FLAGS,
    _flag("--simul", action="store_true",
          help="Simultaneous over all populations instead of marginal."),
    _flag("--indices", help="Comma-separated 1-based populations to report."),
    _flag("--svg", dest="svg_path", metavar="PATH", help="Also write an SVG interval chart here."),
)
def cmd_csranks(args):
    """Confidence sets for the ranks of Gaussian estimates."""
    if args.svg_path is not None and _destination(args.svg_path) == _destination(args.output_path):
        where = "stdout" if args.svg_path == "-" else "the same file"
        raise InputError(f"--svg and the result would both be written to {where}; "
                         "give -o or --svg another path")
    est, digest = _load_estimates(args)
    cfg = _bootstrap(args)
    idx = _parse_indices(args.indices, est.p)
    cs = cs_ranks(est, cfg, mode="simultaneous" if args.simul else "marginal", indices=idx)
    results = {"mode": cs.mode, **_interval_columns(cs)}
    if args.svg_path is not None:
        from .svg import interval_chart  # loaded by no other command

        write_text(
            args.svg_path,
            interval_chart(results["labels"], results["L"], results["rank"], results["U"], cs.p),
        )
    _emit(args, digest, results, _interval_table(results), seed=cfg.seed)


def _tau_command(name, chooser, doc):
    @cli.command(
        name,
        *_GAUSSIAN_FLAGS,
        _flag("--tau", action=_Checked, convert=_tau, required=True,
              help="Size of the top or bottom group, at least 1."),
        doc=doc,
    )
    def _cmd(args):
        est, digest = _load_estimates(args)
        if args.tau > est.p:
            raise InputError(f"--tau {args.tau} exceeds the {est.p} populations")
        cfg = _bootstrap(args)
        result = chooser(est, cfg, args.tau)
        results = {
            "tau": args.tau,
            "members": [j + 1 for j in result.members],
            "labels": [result.labels[j] for j in result.members],
        }
        _emit(args, digest, results, {"index": results["members"], "label": results["labels"]},
              seed=cfg.seed)

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


@cli.command(
    "cs-multinom",
    *_IO_FLAGS,
    _COVERAGE,
    _flag("--column", help="Count column; defaults to the only column."),
    _flag("--simul", action="store_true",
          help="Simultaneous over all categories instead of marginal."),
    _flag("--multcorr", choices=("holm", "bonferroni"), default="holm",
          help="Multiple-testing correction (default: %(default)s)."),
    _flag("--indices", help="Comma-separated 1-based categories to report."),
    _flag("--label", dest="label_col", metavar="COLUMN", help="Column with category names."),
)
def cmd_csranks_multinom(args):
    """Exact finite-sample confidence sets for multinomial category ranks."""
    raw, table = _read_input(args)
    column = args.column
    if column is None:
        numeric_names = [n for n in table.names if n != args.label_col]
        if not numeric_names:
            raise InputError("no count column is left besides the --label column")
        if len(numeric_names) != 1:
            raise InputError("--column is required when the input has several columns")
        column = numeric_names[0]
    counts = _integer_counts(table, column)
    labels = RowNumbers(counts.size) if args.label_col is None else table.raw(args.label_col)
    data = MultinomialCounts(counts, labels=labels)
    idx = _parse_indices(args.indices, data.p)
    cs = cs_ranks_multinomial(
        data,
        coverage=args.coverage,
        mode="simultaneous" if args.simul else "marginal",
        method=args.multcorr,
        indices=idx,
    )
    results = {"mode": cs.mode, "method": args.multcorr, **_interval_columns(cs)}
    _emit(args, input_digest(raw), results, _interval_table(results))


@cli.command(
    "rank-reg",
    *_IO_FLAGS,
    _flag("--formula", required=True,
          help='Model formula, e.g. "r(Y) ~ r(X) + W" or "r(Y) ~ (r(X) + W):G".'),
    _omega(1.0, "Tie handling for the rank transforms"),
    _COVERAGE,
)
def cmd_rankreg(args):
    """Regression on ranked variables with corrected standard errors."""
    digest, fit_result = _fit_input(args)
    summary = summarize(fit_result)
    intervals = confint(summary, level=args.coverage)
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
        "formula": args.formula,
        "omega": args.omega,
        "n": int(len(fit_result.residuals)),
        "coefficients": _records(table_columns, ["name", "estimate", "se", "z", "p"]),
        "vcov": summary.vcov.tolist(),
        "confint": _records(table_columns, ["name", "lower", "upper"]),
    }
    _emit(args, digest, results, table_columns, warnings=summary.warnings)


def _fit_input(args):
    """The input's digest and the model fitted to it. The input bytes, the
    parsed table and the data columns are freed on return, before the
    covariance, the largest allocation of the command, is formed."""
    raw, table = _read_input(args)
    try:
        model = RankRegressionModel.from_formula(args.formula, omega=args.omega)
    except FormulaError as exc:
        raise FormulaError(format_formula_error(args.formula, exc), exc.position) from exc
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
        cli.run(argv)
        # a reply smaller than the buffer still sits in it: send it now, so
        # that a closed stdout fails here and not in the flush at exit
        sys.stdout.flush()
    except SystemExit as exc:  # from argparse: --help, --version or a usage error
        return exc.code
    except KeyboardInterrupt:
        return 130
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does: exit 1 quietly, with
        # what is still buffered sent to devnull, or the flush at exit
        # fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
