"""Deterministic output envelope shared by every subcommand.

Key order is part of the contract: procedure, input_digest, seed,
coverage, results, warnings. Two runs with the same inputs and seed
must serialize to identical bytes.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np


def input_digest(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for i, chunk in enumerate(chunks):
        if i:
            digest.update(b"\x1e")  # keep (a, b) distinct from (ab,)
        digest.update(chunk)
    return "sha256:" + digest.hexdigest()


@dataclass(frozen=True)
class OutputEnvelope:
    procedure: str
    input_digest: str
    seed: int | None
    coverage: float | None
    results: dict
    warnings: tuple[str, ...] = field(default_factory=tuple)

    def to_json(self) -> str:
        """The bytes of `json.dumps(body, indent=2, ensure_ascii=False)`
        plus a newline."""
        body = {
            "procedure": self.procedure,
            "input_digest": self.input_digest,
            "seed": self.seed,
            "coverage": self.coverage,
            "results": self.results,
            "warnings": list(self.warnings),
        }
        chunks: list[str] = []
        _encode(body, 0, chunks)
        chunks.append("\n")
        return "".join(chunks)


@dataclass(frozen=True, eq=False)
class RunColumn:
    """A float64 column stored as one value per run of rows, plus each
    row's run code: row i holds values[code[i]].

    The envelope formats each run's value once and writes the rows by
    gathering those texts, so a column with few distinct values costs m
    float formats instead of n. A column of n / 2 runs or more (or no
    rows) is written as its n row values, like a float64 array.
    """

    values: np.ndarray
    code: np.ndarray

    def texts(self) -> np.ndarray:
        """Each run's text, as an object array to gather rows from."""
        return np.array(_float_texts(self.values), dtype=object)

    def tolist(self) -> list[str]:
        """Each row's text, in row order."""
        return self.texts().take(self.code).tolist()


@dataclass(frozen=True)
class RowNumbers:
    """The strings "1" ... "n", row labels by default: the envelope
    writes them a slice at a time, with no list of n strings."""

    n: int

    def __iter__(self):
        return map(str, range(1, self.n + 1))


def _float_texts(values: np.ndarray) -> list[str]:
    """The C encoder's text of each float, its repr; NaN and infinities,
    which are not JSON, raise ValueError as that encoder does."""
    if not np.all(np.isfinite(values)):
        raise ValueError("Out of range float values are not JSON compliant")
    return list(map(float.__repr__, values.tolist()))


# Values the C encoder writes exactly as the indenting pure-Python encoder
# does. Commands build results from these (`tolist()`, `int()`, `str`),
# from 1-D float64 arrays, which are written as the list of their
# `tolist()`, slice by slice, from RunColumns, written as their rows'
# texts, slice by slice, or with many runs as the array of their rows,
# and from RowNumbers, written as the list of their strings, slice by
# slice; anything else, numpy scalars included, is a TypeError.
_SCALARS = frozenset({str, int, float, bool, type(None)})
_INDENT = "  "
# Elements per slice of an array value: each slice becomes a list of
# Python floats only while the C encoder writes it, or, when every value
# in it is integral and below 1e16 in size, digit arrays.
_ARRAY_SLICE = 1 << 14


def _encode(value, level: int, chunks: list[str]) -> None:
    """Append the indent=2 JSON of `value` at nesting `level`.

    json.dumps uses its pure-Python encoder whenever `indent` is set;
    here every scalar, every flat list of scalars and every slice of a
    1-D float64 array goes through the C encoder instead, with the
    newline and indent of its level as the item separator. A RunColumn's
    rows are joined with that separator from their runs' texts. A slice
    of integral floats below 1e16 in size, and RowNumbers' rows, are
    written from arrays of their digits.
    """
    kind = type(value)
    if kind in _SCALARS:
        chunks.append(_flat_encoder(level).encode(value))
    elif kind is np.ndarray and value.dtype == np.float64 and value.ndim == 1:
        if not value.size:
            chunks.append("[]")
            return
        encoder = _flat_encoder(level + 1)
        item_separator = ",\n" + _INDENT * (level + 1)
        separator = "[\n" + _INDENT * (level + 1)
        for start in range(0, value.size, _ARRAY_SLICE):
            part = value[start:start + _ARRAY_SLICE]
            size = np.abs(part)
            if (size < 1e16).all() and (size == np.floor(size)).all():
                # the repr of an integral float below 1e16 is its sign,
                # its digits and ".0"
                inner = _digit_texts(size.astype(np.int64), ".0" + item_separator,
                                     np.signbit(part))[:-len(item_separator)]
            else:
                inner = encoder.encode(part.tolist())[1:-1]
            chunks.append(separator + inner)
            separator = item_separator
        chunks.append("\n" + _INDENT * level + "]")
    elif kind is RunColumn:
        if 2 * value.values.size >= value.code.size:
            # with runs for half the rows or more, gathering run texts costs
            # more than formatting every row (2e5 rows on a 2-vCPU Xeon:
            # the two cost the same near m = 0.65 n, and at m = n the
            # texts take 1.3-1.5 times as long), so the rows go as floats
            _encode(value.values.take(value.code), level, chunks)
            return
        texts = value.texts()
        item_separator = ",\n" + _INDENT * (level + 1)
        separator = "[\n" + _INDENT * (level + 1)
        for start in range(0, value.code.size, _ARRAY_SLICE):
            rows = texts.take(value.code[start:start + _ARRAY_SLICE]).tolist()
            chunks.append(separator + item_separator.join(rows))
            separator = item_separator
        chunks.append("\n" + _INDENT * level + "]")
    elif kind is RowNumbers:
        if not value.n:
            chunks.append("[]")
            return
        # digits need no escaping, so each row is its number in quotes
        separator = '",\n' + _INDENT * (level + 1) + '"'
        chunks.append("[\n" + _INDENT * (level + 1) + '"')
        for start in range(1, value.n + 1, _ARRAY_SLICE):
            numbers = np.arange(start, min(start + _ARRAY_SLICE, value.n + 1))
            chunks.append(_digit_texts(numbers, separator))
        chunks[-1] = chunks[-1][:-len(separator)]
        chunks.append('"\n' + _INDENT * level + "]")
    elif kind is list or kind is tuple:
        if not value:
            chunks.append("[]")
        elif set(map(type, value)) <= _SCALARS:
            inner = _flat_encoder(level + 1).encode(value)
            chunks.append("[\n" + _INDENT * (level + 1) + inner[1:-1]
                          + "\n" + _INDENT * level + "]")
        else:
            separator = "[\n" + _INDENT * (level + 1)
            for item in value:
                chunks.append(separator)
                _encode(item, level + 1, chunks)
                separator = ",\n" + _INDENT * (level + 1)
            chunks.append("\n" + _INDENT * level + "]")
    elif kind is dict:
        if not value:
            chunks.append("{}")
            return
        separator = "{\n" + _INDENT * (level + 1)
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            chunks.append(separator + _flat_encoder(level).encode(key) + ": ")
            _encode(item, level + 1, chunks)
            separator = ",\n" + _INDENT * (level + 1)
        chunks.append("\n" + _INDENT * level + "}")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _digit_texts(values: np.ndarray, tail: str, negative: np.ndarray | None = None) -> str:
    """The decimal texts of the nonnegative integers `values`, each after
    a "-" where `negative` is set and followed by the ASCII `tail`, made
    from arrays of their digits rather than a Python string per number.

    The numbers are written right-aligned into rows of one width, after
    a sign column if any is negative; signs not set and leading zeros
    are then dropped.
    """
    signed = int(negative is not None and bool(negative.any()))
    digits = len(str(int(values.max())))
    block = np.empty((values.size, signed + digits + len(tail)), dtype=np.uint8)
    block[:, :signed] = ord("-")
    block[:, signed + digits:] = np.frombuffer(tail.encode("ascii"), dtype=np.uint8)
    rest = values
    for j in range(signed + digits - 1, signed - 1, -1):
        rest, block[:, j] = np.divmod(rest, 10)
    block[:, signed:signed + digits] += ord("0")
    if not signed and (digits == 1 or int(values.min()) >= 10 ** (digits - 1)):
        return block.tobytes().decode("ascii")
    keep = np.ones(block.shape, dtype=bool)
    if signed:
        keep[:, 0] = negative
    # a number's digits start at its leading one; 0 keeps its units digit
    keep[:, signed:signed + digits - 1] = values[:, None] >= 10 ** np.arange(digits - 1, 0, -1)
    return block[keep].tobytes().decode("ascii")


def _flat_encoder(level: int) -> json.JSONEncoder:
    """C encoder whose item separator starts a new line at `level`; NaN
    and infinities, which are not JSON, raise ValueError."""
    return json.JSONEncoder(
        ensure_ascii=False, allow_nan=False, separators=(",\n" + _INDENT * level, ": ")
    )


def render_csv(header: list[str], rows: Iterable[Sequence[object]]) -> str:
    """Tabular view of the results; floats via repr so values round-trip."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()
