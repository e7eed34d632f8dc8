"""CSV ingestion and atomic file output for the command line.

Dialect is fixed: comma separator, first row is the header, UTF-8,
'.' decimal point, '"' quoting as in the csv module's default dialect.
There are no comment lines ('#' is data); blank lines are skipped.

Text without quotes or lone carriage returns is never split into
per-row lists: `parse_table` checks the field count of every line in
one pass over the encoded bytes, and `TableData.numeric` converts the
requested columns in one `np.loadtxt` call. Any other text, and any
column that call cannot convert exactly, goes through the csv module
and `float()` cell by cell, which also words every error.
"""
from __future__ import annotations

import csv
import io
import os
import sys
import tempfile
from collections.abc import Sequence

import numpy as np

from ..errors import CsvFormatError, InputError, MissingColumn, MissingValues, NonFinite

# Cells treated as missing data (domain error), as opposed to garbage
# like "abc" (format error).
_MISSING = {"", "NA", "NaN", "nan"}


class TableData:
    """Header names, row count and cells of a CSV table.

    Built from plain text (no quotes, '\\n' line ends), the cells stay
    in that text until a column is asked for; built by the csv module,
    all arrive as `columns`.
    """

    def __init__(self, names: tuple[str, ...], n: int, text: str | None = None,
                 columns: dict[str, list[str]] | None = None):
        self.names = names
        self.n = n
        self._text = text
        self._columns = {} if columns is None else columns

    def _cells(self, name: str) -> list[str]:
        if name not in self.names:
            raise MissingColumn(
                f"no column {name!r}; available: {', '.join(self.names)}"
            )
        if name not in self._columns:
            i = self.names.index(name)
            lines = self._text.split("\n")[1:]
            self._columns[name] = [line.split(",")[i] for line in lines if line]
        return self._columns[name]

    def raw(self, name: str) -> np.ndarray:
        """Column as strings (categorical use: group labels, names)."""
        return np.asarray(self._cells(name), dtype=object)

    def numeric(self, names: str | Sequence[str]) -> np.ndarray:
        """Float64 values of one column, shape (n,); given a list of
        names, a (len(names), n) array whose rows are those columns in
        order.

        Errors are those of converting the columns one after another, so
        the first bad column in `names` order is the one reported.
        """
        columns = (names,) if isinstance(names, str) else tuple(names)
        values = self._loadtxt(columns)
        if values is None:
            values = np.stack([self._numeric_cells(name) for name in columns])
        return values[0] if isinstance(names, str) else values

    def _loadtxt(self, names: tuple[str, ...]) -> np.ndarray | None:
        """All requested columns in one C-level pass, or None to leave
        them to `_numeric_cells`: csv-module text, a missing column, a cell
        numpy does not parse (e.g. '1_0', which float() accepts, or 'NA'),
        a non-finite value whose error the per-cell path words, or rows
        that numpy splits differently from the csv module."""
        if self._text is None or not all(name in self.names for name in names):
            return None
        if self.n == 0:
            return np.empty((len(names), 0))
        try:
            values = np.loadtxt(
                io.StringIO(self._text),
                dtype=np.float64,
                delimiter=",",
                comments=None,
                skiprows=1,
                usecols=[self.names.index(name) for name in names],
                ndmin=2,
            )
        except ValueError:
            return None
        if values.shape[0] != self.n or not np.isfinite(values).all():
            return None
        return np.ascontiguousarray(values.T)

    def _numeric_cells(self, name: str) -> np.ndarray:
        """Reference conversion, one `float()` per cell."""
        cells = self._cells(name)
        out = np.empty(len(cells))
        for i, cell in enumerate(cells):
            token = cell.strip()
            if token in _MISSING:
                # row numbers reported 1-based counting the header line
                raise MissingValues(
                    f"column {name!r} has a missing value at row {i + 2}"
                )
            try:
                out[i] = float(token)
            except ValueError:
                raise CsvFormatError(
                    f"column {name!r} has a non-numeric cell {cell!r} at row {i + 2}"
                ) from None
        if not np.all(np.isfinite(out)):
            bad = int(np.flatnonzero(~np.isfinite(out))[0])
            raise NonFinite(
                f"column {name!r} has a non-finite value at row {bad + 2}"
            )
        return out


def _header(cells: list[str]) -> tuple[str, ...]:
    names = tuple(h.strip() for h in cells)
    if not names or all(name == "" for name in names):
        raise CsvFormatError("empty input: expected a header row")
    seen = set()
    for name in names:
        if name in seen:
            raise CsvFormatError(f"duplicate column name {name!r} in header")
        seen.add(name)
    return names


def _wrong_width(lineno: int, fields: int, width: int) -> CsvFormatError:
    return CsvFormatError(f"row {lineno} has {fields} fields, expected {width}")


def parse_table(text: str) -> TableData:
    """Check the header and the field count of every row; cells are
    converted later, per column, by `TableData`."""
    plain = text.replace("\r\n", "\n") if "\r" in text else text
    if '"' in plain or "\r" in plain:
        return _parse_with_csv(text)
    data = np.frombuffer(plain.encode("utf-8"), dtype=np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    if ends.size == 0 or ends[-1] != data.size - 1:
        ends = np.append(ends, data.size)
    lengths = np.diff(ends, prepend=-1) - 1
    if int(lengths.max()) > csv.field_size_limit():
        return _parse_with_csv(text)  # let the csv module refuse the field
    commas = np.flatnonzero(data == ord(","))
    names = _header(plain.split("\n", 1)[0].split(","))
    fields = np.diff(np.searchsorted(commas, ends), prepend=0) + 1
    rows = lengths > 0  # blank lines are skipped
    rows[0] = False
    bad = np.flatnonzero(rows & (fields != len(names)))
    if bad.size:
        raise _wrong_width(int(bad[0]) + 1, int(fields[bad[0]]), len(names))
    return TableData(names, int(np.count_nonzero(rows)), text=plain)


def _parse_with_csv(text: str) -> TableData:
    """Text with quotes or lone carriage returns: the csv module splits
    the rows, and the cells are kept per column."""
    reader = csv.reader(io.StringIO(text))
    try:
        names = _header(next(reader, []))
        rows: list[list[str]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue  # blank line, e.g. trailing newline
            if len(row) != len(names):
                raise _wrong_width(lineno, len(row), len(names))
            rows.append(row)
    except csv.Error as exc:
        raise CsvFormatError(f"malformed CSV: {exc}") from None
    columns = {name: [row[i] for row in rows] for i, name in enumerate(names)}
    return TableData(names, len(rows), columns=columns)


def read_bytes(path: str) -> bytes:
    """Read a CSV source; '-' means stdin."""
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc


def decode(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"input is not valid UTF-8: {exc}") from exc


def read_covariance(text: str, p: int) -> np.ndarray:
    """Full covariance matrix CSV: header row (names ignored), then p
    rows of p numeric fields."""
    table = parse_table(text)
    if len(table.names) != p or table.n != p:
        raise CsvFormatError(
            f"covariance file must be {p}x{p} to match the estimates, "
            f"got {table.n}x{len(table.names)}"
        )
    return np.ascontiguousarray(table.numeric(table.names).T)


# Characters per write: the text stream encodes each slice on its own,
# so no UTF-8 copy of a whole large document is made.
_WRITE_SLICE = 1 << 20


def _write_slices(stream, text: str) -> None:
    for start in range(0, len(text), _WRITE_SLICE):
        stream.write(text[start:start + _WRITE_SLICE])


def write_text(path: str | None, text: str) -> None:
    """Write to stdout, or atomically to a file (temp + rename), in
    bounded slices."""
    if path is None or path == "-":
        _write_slices(sys.stdout, text)
        return
    target = os.path.abspath(path)
    directory = os.path.dirname(target)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rankinfer-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            _write_slices(handle, text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
