"""CSV ingestion and atomic file output for the command line.

Dialect is fixed: comma separator, first row is the header, UTF-8,
'.' decimal point, '"' quoting as in the csv module's default dialect.
There are no comment lines ('#' is data); blank lines are skipped.

Text without quotes or lone carriage returns is never split into
per-row lists: `parse_table` checks the field count of every line in
one pass over the encoded bytes, `TableData.numeric` converts the
requested columns in one `np.loadtxt` call, and `TableData.codes` reads
a text column's fields from the newline and comma offsets of that scan,
made again when a text column is asked for, so that the table holds no
offsets while `loadtxt` runs. Any other text goes through the csv
module, and any column `loadtxt` cannot convert exactly goes through
`float()` cell by cell, which also words every error.
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
        self._columns = columns

    def codes(self, name: str) -> tuple[list[str], np.ndarray]:
        """The distinct cells of a column, in no set order, and each
        row's index into them."""
        if name not in self.names:
            raise MissingColumn(
                f"no column {name!r}; available: {', '.join(self.names)}"
            )
        if self._text is None:
            index: dict[str, int] = {}
            codes = np.fromiter((index.setdefault(cell, len(index))
                                 for cell in self._columns[name]),
                                dtype=np.intp, count=self.n)
            return list(index), codes
        data = np.frombuffer(self._text.encode("utf-8"), dtype=np.uint8)
        ends = _line_ends(data)
        starts = np.concatenate(([0], ends[:-1] + 1))
        rows = ends > starts  # blank lines are skipped
        rows[0] = False
        first, stop = starts[rows], ends[rows]
        width, i = len(self.names), self.names.index(name)
        if width > 1:
            # every line but a blank one holds one comma fewer than the
            # header has names, so row r's commas are row r + 1 here
            commas = np.flatnonzero(data == ord(",")).reshape(-1, width - 1)[1:]
            if i > 0:
                first = commas[:, i - 1] + 1
            if i < width - 1:
                stop = commas[:, i]
        return _distinct_fields(data, first, stop - first)

    def raw(self, name: str) -> np.ndarray:
        """Column as strings (categorical use: group labels, names)."""
        cells, codes = self.codes(name)
        return np.array(cells, dtype=object).take(codes)

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
        cells = self.raw(name).tolist()
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


# Index elements per gather of fixed-width field bytes in `_distinct_fields`.
_GATHER = 1 << 20


def _distinct_fields(data: np.ndarray, starts: np.ndarray,
                     lengths: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct fields data[s:s + length] over rows (s, length) of
    `starts` and `lengths`, decoded, in no set order, and each row's
    index into them.

    Equal fields have equal lengths, so rows are coded one length at a
    time: that length's fields are gathered into a fixed-width array,
    zero-padded to whole 8-byte words, and `np.unique` codes its items,
    as integers when one word holds them and as byte strings otherwise.
    All items of one length share their padding, so any byte, NUL
    included, tells fields apart.
    """
    codes = np.empty(starts.size, dtype=np.intp)
    cells: list[str] = []
    order = np.argsort(lengths, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        if not rows.size:
            continue  # no rows at all
        length = int(lengths[rows[0]])
        words = max(1, -(-length // 8))
        block = np.zeros((rows.size, 8 * words), dtype=np.uint8)
        step = max(1, _GATHER // max(length, 1))
        for start in range(0, rows.size, step):
            first = starts[rows[start:start + step]]
            block[start:start + step, :length] = data[first[:, None] + np.arange(length)]
        items = block.view(np.uint64 if words == 1 else f"S{8 * words}").ravel()
        distinct, inverse = np.unique(items, return_inverse=True)
        codes[rows] = inverse.reshape(-1) + len(cells)
        fields = distinct.view(np.uint8).reshape(-1, 8 * words)[:, :length]
        cells.extend(field.tobytes().decode("utf-8") for field in fields)
    return cells, codes


def _line_ends(data: np.ndarray) -> np.ndarray:
    """Offsets of the line ends in UTF-8 bytes; the text's end closes a
    last line without a newline."""
    ends = np.flatnonzero(data == ord("\n"))
    if ends.size == 0 or ends[-1] != data.size - 1:
        ends = np.append(ends, data.size)
    return ends


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
    ends = _line_ends(data)
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
