"""CSV ingestion and atomic file output for the command line.

Dialect is fixed: comma separator, first row is the header, UTF-8
(one leading byte-order mark is skipped), '.' decimal point, '"'
quoting as in the csv module's default dialect. There are no comment
lines ('#' is data); blank lines are skipped.

Input without quotes or lone carriage returns stays UTF-8 bytes and is
never split into per-row lists: `parse_table` finds every newline and
comma in one scan of the bytes and checks the field count of every
line from those offsets, which the table keeps. `TableData.numeric`
converts the requested columns in one `np.loadtxt` call over the bytes,
and `TableData.codes` reads a text column's fields from the kept
offsets. Any other input goes through the csv module, and any column
`loadtxt` cannot convert exactly goes through `float()` cell by cell,
which also words every error.
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

    Built from plain bytes (no quotes, '\\n' line ends), the cells stay
    in those bytes until a column is asked for: `delims` holds the offset
    of every comma and newline, plus the end of the bytes when no newline
    ends them, and `row_ends` the index into `delims` of each row's line
    end. Built by the csv module, all cells arrive as `columns`.
    """

    def __init__(self, names: tuple[str, ...], n: int, data: bytes | None = None,
                 delims: np.ndarray | None = None, row_ends: np.ndarray | None = None,
                 columns: dict[str, list[str]] | None = None):
        self.names = names
        self.n = n
        self._data = data
        self._delims = delims
        self._row_ends = row_ends
        self._columns = columns

    def codes(self, name: str) -> tuple[list[str], np.ndarray]:
        """The distinct cells of a column, in no set order, and each
        row's index into them."""
        if name not in self.names:
            raise MissingColumn(
                f"no column {name!r}; available: {', '.join(self.names)}"
            )
        if self._data is None:
            index: dict[str, int] = {}
            codes = np.fromiter((index.setdefault(cell, len(index))
                                 for cell in self._columns[name]),
                                dtype=np.intp, count=self.n)
            return list(index), codes
        # a row's fields end at its last `width` delimiters, and the one
        # before them ends the line above (the header or a blank line)
        after = len(self.names) - 1 - self.names.index(name)
        first = self._delims[self._row_ends - after - 1] + 1
        stop = self._delims[self._row_ends - after]
        return _distinct_fields(np.frombuffer(self._data, dtype=np.uint8),
                                first, stop - first)

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
        if self._data is None or not all(name in self.names for name in names):
            return None
        if self.n == 0:
            return np.empty((len(names), 0))
        try:
            # numpy iterates the byte lines and decodes each one
            values = np.loadtxt(
                io.BytesIO(self._data),
                encoding="utf-8",
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


_BOM = b"\xef\xbb\xbf"


def parse_table(source: bytes | str) -> TableData:
    """Check the header and the field count of every row of UTF-8 bytes,
    or of a text, which is encoded; cells are converted later, per
    column, by `TableData`. One leading byte-order mark is skipped."""
    if isinstance(source, str):
        source = source.encode("utf-8")
    elif not source.isascii():
        decode(source)  # refuse invalid UTF-8 at its offset in the input
    start = len(_BOM) if source.startswith(_BOM) else 0
    plain = source.replace(b"\r\n", b"\n") if b"\r" in source else source
    if b'"' in plain or b"\r" in plain:
        return _parse_with_csv(source[start:])
    data = np.frombuffer(plain, dtype=np.uint8)
    delims = np.flatnonzero((data == ord(",")) | (data == ord("\n")))
    lines = np.flatnonzero(data[delims] == ord("\n"))  # each line's end in delims
    if not data.size or data[-1] != ord("\n"):
        # the end of the bytes closes a last line without a newline
        lines = np.append(lines, delims.size)
        delims = np.append(delims, data.size)
    ends = delims[lines]
    lengths = np.diff(ends, prepend=start - 1) - 1
    if int(lengths.max()) > csv.field_size_limit():
        # let the csv module refuse the field
        return _parse_with_csv(source[start:])
    names = _header(plain[start:ends[0]].decode("utf-8").split(","))
    fields = np.diff(lines, prepend=-1)  # a line's commas and its end
    rows = lengths > 0  # blank lines are skipped
    rows[0] = False
    bad = np.flatnonzero(rows & (fields != len(names)))
    if bad.size:
        raise _wrong_width(int(bad[0]) + 1, int(fields[bad[0]]), len(names))
    return TableData(names, int(np.count_nonzero(rows)), data=plain, delims=delims,
                     row_ends=lines[rows])


def _parse_with_csv(data: bytes) -> TableData:
    """Input with quotes or lone carriage returns: the csv module splits
    the decoded rows, and the cells are kept per column."""
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
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


def read_covariance(source: bytes | str, p: int) -> np.ndarray:
    """Full covariance matrix CSV: header row (names ignored), then p
    rows of p numeric fields."""
    table = parse_table(source)
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
