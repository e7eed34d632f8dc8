"""The CLI's columnar CSV reader and JSON encoder against their references:
per-cell reading through the csv module (`oracles.csv_columns`) and
`json.dumps(indent=2, ensure_ascii=False)`."""
import csv
import io
import json
import math
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import csv_columns

from rankinfer.cli.envelope import OutputEnvelope, RowNumbers
import rankinfer.cli.io as cli_io
from rankinfer.cli.io import parse_table, read_covariance
from rankinfer.errors import RankInferError

NAMES = ["a", "b", " c ", "#d"]

# Cells numpy and float() read alike, cells only float() reads, missing
# and non-finite tokens, garbage, and characters some line splitters
# treat as line ends.
TOKENS = [
    "0", "-0", "-0.0", "1", "2.5", " 3 ", "\t4", "5 ", "1e-300", "4.9e-324", "1.7976931348623157e308",
    "0.1", "-7.25e3", ".5", "5.", "+1", "1_0", "١٢", " 6", " 7", "1e400", "-1e400",
    "inf", "-Infinity", "NaN", "nan", "NAN", "NA", "", " ", "#1", "1#", "abc", "0x10",
    "1d5", "1 2", "1\x00", "\x0c1", "1\x0b", "1\x85", "2 ", "3\x1c",
]


@st.composite
def csv_texts(draw):
    """CSV text in the CLI dialect and just outside it: quoted cells, with
    commas and doubled quotes too, CRLF and lone CR, blank and padded
    lines, rows with too few or too many fields."""
    k = draw(st.integers(1, 4))
    header = list(NAMES[:k])
    if draw(st.integers(0, 9)) == 0:
        header[-1] = header[0]  # duplicate name

    # no quotes; quotes wrapping whole fields only; any quoting
    quoting = draw(st.sampled_from([None, 2, 15]))

    def cell():
        if draw(st.integers(0, 15)) == 0:
            token = draw(st.sampled_from(TOKENS))
        else:
            token = repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
        shape = draw(st.integers(0, quoting)) if quoting else -1
        if shape in (0, 1, 2):
            return '"' + token + '"'
        if shape == 3:
            return '"' + token + ',' + token + '"'
        if shape == 4:
            return '"' + token + '""' + '"'
        if shape == 5:
            return '"' + token + '"' + token
        return token

    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 79))
        if kind == 0:
            lines.append("")
        elif kind == 1:
            lines.append(draw(st.sampled_from([" ", "\t", ","])))
        else:
            width = k + (draw(st.sampled_from([-1, 1])) if kind == 2 else 0)
            lines.append(",".join(cell() for _ in range(max(width, 1))))
    newline = draw(st.sampled_from(["\n"] * 6 + ["\r\n"] * 3 + ["\r"]))
    text = newline.join(lines)
    if draw(st.booleans()):
        text += newline
    return text, header


def _outcome(text, names):
    """What the CLI reader gives: the same shape as `csv_columns`."""
    try:
        table = parse_table(text)
        values = table.numeric(names)
        cells = {name: table.raw(name).tolist() for name in table.names}
    except RankInferError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", table.names, table.n, dict(zip(names, values)), cells)


def _assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1:] == want[1:]
        return
    assert got[1:3] == want[1:3]
    for name, column in want[3].items():
        # bit for bit, so -0.0 and 0.0 differ
        assert got[3][name].dtype == np.float64
        assert got[3][name].tobytes() == column.tobytes(), name
    assert got[4] == want[4]


class TestParserOracle:
    @given(csv_texts(), st.data())
    @settings(deadline=None, max_examples=600)
    def test_matches_per_cell_reading(self, case, data):
        text, header = case
        pool = list(dict.fromkeys(header)) * 4 + ["missing"]
        names = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
        _assert_same(_outcome(text, names), csv_columns(text, names))

    @pytest.mark.parametrize(
        "text",
        [
            "a,b\n1,2\n3,4\n",
            "a,b\r\n1,2\r\n\r\n3,4\r\n",
            'a,b\n"1,5",2\n3,4\n',
            '"a","b"\n"1",2\n3,"4"\n',
            '"","a"\n"r1",1\n"r 2", 2 \n',
            'a\n1\n""\n2\n',
            'a,b\n"",2\n"1"x,2\n',
            'a,b\n"1,5",2\n',
            'a,b\n1,"2\n3"\n',
            'a,b\n1,"2""3"\n',
            '"a,b\n1,2\n',
            'a,b\n"1"2"3",4\n',
            'a,b\n1"2",3\n',
            "a,b\n1,2\n3,4,5\n",
            "a,b\n1,2\n3\n",
            "a,b\n1\r2,3\n",
            "a,b\n#1,2\n",
            "a,b\n1_0,2\n",
            "a,b\n1,2\n\n \n",
            "a,b\n1,NA\n",
            "a,b\n1e400,nan\n",
            "a,b\n1,2\n3,nan\n4,abc\n",
            "a\n1\n\n2",
            # blank lines leading, inside and trailing, no final newline,
            # one row and CRLF
            "a,b,c\n\n1,2,3\n4,5,6\n",
            "a,b,c\n1,2,3\n\n\n4,5,6\n",
            "a,b,c\n1,2,3\n4,5,6\n\n\n",
            "a,b,c\n1,2,3\n4,5,6",
            "a,b,c\n1, 2 ,3\n",
            "a,b,c\r\n1,2,3\r\n4,5,6\r\n",
            "a,b,c\r\n\r\n1,2,3\r\n\r\n4,5,6",
            "\n1,2\n",
            "a,b\n",
            "",
            "a," + "x" * 200_000 + "\n1,2\n",
            # multi-byte names and labels
            "a,ä,日本\n1,2,ü\n3,4,日本\n",
            "a,b\n1,ä\n2,😀\n",
            "ä,b\n1,2\n",
        ],
    )
    def test_fixed_cases(self, text):
        for names in (["a"], ["b", "a"], ["a", "b", "a"], ["zz", "a"]):
            _assert_same(_outcome(text, names), csv_columns(text, names))

    @pytest.mark.parametrize(
        "text",
        [
            "a,b\r\n1,2\r\n\r\n3,4\r\n",
            "a,b\r\n1,2\r\n3,4",
            'a,b\r\n"1,5",2\r\n3,4\r\n',
            "a,b\n1,2\n3,x\n",
            "a,ä,日本\r\n1,2,ü\r\n3,4,日本\r\n",
            "\ufeffa,b\n1,2\n",
            "a,b\n",
            "\n1,2\n",
            "",
        ],
    )
    def test_byte_order_mark(self, text):
        # one leading byte-order mark is skipped on either path: the
        # marked text, as text or as bytes, reads as the text without it
        for names in (["a"], ["b", "a"], ["ä", "日本"]):
            want = csv_columns(text, names)
            _assert_same(_outcome("\ufeff" + text, names), want)
            _assert_same(_outcome(("\ufeff" + text).encode("utf-8"), names), want)

    def test_covariance_single_pass_matches_columns(self):
        rng = np.random.default_rng(3)
        p = 40
        sigma = rng.normal(size=(p, p))
        text = ",".join(f"c{j}" for j in range(p)) + "\n"
        text += "".join(",".join(map(repr, row)) + "\n" for row in sigma.tolist())
        out = read_covariance(text, p)
        assert out.flags.c_contiguous
        assert out.tobytes() == sigma.tobytes()
        assert read_covariance("c\n2.5\n", 1).tolist() == [[2.5]]

    def test_wide_rows_of_short_fields_convert_in_one_pass(self, monkeypatch):
        # a --cov file of 7000 columns has lines above the csv module's
        # field limit, but no field near it: it stays on the byte path
        def per_cell(self, name):
            raise AssertionError("converted cell by cell")

        monkeypatch.setattr(cli_io.TableData, "_numeric_cells", per_cell)
        p, rows = 7000, 3
        sigma = np.random.default_rng(4).normal(size=(rows, p))
        text = ",".join(f"c{j}" for j in range(p)) + "\n"
        text += "".join(",".join(map(repr, row)) + "\n" for row in sigma.tolist())
        assert len(text.splitlines()[1]) > csv.field_size_limit()
        table = parse_table(text)
        assert table._data is not None
        assert table.numeric(table.names).T.tobytes() == sigma.tobytes()

    def test_field_above_the_limit_is_refused(self, invoke_cli):
        limit = csv.field_size_limit()
        ok = invoke_cli(["ranks", "--column", "a"], stdin=f"a,b\n1,{'x' * limit}\n")
        assert ok.code == 0, ok.stderr
        res = invoke_cli(["ranks", "--column", "a"], stdin=f"a,b\n1,{'x' * (limit + 1)}\n")
        assert res.code == 2
        assert f"field larger than field limit ({limit})" in res.stderr


# Characters for text cells served from byte offsets: ASCII, multi-byte
# UTF-8, spaces, and characters other line splitters treat as line ends.
# The csv module before Python 3.11 refuses NUL, so the oracle sees NUL
# only where it reads it.
_NUL = ["\x00"] if sys.version_info >= (3, 11) else []
_TEXT_CHARS = ["a", "b", "A", "0", "-", ".", "_", " ", "\t", "ä", "é", "ß", "日", "本", "😀",
               "\u2028", "\x0b", "\x0c", "\x1c", "\x85", "\x7f", *_NUL]
_TEXT_CELLS = st.one_of(
    st.sampled_from(["", " ", "  ", "a", " a", "a ", "ä", "日本", *(c + "a" for c in _NUL)]),
    st.text(st.sampled_from(_TEXT_CHARS), max_size=12),
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters=',"\r\n' + ("" if _NUL else "\x00")),
            max_size=20),
)


@st.composite
def text_tables(draw):
    """Plain CSV text (no quotes, no lone carriage return) with text
    cells, blank lines, CRLF or LF line ends, with or without a final
    newline, from one row up."""
    k = draw(st.integers(1, 4))
    header = [f"c{j}" for j in range(k)]
    pool = draw(st.lists(_TEXT_CELLS, min_size=1, max_size=6))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(1, 30))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
        cells = [draw(st.sampled_from(pool)) for _ in range(k)]
        if k == 1 and cells[0] == "":
            cells[0] = " "  # an empty line is blank, not a row
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines)
    if draw(st.booleans()):
        text += newline
    return text, header


class TestTextColumns:
    # the fields of a text column come from the newline and comma offsets
    # of the encoded bytes; the csv module reading each row is the oracle
    @given(text_tables())
    @settings(deadline=None, max_examples=400)
    def test_matches_csv_module(self, case):
        text, header = case
        want = csv_columns(text, [])
        assert want[0] == "ok", want
        table = parse_table(text)
        assert table._data is not None  # the byte-offset path
        assert (table.names, table.n) == want[1:3]
        for name in header:
            cells, codes = table.codes(name)
            assert len(set(cells)) == len(cells)
            assert codes.dtype == np.intp and codes.shape == (table.n,)
            assert [cells[c] for c in codes.tolist()] == want[4][name]
            assert table.raw(name).tolist() == want[4][name]

    @pytest.mark.parametrize("text", [
        "g\nb\na\nä\n \n a\na\n",
        "g,v\n,1\nb,2\n,3\n a,4\nä,5",
        "g,v\r\nx,1\r\n\r\nyy,2\r\nx,3\r\n",
        "v,g\n1,only\n",
        "g,v\n" + "".join(f"{'w' * (i % 11)}{i % 3},{i}\n" for i in range(40)),
        "g,v\n" + "long-label-" * 30 + ",1\nshort,2\n" + "long-label-" * 30 + ",3\n",
        "名前,v\n日本,1\nä,2\n日本,3\n😀,4\nä ,5\n",
        "v,ä\r\n1,日本\r\n\r\n2,日\r\n3,本",
    ])
    def test_fixed_cases(self, text):
        want = csv_columns(text, [])
        for source in (text, "\ufeff" + text, ("\ufeff" + text).encode("utf-8")):
            # a leading byte-order mark is not part of the first name
            table = parse_table(source)
            assert table._data is not None  # the byte-offset path
            assert (table.names, table.n) == want[1:3]
            for name in table.names:
                assert table.raw(name).tolist() == want[4][name]

    def test_plain_path_holds_bytes_and_scans_once(self, monkeypatch):
        # the table keeps the input's bytes and one scan's offsets: no
        # decoded copy, no StringIO, and one search for delimiters
        text = "g,v,w\r\nä,1,x\r\n\r\nb,2.5,日本\r\nä,-3,x"
        data = text.replace("\r\n", "\n").encode("utf-8")
        monkeypatch.setattr(cli_io, "io", types.SimpleNamespace(BytesIO=io.BytesIO))
        scans = []
        flatnonzero = np.flatnonzero
        monkeypatch.setattr(np, "flatnonzero",
                            lambda a: scans.append(np.size(a)) or flatnonzero(a))
        table = parse_table(text.encode("utf-8"))
        assert table.numeric(["v", "v"]).tolist() == [[1.0, 2.5, -3.0]] * 2
        assert [table.raw(name).tolist() for name in ("g", "w")] == [["ä", "b", "ä"],
                                                                     ["x", "日本", "x"]]
        assert scans.count(len(data)) == 1
        assert not any(isinstance(value, str) for value in vars(table).values())

    def test_nul_bytes_tell_cells_apart(self):
        # fixed-width gathering pads with zeros; a NUL inside a field
        # must still make it a different cell
        text = "g,v\na,1\na\x00,2\n\x00a,3\na,4\n\x00,5\n,6\n" + "b\x00" * 5 + ",7\n"
        table = parse_table(text)
        assert table.raw("g").tolist() == ["a", "a\x00", "\x00a", "a", "\x00", "",
                                           "b\x00" * 5]
        cells, codes = table.codes("g")
        assert len(cells) == 6 and codes[0] == codes[3]


_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, "", "é", " ", "😀", '"\\'])
    | st.text(max_size=8)
)
_values = st.recursive(
    _leaves,
    lambda children: st.lists(children, max_size=6)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=6), children, max_size=5),
    max_leaves=40,
)


class TestEncoderOracle:
    @staticmethod
    def _envelope(results, warnings=()):
        return OutputEnvelope(
            procedure="p", input_digest="sha256:00", seed=None, coverage=0.95,
            results=results, warnings=tuple(warnings),
        )

    @staticmethod
    def _reference(env):
        body = {
            "procedure": env.procedure,
            "input_digest": env.input_digest,
            "seed": env.seed,
            "coverage": env.coverage,
            "results": env.results,
            "warnings": list(env.warnings),
        }
        return json.dumps(body, indent=2, ensure_ascii=False, allow_nan=False) + "\n"

    @given(st.dictionaries(st.text(max_size=6), _values, max_size=6),
           st.lists(st.text(max_size=10), max_size=3))
    @settings(deadline=None, max_examples=400)
    def test_matches_json_dumps(self, results, warnings):
        env = self._envelope(results, warnings)
        try:
            want = self._reference(env)
        except ValueError:  # NaN or an infinity, which JSON cannot hold
            with pytest.raises(ValueError):
                env.to_json()
        else:
            assert env.to_json() == want

    def test_long_flat_lists_and_nesting(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=1000).tolist() + [-0.0, 1e308, 5e-324]
        results = {
            "values": values,
            "labels": [str(k) for k in range(50)] + ["ü", ""],
            "mixed": [1, 2.5, True, None, "x"],
            "vcov": rng.normal(size=(4, 4)).tolist(),
            "rows": [{"name": "a", "p": 0.5}, {}, [], [[]], [{}]],
            "empty": {},
        }
        env = self._envelope(results, ["w1", "wärning"])
        assert env.to_json() == self._reference(env)

    def test_unsupported_values_raise(self):
        # only the exact types the commands build are encoded
        for results in ({"x": [np.float64(0.1), 1.0]}, {"x": np.int64(3)},
                        {"x": {1: [1.0, 2.0]}}, {"x": np.arange(3)},
                        {"x": np.ones((2, 2))}, {"x": [np.ones(2, dtype=np.float32)]}):
            with pytest.raises(TypeError):
                self._envelope(results).to_json()

    @pytest.mark.parametrize("size", [0, 1, 2, (1 << 14) - 1, 1 << 14, (1 << 14) + 1,
                                      2 * (1 << 14) + 3])
    def test_array_values_encode_as_their_lists(self, size):
        # float64 arrays are written slice by slice, at any nesting level,
        # with the bytes of their tolist()
        rng = np.random.default_rng(size)
        values = rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size)
        if size > 1:
            values[:2] = [-0.0, 5e-324]
        for wrap in (lambda v: v, lambda v: {"inner": v, "after": 1}):
            env = self._envelope({"values": wrap(values), "n": size})
            want = self._envelope({"values": wrap(values.tolist()), "n": size})
            assert env.to_json() == want.to_json() == self._reference(want)

    @pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 99, 100, 101, (1 << 14) - 1, 1 << 14,
                                   (1 << 14) + 1, 99_999, 100_000, 100_001])
    def test_row_numbers_encode_as_their_strings(self, n):
        # RowNumbers(n) is written as the list "1" ... "n", across slice
        # and digit-count boundaries, at any nesting level
        numbers = [str(k) for k in range(1, n + 1)]
        for wrap in (lambda v: v, lambda v: {"inner": [v, 1], "after": v}):
            env = self._envelope({"labels": wrap(RowNumbers(n)), "n": n})
            want = self._envelope({"labels": wrap(numbers), "n": n})
            assert env.to_json() == self._reference(want)
        assert list(RowNumbers(n)) == numbers

    # integral floats whose repr is their sign, digits and ".0", and the
    # values next to them that print otherwise
    _INTEGRAL = [0.0, -0.0, 1.0, -1.0, 9.0, -9.0, 10.0, -10.0, 99.0, 100.0, 123456.0,
                 999999999999999.0, -999999999999999.0, 2.0**53, -(2.0**53),
                 9999999999999998.0, -9999999999999998.0]

    @pytest.mark.parametrize("size", [0, 1, (1 << 14) - 1, 1 << 14, (1 << 14) + 1])
    @pytest.mark.parametrize("odd", [None, 1e16, -1e16, 0.5, -2.5, 1e300, 5e-324])
    def test_integral_arrays_encode_as_their_lists(self, size, odd):
        # integral arrays are written from digit arrays, slice by slice,
        # with the bytes json.dumps gives their lists; a value of 1e16 or
        # more in size, or one that is not integral, puts its slice on the
        # float path
        rng = np.random.default_rng(size)
        values = rng.choice(self._INTEGRAL, size=size)
        values[size // 3:] = np.trunc(rng.normal(size=size - size // 3)
                                      * 10.0 ** rng.integers(0, 16, size - size // 3))
        if size:
            values[:min(size, len(self._INTEGRAL))] = self._INTEGRAL[:size]
            if odd is not None:
                values[rng.integers(size)] = odd
        for wrap in (lambda v: v, lambda v: {"inner": [v, {"deeper": v}], "after": 1}):
            env = self._envelope({"values": wrap(values), "n": size})
            want = self._envelope({"values": wrap(values.tolist()), "n": size})
            assert env.to_json() == self._reference(want)

    @pytest.mark.parametrize("size", [1, 2, (1 << 14) + 1])
    def test_integral_array_with_non_finite_value_raises(self, size):
        values = np.arange(size, dtype=np.float64)
        for bad in (math.nan, math.inf, -math.inf):
            values[size // 2] = bad
            with pytest.raises(ValueError):
                self._envelope({"values": values}).to_json()

    def test_array_with_non_finite_value_raises(self):
        values = np.zeros((1 << 14) + 5)
        for bad in (math.nan, math.inf):
            values[-1] = bad
            with pytest.raises(ValueError):
                self._envelope({"values": values}).to_json()
