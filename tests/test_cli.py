import csv
import io
import json
import shutil
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rankinfer
import rankinfer.cli.main as main_mod
import rankinfer.multinomcs as multinomcs_mod
import rankinfer.rankcs as rankcs_mod
import rankinfer.rankreg.model as model_mod
import rankinfer.rankreg.variance as variance_mod
from oracles import naive_rank
from rankinfer.cli.envelope import OutputEnvelope, RunColumn, input_digest, render_csv
from rankinfer.errors import DomainError
from rankinfer.numerics import SeededRng
from rankinfer.rankcs import BootstrapConfig
from rankinfer.ranking import TieRule
from rankinfer.rankreg.model import RankRegressionModel, fit, summarize

COUNTRY_CSV = (
    "country,math_score\n"
    "Australia,491.3600\n"
    "Austria,498.9423\n"
    "Belgium,508.0703\n"
    "Canada,512.0169\n"
    "Chile,417.4066\n"
    "Colombia,390.9323\n"
)

ESTIMATES_CSV = "name,est,se\na,0.0,0.05\nb,10.0,0.05\nc,20.0,0.05\n"
# Y is 5 on every row of level a; `last` is the last row's Y, in level b
LEVEL_CONSTANT_CSV = "Y,X,G\n5,1,a\n5,2,a\n5,3,a\n5,4,a\n1,2,b\n2,3,b\n3,1,b\n{last},6,b\n"


def parse_envelope(stdout):
    return json.loads(stdout)


class TestEnvelope:
    def test_digest_prefix_and_chunking(self):
        d1 = input_digest(b"ab", b"c")
        d2 = input_digest(b"a", b"bc")
        d3 = input_digest(b"abc")
        assert d1.startswith("sha256:")
        assert len({d1, d2, d3}) == 3
        assert input_digest(b"ab", b"c") == d1

    def test_key_order_frozen(self, invoke_cli):
        res = invoke_cli(
            ["ranks", "--column", "math_score", "--label", "country"],
            stdin=COUNTRY_CSV,
        )
        assert res.code == 0
        assert list(json.loads(res.stdout).keys()) == [
            "procedure",
            "input_digest",
            "seed",
            "coverage",
            "results",
            "warnings",
        ]

    def test_json_round_trip_stable(self, invoke_cli):
        res = invoke_cli(
            ["ranks", "--column", "math_score"], stdin=COUNTRY_CSV
        )
        body = json.loads(res.stdout)
        again = json.dumps(body, indent=2, ensure_ascii=False) + "\n"
        assert again == res.stdout

    @pytest.mark.parametrize("args, stdin", [
        (["ranks", "--column", "est"], ESTIMATES_CSV),
        (["cs-ranks", "--estimates", "est", "--se", "se", "--seed", "11"], ESTIMATES_CSV),
        (["cs-taubest", "--estimates", "est", "--se", "se", "--tau", "1", "--seed", "11"],
         ESTIMATES_CSV),
        (["cs-tauworst", "--estimates", "est", "--se", "se", "--tau", "1", "--seed", "11"],
         ESTIMATES_CSV),
        (["cs-multinom", "--column", "count"], "count\n10\n20\n5\n"),
        (["rank-reg", "--formula", "r(Y) ~ r(X)"],
         "Y,X\n" + "".join(f"{v},{v % 5}\n" for v in range(12))),
    ])
    def test_header_rule(self, invoke_cli, args, stdin):
        # procedure is the subcommand; only the bootstrap commands record
        # a seed; coverage is --coverage's value, and null for ranks
        seed = 11 if "--seed" in args else None
        runs = [([], None)] if args[0] == "ranks" else [([], 0.95), (["--coverage", "0.9"], 0.9)]
        for extra, coverage in runs:
            res = invoke_cli([*args, *extra], stdin=stdin)
            assert res.code == 0, res.stderr
            body = parse_envelope(res.stdout)
            assert (body["procedure"], body["seed"], body["coverage"]) == (
                args[0], seed, coverage)

    def test_csv_format_writes_warnings_to_stderr(self, invoke_cli):
        res = invoke_cli(["rank-reg", "--formula", "r(Y) ~ r(X)", "--format", "csv"],
                         stdin="Y,X\n" + "".join(f"{v},{v % 5}\n" for v in range(12)))
        assert res.code == 0
        assert res.stdout.splitlines()[0] == "name,estimate,se,z,p,lower,upper"
        assert len(res.stdout.splitlines()) == 3
        assert "asymptotic" in res.stderr
        assert all(line.startswith("warning: ") for line in res.stderr.splitlines())

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), [1.0, -float("inf")],
        RunColumn(np.array([1.0, float("nan")]), np.array([0, 1, 0])),
        RunColumn(np.array([1.0, float("nan")]), np.array([0, 1, 0, 0, 1])),
    ])
    def test_non_finite_floats_raise(self, value):
        envelope = OutputEnvelope(
            procedure="p", input_digest="d", seed=None, coverage=None, results={"x": value}
        )
        with pytest.raises(ValueError):
            envelope.to_json()

    def test_render_csv_float_repr(self):
        out = render_csv(["a", "b"], [[1, 0.1], ["x", 2.5]])
        assert out == "a,b\n1,0.1\nx,2.5\n"


# Cells for the ranks battery: heavy ties drawn from a small pool that
# holds both zeros and the extremes of the double range, any finite
# doubles, or all-distinct columns.
_RANK_POOL = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, 1e-300, -1e-300,
                              1.7976931348623157e308, -1.7e308, 8.98846567431158e307])
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_RANK_COLUMNS = st.one_of(
    st.lists(_RANK_POOL, min_size=1, max_size=40),
    st.lists(st.one_of(_RANK_POOL, _FINITE), min_size=1, max_size=40),
    st.lists(_FINITE, min_size=1, max_size=40, unique=True),
)


class TestRanks:
    def test_country_fixture(self, invoke_cli):
        res = invoke_cli(
            ["ranks", "--column", "math_score", "--label", "country"],
            stdin=COUNTRY_CSV,
        )
        assert res.code == 0
        body = parse_envelope(res.stdout)
        assert body["procedure"] == "ranks"
        assert body["seed"] is None
        assert body["coverage"] is None
        assert body["warnings"] == []
        results = body["results"]
        assert results["direction"] == "decreasing"
        assert results["omega"] == 0.0
        assert results["labels"] == [
            "Australia",
            "Austria",
            "Belgium",
            "Canada",
            "Chile",
            "Colombia",
        ]
        assert results["irank"] == [4.0, 3.0, 2.0, 1.0, 5.0, 6.0]
        assert results["frank"] == [v / 6 for v in results["irank"]]

    def test_increasing_omega(self, invoke_cli):
        res = invoke_cli(
            ["ranks", "--column", "v", "--increasing", "--omega", "0.5"],
            stdin="v\n3\n7\n7\n",
        )
        body = parse_envelope(res.stdout)
        assert body["results"]["irank"] == [1.0, 2.5, 2.5]

    def test_against_reference_column(self, invoke_cli):
        res = invoke_cli(
            ["ranks", "--column", "q", "--against", "ref", "--increasing"],
            stdin="q,ref\n5,1\n0,2\n9,3\n",
        )
        body = parse_envelope(res.stdout)
        assert body["results"]["irank"] == [4.0, 1.0, 4.0]

    def test_csv_format(self, invoke_cli):
        res = invoke_cli(
            ["ranks", "--column", "math_score", "--label", "country", "--format", "csv"],
            stdin=COUNTRY_CSV,
        )
        lines = res.stdout.splitlines()
        assert lines[0] == "index,label,value,irank,frank"
        assert lines[4] == "4,Canada,512.0169,1.0," + repr(1.0 / 6.0)

    @pytest.mark.parametrize("extra", [[], ["--against", "ref"]])
    def test_header_only_input(self, invoke_cli, extra):
        res = invoke_cli(["ranks", "--column", "v", *extra], stdin="v,ref\n")
        assert res.code == 2
        assert res.stdout == ""
        assert "data has no rows" in res.stderr

    @pytest.mark.parametrize("extra", [[], ["--against", "ref"]])
    def test_outputs_match_list_rendering(self, invoke_cli, tmp_path, extra):
        # the envelope encodes the rank arrays as their lists; the file
        # written with -o holds the bytes of stdout
        stdin = "v,ref,name\n3,1,a\n-0.0,2,b\n7,7,c\n7,0.0,d\n1e-300,5,e\n"
        args = ["ranks", "--column", "v", "--label", "name", *extra]
        res = invoke_cli(args, stdin=stdin)
        assert res.code == 0
        body = parse_envelope(res.stdout)
        results = body["results"]
        assert results["values"] == [3.0, -0.0, 7.0, 7.0, 1e-300]
        assert res.stdout == OutputEnvelope(
            procedure="ranks", input_digest=body["input_digest"], seed=None,
            coverage=None, results=results).to_json()
        target = tmp_path / "out.json"
        assert invoke_cli([*args, "-o", str(target)], stdin=stdin).code == 0
        assert target.read_bytes() == res.stdout.encode("utf-8")
        table = invoke_cli([*args, "--format", "csv"], stdin=stdin)
        assert table.stdout == render_csv(
            ["index", "label", "value", "irank", "frank"],
            zip(range(1, 6), results["labels"], results["values"], results["irank"],
                results["frank"]))

    @given(cells=_RANK_COLUMNS, omega=st.sampled_from([0.0, 0.5, 1.0]),
           increasing=st.booleans(), labelled=st.booleans())
    @example(cells=[-0.0, 0.0, 0.0, -0.0, 1.0], omega=0.5, increasing=False, labelled=True)
    # the value column on both sides of the writer's n/2 switch: a run of
    # 0.0 and -0.0 is split in two, so three value runs in six rows go out
    # as row floats while the two rank runs go out as texts; four value
    # runs in ten rows go out as texts
    @example(cells=[0.0, -0.0, 1.0, 1.0, 0.0, 1.0], omega=0.5, increasing=True, labelled=True)
    @example(cells=[-0.0, 0.0, 0.0, -0.0, 1.0, 1.0, 0.0, -0.0, 1.0, 2.0], omega=0.0,
             increasing=False, labelled=False)
    @example(cells=[-0.0, 0.0, 0.0, -0.0, 1.0, 1.0, 0.0, -0.0, 1.0, 2.0], omega=1.0,
             increasing=True, labelled=True)
    @example(cells=[-0.0, -0.0, -0.0, 1.0, 1.0, 1.0, 1.0], omega=0.5, increasing=False,
             labelled=False)
    @example(cells=[2.5, 0.1, 2.5, 0.1, 2.5, 0.1, 2.5], omega=0.0, increasing=True,
             labelled=True)
    @example(cells=[1e-300], omega=1.0, increasing=True, labelled=False)
    @example(cells=[2.0, 1.0, 2.0, 1.0], omega=0.5, increasing=True, labelled=False)
    @example(cells=[2.0, 1.0, 2.0, 1.0, 1.0], omega=0.5, increasing=True, labelled=False)
    @example(cells=[1.7976931348623157e308, 1e-300, -1.7e308], omega=0.0, increasing=False,
             labelled=False)
    @settings(deadline=None, max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_outputs_match_per_row_rendering(self, invoke_cli, tmp_path, cells, omega,
                                             increasing, labelled):
        # stdout, the -o file and --format csv hold, per row, the repr of
        # the row's value and of its naively counted ranks, and its label
        # or row number, however the rows share tie runs
        n = len(cells)
        names = [f"r{i}" for i in range(1, n + 1)]
        stdin = "v,name\n" + "".join(f"{v!r},{name}\n" for v, name in zip(cells, names))
        args = ["ranks", "--column", "v", "--omega", repr(omega),
                "--increasing" if increasing else "--decreasing",
                *(["--label", "name"] if labelled else [])]
        labels = names if labelled else [str(i) for i in range(1, n + 1)]
        iranks = naive_rank(cells, omega, increasing).tolist()
        franks = [r / n for r in iranks]
        body = {
            "procedure": "ranks",
            "input_digest": input_digest(stdin.encode("utf-8")),
            "seed": None,
            "coverage": None,
            "results": {
                "column": "v",
                "omega": omega,
                "direction": "increasing" if increasing else "decreasing",
                "labels": labels,
                "values": cells,
                "irank": iranks,
                "frank": franks,
            },
            "warnings": [],
        }
        expected = json.dumps(body, indent=2, ensure_ascii=False) + "\n"
        res = invoke_cli(args, stdin=stdin)
        assert res.code == 0, res.stderr
        assert res.stdout == expected
        target = tmp_path / "out.json"
        assert invoke_cli([*args, "-o", str(target)], stdin=stdin).code == 0
        assert target.read_text(encoding="utf-8") == expected
        table = invoke_cli([*args, "--format", "csv"], stdin=stdin)
        assert table.code == 0
        assert table.stdout == "index,label,value,irank,frank\n" + "".join(
            f"{i},{label},{v!r},{r!r},{f!r}\n"
            for i, label, v, r, f in zip(range(1, n + 1), labels, cells, iranks, franks))

    @pytest.mark.parametrize("omega", [0.0, 0.5, 1.0])
    def test_against_matches_per_row_rendering(self, invoke_cli, omega):
        # integer ranks against a reference are integral at omega 0 and 1,
        # and written from digits; at 0.5 half of them are half-integers,
        # and slices holding one are written as floats. The rows span
        # three writer slices
        rng = np.random.default_rng(7)
        n = 2 * (1 << 14) + 5
        reference = np.round(rng.normal(size=300), 1)
        values = np.round(rng.normal(size=n), 1)
        values[:3] = [-0.0, reference.max() + 1.0, reference.min() - 1.0]
        stdin = "v,ref\n" + "".join(f"{v!r},{r!r}\n" for v, r in
                                    zip(values.tolist(), np.resize(reference, n).tolist()))
        reference = np.resize(reference, n)
        weak = np.searchsorted(np.sort(-reference), -values, side="right")
        strict = np.searchsorted(np.sort(-reference), -values, side="left")
        iranks = (omega * weak + (1.0 - omega) * strict + (1.0 - omega)).tolist()
        body = {
            "procedure": "ranks",
            "input_digest": input_digest(stdin.encode("utf-8")),
            "seed": None,
            "coverage": None,
            "results": {
                "column": "v",
                "omega": omega,
                "direction": "decreasing",
                "labels": [str(i) for i in range(1, n + 1)],
                "values": values.tolist(),
                "irank": iranks,
                "frank": [r / n for r in iranks],
            },
            "warnings": [],
        }
        res = invoke_cli(["ranks", "--column", "v", "--against", "ref", "--omega", repr(omega)],
                         stdin=stdin)
        assert res.code == 0, res.stderr
        assert res.stdout == json.dumps(body, indent=2, ensure_ascii=False) + "\n"

    def test_missing_column(self, invoke_cli):
        res = invoke_cli(["ranks", "--column", "nope"], stdin=COUNTRY_CSV)
        assert res.code == 2
        assert "nope" in res.stderr

    def test_output_file_atomic(self, invoke_cli, tmp_path):
        target = tmp_path / "out.json"
        res = invoke_cli(
            ["ranks", "--column", "math_score", "-o", str(target)],
            stdin=COUNTRY_CSV,
        )
        assert res.code == 0
        assert res.stdout == ""
        body = json.loads(target.read_text())
        assert body["procedure"] == "ranks"
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".rankinfer-")]
        assert leftovers == []


class TestCsvErrors:
    @pytest.mark.parametrize(
        "payload,code,fragment",
        [
            ("a,b\n1\n", 2, "row 2 has 1 fields"),
            ("a,a\n1,2\n", 2, "duplicate column"),
            ("a\nfoo\n", 2, "non-numeric cell"),
            ("", 2, "empty input"),
            ("a\nNA\n", 3, "missing value"),
            ("a\ninf\n", 3, "non-finite"),
            ("a,b\n1\r2,3\n", 2, "malformed CSV"),
        ],
    )
    def test_error_taxonomy(self, invoke_cli, payload, code, fragment):
        res = invoke_cli(["ranks", "--column", "a"], stdin=payload)
        assert res.code == code
        assert fragment in res.stderr

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("quoted", [False, True])
    def test_byte_order_mark(self, invoke_cli, newline, quoted):
        # Excel's "CSV UTF-8" starts with a byte-order mark: the reader
        # skips it on either path, and the digest covers the raw bytes
        header = '"Y",X' if quoted else "Y,X"
        text = newline.join([header, "1,2", "3,4", "3,5", ""])
        args = ["ranks", "--column", "Y", "--label", "X"]
        plain = invoke_cli(args, stdin=text)
        marked = invoke_cli(args, stdin=b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert plain.code == marked.code == 0, marked.stderr
        plain_body, marked_body = parse_envelope(plain.stdout), parse_envelope(marked.stdout)
        assert marked_body["results"] == plain_body["results"]
        assert marked_body["input_digest"] == input_digest(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert marked_body["input_digest"] != plain_body["input_digest"]
        table = invoke_cli([*args, "--format", "csv"], stdin=b"\xef\xbb\xbf" + text.encode())
        assert table.stdout == invoke_cli([*args, "--format", "csv"], stdin=text).stdout

    def test_invalid_utf8(self, invoke_cli):
        res = invoke_cli(["ranks", "--column", "a"], stdin=b"\xff\xfe\x00")
        assert res.code == 2
        assert "UTF-8" in res.stderr

    def test_unreadable_file(self, invoke_cli, tmp_path):
        res = invoke_cli(
            ["ranks", "--column", "a", "-i", str(tmp_path / "missing.csv")]
        )
        assert res.code == 2
        assert "cannot read" in res.stderr

    @pytest.mark.parametrize("flag", ["-o", "--svg"])
    @pytest.mark.parametrize("target,reason", [
        ("sub", "Is a directory"),
        ("missing/out", "No such file or directory"),
    ])
    def test_unwritable_output(self, invoke_cli, tmp_path, flag, target, reason):
        (tmp_path / "sub").mkdir()
        path = str(tmp_path / target)
        res = invoke_cli(["cs-ranks", "--estimates", "est", "--se", "se", "--seed", "1",
                          flag, path], stdin=ESTIMATES_CSV)
        assert res.code == 2
        assert res.stdout == ""
        assert res.stderr == f"error: cannot write {path}: {reason}\n"
        # no temp file is left beside the target
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["sub"]

    def test_unknown_format_flag(self, invoke_cli):
        res = invoke_cli(
            ["ranks", "--column", "a", "--format", "xml"], stdin="a\n1\n2\n"
        )
        assert res.code == 2

    def test_no_subcommand(self, invoke_cli):
        res = invoke_cli([])
        assert res.code == 2


class TestCsRanks:
    def test_pinned_ranks_with_se_column(self, invoke_cli):
        res = invoke_cli(
            [
                "cs-ranks",
                "--estimates",
                "est",
                "--se",
                "se",
                "--label",
                "name",
                "--seed",
                "7",
            ],
            stdin=ESTIMATES_CSV,
        )
        assert res.code == 0
        body = parse_envelope(res.stdout)
        assert body["procedure"] == "cs-ranks"
        assert body["seed"] == 7
        assert body["coverage"] == 0.95
        results = body["results"]
        assert results["mode"] == "marginal"
        assert results["labels"] == ["a", "b", "c"]
        assert results["rank"] == [3, 2, 1]
        assert results["L"] == [3, 2, 1]
        assert results["U"] == [3, 2, 1]

    def test_seeded_runs_byte_identical(self, invoke_cli):
        args = [
            "cs-ranks",
            "--estimates",
            "est",
            "--se",
            "se",
            "--seed",
            "123",
            "--simul",
        ]
        first = invoke_cli(args, stdin=ESTIMATES_CSV)
        second = invoke_cli(args, stdin=ESTIMATES_CSV)
        assert first.stdout == second.stdout

    def test_entropy_seed_recorded(self, invoke_cli):
        args = ["cs-ranks", "--estimates", "est", "--se", "se"]
        a = parse_envelope(invoke_cli(args, stdin=ESTIMATES_CSV).stdout)
        b = parse_envelope(invoke_cli(args, stdin=ESTIMATES_CSV).stdout)
        assert isinstance(a["seed"], int)
        assert 0 <= a["seed"] < 2**64
        assert a["seed"] != b["seed"]

    def test_covariance_file(self, invoke_cli, tmp_path):
        cov = tmp_path / "cov.csv"
        cov.write_text("c1,c2,c3\n0.0025,0,0\n0,0.0025,0\n0,0,0.0025\n")
        res = invoke_cli(
            [
                "cs-ranks",
                "--estimates",
                "est",
                "--cov",
                str(cov),
                "--seed",
                "5",
            ],
            stdin=ESTIMATES_CSV,
        )
        assert res.code == 0
        body = parse_envelope(res.stdout)
        assert body["results"]["rank"] == [3, 2, 1]

    def test_covariance_and_estimates_both_from_stdin_refused(self, invoke_cli, tmp_path):
        args = ["cs-ranks", "--estimates", "est", "--cov", "-", "--seed", "5"]
        res = invoke_cli(args, stdin=ESTIMATES_CSV)
        assert res.code == 2
        assert res.stderr == ("error: --input and --cov cannot both read stdin; "
                              "give one of them a file\n")
        # with the estimates in a file, the covariance may come from stdin
        est = tmp_path / "est.csv"
        est.write_text(ESTIMATES_CSV)
        res = invoke_cli([*args, "-i", str(est)],
                         stdin="c1,c2,c3\n0.0025,0,0\n0,0.0025,0\n0,0,0.0025\n")
        assert res.code == 0
        assert parse_envelope(res.stdout)["results"]["rank"] == [3, 2, 1]

    def test_covariance_shape_mismatch(self, invoke_cli, tmp_path):
        cov = tmp_path / "cov.csv"
        cov.write_text("c1,c2\n1,0\n0,1\n")
        res = invoke_cli(
            ["cs-ranks", "--estimates", "est", "--cov", str(cov)],
            stdin=ESTIMATES_CSV,
        )
        assert res.code == 2
        assert "3x3" in res.stderr

    def test_se_and_cov_mutually_exclusive(self, invoke_cli, tmp_path):
        cov = tmp_path / "cov.csv"
        cov.write_text("c1,c2,c3\n1,0,0\n0,1,0\n0,0,1\n")
        res = invoke_cli(
            ["cs-ranks", "--estimates", "est", "--se", "se", "--cov", str(cov)],
            stdin=ESTIMATES_CSV,
        )
        assert res.code == 2
        res = invoke_cli(["cs-ranks", "--estimates", "est"], stdin=ESTIMATES_CSV)
        assert res.code == 2

    def test_nonpositive_se_rejected(self, invoke_cli, tmp_path):
        res = invoke_cli(
            ["cs-ranks", "--estimates", "est", "--se", "se"],
            stdin="est,se\n1.0,0.1\n2.0,0.0\n",
        )
        assert res.code == 3
        # an asymmetric covariance file is the same kind of unusable input
        cov = tmp_path / "cov.csv"
        cov.write_text("c1,c2,c3\n1,0.5,0\n0,1,0\n0,0,1\n")
        res = invoke_cli(
            ["cs-ranks", "--estimates", "est", "--cov", str(cov)],
            stdin=ESTIMATES_CSV,
        )
        assert res.code == 3
        assert "symmetric" in res.stderr

    def test_indices_subset(self, invoke_cli):
        res = invoke_cli(
            [
                "cs-ranks",
                "--estimates",
                "est",
                "--se",
                "se",
                "--seed",
                "1",
                "--indices",
                "3,1",
            ],
            stdin=ESTIMATES_CSV,
        )
        body = parse_envelope(res.stdout)
        assert body["results"]["indices"] == [3, 1]
        assert body["results"]["rank"] == [1, 3]

    def test_indices_out_of_range(self, invoke_cli):
        # flag values outside what the input or the bootstrap allows
        for args in (
            ["cs-ranks", "--indices", "4"],
            ["cs-ranks", "--draws", "50"],
            ["cs-taubest", "--tau", "4"],
            ["cs-tauworst", "--tau", "4"],
        ):
            res = invoke_cli(args + ["--estimates", "est", "--se", "se"], stdin=ESTIMATES_CSV)
            assert res.code == 2, args
            assert "internal error" not in res.stderr
        for args, payload in (
            (["cs-ranks", "--indices", "1,1", "--estimates", "est", "--se", "se"], ESTIMATES_CSV),
            (["cs-multinom", "--indices", "2,2"], "count\n5\n3\n1\n"),
        ):
            res = invoke_cli(args, stdin=payload)
            assert res.code == 2, args
            assert "internal error" not in res.stderr
            assert "repeated" in res.stderr

    def test_svg_chart(self, invoke_cli, tmp_path):
        chart = tmp_path / "chart.svg"
        res = invoke_cli(
            [
                "cs-ranks",
                "--estimates",
                "est",
                "--se",
                "se",
                "--seed",
                "2",
                "--svg",
                str(chart),
            ],
            stdin=ESTIMATES_CSV,
        )
        assert res.code == 0
        root = ET.fromstring(chart.read_text())
        rects = [
            el
            for el in root.iter()
            if el.tag.endswith("rect") and el.get("class") == "interval"
        ]
        points = [
            el
            for el in root.iter()
            if el.tag.endswith("circle") and el.get("class") == "point"
        ]
        assert len(rects) == 3
        assert len(points) == 3

    def test_subset_chart_spans_all_populations(self, invoke_cli, tmp_path):
        # the rows are the requested populations, drawn on the ranks 1..p
        chart = tmp_path / "chart.svg"
        rows = "".join(f"{k},{k / 10},1\n" for k in range(300))
        res = invoke_cli(["cs-ranks", "--estimates", "est", "--se", "se", "--seed", "1",
                          "--draws", "100", "--indices", "1,2,3", "--svg", str(chart)],
                         stdin="name,est,se\n" + rows)
        assert res.code == 0, res.stderr
        root = ET.fromstring(chart.read_text())
        _, _, width, height = map(float, root.get("viewBox").split())
        boxes = []
        for el in root.iter():
            if el.tag.endswith("rect"):
                x, y = float(el.get("x")), float(el.get("y"))
                boxes.append((x, y, x + float(el.get("width")), y + float(el.get("height"))))
            elif el.tag.endswith("circle"):
                x, y, r = float(el.get("cx")), float(el.get("cy")), float(el.get("r"))
                boxes.append((x - r, y - r, x + r, y + r))
        assert len(boxes) == 6
        for x0, y0, x1, y1 in boxes:
            assert 0 <= x0 <= x1 <= width and 0 <= y0 <= y1 <= height
        ticks = [el.text for el in root.iter() if el.get("text-anchor") == "middle"]
        assert ticks[-1] == "300"

    def test_chart_labels_with_characters_xml_forbids(self, invoke_cli, tmp_path):
        # drawn as U+FFFD so the chart parses; the envelope keeps the labels
        chart = tmp_path / "chart.svg"
        res = invoke_cli(["cs-ranks", "--estimates", "est", "--se", "se", "--seed", "1",
                          "--label", "name", "--svg", str(chart)],
                         stdin="name,est,se\na\x01,0,0.05\n\x00b,10,0.05\nc,20,0.05\n")
        assert res.code == 0, res.stderr
        root = ET.fromstring(chart.read_text(encoding="utf-8"))
        names = [el.text for el in root.iter() if el.get("text-anchor") == "end"]
        assert sorted(names) == ["a\ufffd", "c", "\ufffdb"]
        assert parse_envelope(res.stdout)["results"]["labels"] == ["a\x01", "\x00b", "c"]

    @pytest.mark.parametrize("svg, output", [
        ("-", []),
        ("-", ["-o", "-"]),
        ("-", ["--format", "csv"]),
        ("chart.svg", ["-o", "./chart.svg"]),
        ("chart.svg", ["-o", "sub/../chart.svg", "--format", "csv"]),
    ])
    def test_svg_and_result_on_one_destination_refused(self, invoke_cli, tmp_path,
                                                        monkeypatch, svg, output):
        # one destination cannot hold both documents: refused before
        # anything is written
        monkeypatch.chdir(tmp_path)
        res = invoke_cli(["cs-ranks", "--estimates", "est", "--se", "se", "--seed", "1",
                          "--svg", svg, *output], stdin=ESTIMATES_CSV)
        assert res.code == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: --svg and the result")
        assert list(tmp_path.iterdir()) == []

    def test_svg_on_stdout_with_result_in_file(self, invoke_cli, tmp_path):
        out = tmp_path / "out.json"
        res = invoke_cli(["cs-ranks", "--estimates", "est", "--se", "se", "--seed", "1",
                          "--svg", "-", "-o", str(out)], stdin=ESTIMATES_CSV)
        assert res.code == 0
        assert ET.fromstring(res.stdout).tag.endswith("svg")
        assert parse_envelope(out.read_text())["procedure"] == "cs-ranks"

    def test_csv_format_output(self, invoke_cli):
        res = invoke_cli(
            [
                "cs-ranks",
                "--estimates",
                "est",
                "--se",
                "se",
                "--seed",
                "3",
                "--format",
                "csv",
            ],
            stdin=ESTIMATES_CSV,
        )
        lines = res.stdout.splitlines()
        assert lines[0] == "index,label,L,rank,U"
        assert lines[1] == "1,1,3,3,3"


class TestUnitScale:
    """Gaussian sets do not depend on the units of the estimates."""

    @given(k=st.integers(-200, 200), seed=st.integers(0, 2**32 - 1))
    # standard errors near 2^-40 and below, where an absolute floor of
    # 1e-12 on se would call pairs degenerate
    @example(k=-40, seed=0)
    @example(k=-45, seed=1)
    @example(k=-200, seed=2)
    @example(k=200, seed=3)
    @settings(deadline=None, max_examples=10,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_results_equal_across_power_of_two_scalings(self, invoke_cli, tmp_path, k, seed):
        # theta and se scaled by 2^k, sigma by 4^k: every studentized
        # difference keeps its bits, so every set is the same
        p = 12
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=p)
        se = rng.uniform(0.15, 0.35, p)
        factor = rng.normal(size=(p, 3))
        sigma = 0.01 * factor @ factor.T + np.diag(se**2)
        commands = [["cs-ranks"], ["cs-ranks", "--simul"],
                    ["cs-taubest", "--tau", "3"], ["cs-tauworst", "--tau", "3"]]

        def results(scale):
            estimates = tmp_path / "estimates.csv"
            estimates.write_text("est,se\n" + "".join(
                f"{t!r},{s!r}\n" for t, s in zip((theta * scale).tolist(),
                                                 (se * scale).tolist())))
            cov = tmp_path / "cov.csv"
            cov.write_text(",".join(f"c{j}" for j in range(p)) + "\n" + "".join(
                ",".join(map(repr, row)) + "\n" for row in (sigma * scale**2).tolist()))
            out = []
            for source in (["--se", "se"], ["--cov", str(cov)]):
                for command in commands:
                    res = invoke_cli([*command, "--input", str(estimates), "--estimates", "est",
                                      *source, "--draws", "100", "--seed", str(seed)])
                    assert res.code == 0, res.stderr
                    out.append(parse_envelope(res.stdout)["results"])
            return out

        assert results(2.0**k) == results(1.0)


class TestOverflowInputs:
    """Extreme but finite inputs keep the exit-code contract and put no
    numpy RuntimeWarning on stderr."""

    def run_quiet(self, invoke_cli, args, stdin):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = invoke_cli(args, stdin=stdin)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "RuntimeWarning" not in res.stderr
        return res

    def test_overflowing_estimate_differences(self, invoke_cli):
        # 1e308 - (-1e308) overflows to inf, which keeps its sign
        res = self.run_quiet(
            invoke_cli,
            ["cs-ranks", "--estimates", "est", "--se", "se", "--seed", "1", "--draws", "200"],
            "est,se\n1e308,1\n-1e308,1\n0,1\n",
        )
        assert res.code == 0
        out = parse_envelope(res.stdout)["results"]
        assert out["L"] == [1, 3, 2]
        assert out["U"] == [1, 3, 2]

    @pytest.mark.parametrize("se,fragment", [
        ("1e200", "square overflows"),
        ("1.5e154", "square overflows"),
        ("1e154", "pairwise variance overflows"),  # 1e308 + 1e308
        ("1e-200", "square underflows"),  # two independent populations
    ])
    def test_standard_errors_that_overflow(self, invoke_cli, se, fragment):
        res = self.run_quiet(
            invoke_cli,
            ["cs-ranks", "--estimates", "est", "--se", "se", "--seed", "1"],
            f"est,se\n1,{se}\n2,{se}\n3,1\n",
        )
        assert res.code == 3
        assert fragment in res.stderr

    def test_z_value_that_overflows(self, invoke_cli):
        # the slope on b is about -1e308 and its standard error about
        # 2e-12, so their quotient overflows
        res = self.run_quiet(invoke_cli, ["rank-reg", "--formula", "a ~ b", "--omega", "0"],
                             "a,b\n100,1e-320\n1e308,-1\n")
        assert res.code == 3
        assert res.stdout == ""
        assert "z-value that overflows" in res.stderr

    @pytest.mark.parametrize("formula", ["e ~ s", "e ~ (s):g"])
    def test_response_projection_that_overflows(self, invoke_cli, formula):
        # each 1.5e308 is finite, but Q'y sums them past the largest double
        res = self.run_quiet(
            invoke_cli, ["rank-reg", "--formula", formula],
            "e,s,g\n" + "".join(f"{e},{s},{'ab'[s % 2]}\n" for s, e in enumerate(
                ["1.5e308"] * 6 + ["1.4e308"] * 4)),
        )
        assert res.code == 3
        assert res.stdout == ""
        assert "Q'y" in res.stderr


class TestUpFrontBounds:
    """Work past the documented bounds exits 3 before anything of that
    size is allocated: the bootstrap draws, the p-value table and the
    regression's influence array are never started."""

    def test_draws_times_populations(self, invoke_cli, monkeypatch):
        monkeypatch.setattr(rankcs_mod, "_bootstrap_normals", None)  # never reached
        for command in (["cs-ranks"], ["cs-ranks", "--simul"], ["cs-taubest", "--tau", "1"],
                        ["cs-tauworst", "--tau", "1"]):
            res = invoke_cli([*command, "--estimates", "e", "--se", "se", "--seed", "1",
                              "--draws", "10000000000000"], stdin="e,se\n1,1\n2,1\n3,1\n")
            assert res.code == 3, (command, res.stderr)
            assert "draws x p" in res.stderr

    def test_draws_bound_is_inclusive(self, invoke_cli, monkeypatch):
        calls = []
        monkeypatch.setattr(rankcs_mod, "MAX_DRAW_CELLS", 3 * 200)
        monkeypatch.setattr(rankcs_mod, "_bootstrap_normals",
                            lambda est, cfg: calls.append(cfg.draws) or np.zeros((cfg.draws, est.p)))
        stdin = "e,se\n1,1\n2,1\n3,1\n"
        args = ["cs-ranks", "--estimates", "e", "--se", "se", "--seed", "1", "--draws"]
        assert invoke_cli([*args, "200"], stdin=stdin).code == 0
        assert invoke_cli([*args, "201"], stdin=stdin).code == 3
        assert calls == [200]

    def test_populations_squared(self, invoke_cli, monkeypatch):
        # 101 populations at 100 draws: the 10,100 draws x p cells meet the
        # bound, the 101 x 101 cells of a covariance do not
        monkeypatch.setattr(rankcs_mod, "MAX_DRAW_CELLS", 100 * 101)
        diag, formed = np.diag, []
        monkeypatch.setattr(np, "diag", lambda v, *rest: formed.append(v) or diag(v, *rest))
        monkeypatch.setattr(main_mod, "read_covariance", None)  # never reached
        monkeypatch.setattr(rankcs_mod, "pairwise_se", None)  # never reached
        stdin = "e,se\n" + "".join(f"{k},1\n" for k in range(101))
        for command in (["cs-ranks"], ["cs-taubest", "--tau", "1"], ["cs-tauworst", "--tau", "1"]):
            for source in (["--se", "se"], ["--cov", "never-read.csv"]):
                res = invoke_cli([*command, "--estimates", "e", *source, "--seed", "1",
                                  "--draws", "100"], stdin=stdin)
                assert res.code == 3, (command, source, res.stderr)
                assert res.stdout == ""
                assert "101 populations exceed the 10100 p x p cells" in res.stderr
        assert formed == []
        # library callers meet the same checks before any draw
        monkeypatch.setattr(rankcs_mod, "_bootstrap_normals", None)  # never reached
        for p, draws, refusal in ((101, 100, "p x p"), (3, 10_000, "draws x p")):
            est = rankcs_mod.EstimatesWithCovariance(np.arange(float(p)), diag(np.ones(p)))
            with pytest.raises(DomainError, match=refusal):
                rankcs_mod.cs_ranks(est, BootstrapConfig(draws=draws))

    def test_multinomial_categories(self, invoke_cli, monkeypatch):
        monkeypatch.setattr(multinomcs_mod, "binom_tail", None)  # never reached
        p = multinomcs_mod.MAX_CATEGORIES + 1
        res = invoke_cli(["cs-multinom"], stdin="count\n" + "3\n" * p)
        assert res.code == 3
        assert f"{p} categories" in res.stderr


    def test_influence_cells(self, invoke_cli, monkeypatch):
        # 3 rows x 2 coefficients against a bound of 5 cells
        monkeypatch.setattr(variance_mod, "MAX_INFLUENCE_CELLS", 5)
        monkeypatch.setattr(model_mod, "block_least_squares", None)  # never reached
        monkeypatch.setattr(variance_mod, "inverse_from_qr", None)  # never reached
        monkeypatch.setattr(variance_mod, "_fill_influence", None)  # never reached
        for formula in ("r(y) ~ r(x)", "y ~ x"):
            res = invoke_cli(["rank-reg", "--formula", formula], stdin="y,x\n1,2\n2,1\n3,3\n")
            assert res.code == 3, (formula, res.stderr)
            assert res.stdout == ""
            assert "3 rows x 2 coefficients exceed the 5" in res.stderr

    def test_influence_bound_is_inclusive(self, invoke_cli, monkeypatch):
        calls = []
        fill = variance_mod._fill_influence
        monkeypatch.setattr(variance_mod, "_fill_influence",
                            lambda h, *rest: calls.append(h.shape) or fill(h, *rest))
        stdin = "y,x\n1,2\n2,1\n3,3\n4,5\n"
        args = ["rank-reg", "--formula", "r(y) ~ r(x)"]
        monkeypatch.setattr(variance_mod, "MAX_INFLUENCE_CELLS", 4 * 2)
        assert invoke_cli(args, stdin=stdin).code == 0
        monkeypatch.setattr(variance_mod, "MAX_INFLUENCE_CELLS", 4 * 2 - 1)
        assert invoke_cli(args, stdin=stdin).code == 3
        assert calls == [(4, 2)]


class TestNaNFlags:
    """NaN passes both bound comparisons of a float range, so every
    bounded float flag refuses it itself: a bad flag exits 2. The same
    holds for every bounded or choice flag at and past its bounds."""

    ESTIMATES = ["--estimates", "e", "--se", "se", "--seed", "1"]
    CASES = [
        (["ranks", "--column", "x"], "--omega", "x\n1\n2\n"),
        (["rank-reg", "--formula", "r(y) ~ r(x)"], "--omega", "y,x\n1,2\n2,1\n3,3\n"),
        (["rank-reg", "--formula", "r(y) ~ r(x)"], "--coverage", "y,x\n1,2\n2,1\n3,3\n"),
        (["cs-ranks", *ESTIMATES], "--coverage", "e,se\n1,1\n2,1\n"),
        (["cs-ranks", "--simul", *ESTIMATES], "--coverage", "e,se\n1,1\n2,1\n"),
        (["cs-taubest", "--tau", "1", *ESTIMATES], "--coverage", "e,se\n1,1\n2,1\n"),
        (["cs-tauworst", "--tau", "1", *ESTIMATES], "--coverage", "e,se\n1,1\n2,1\n"),
        (["cs-multinom"], "--coverage", "count\n3\n1\n"),
        (["cs-multinom", "--simul"], "--coverage", "count\n3\n1\n"),
    ]

    @pytest.mark.parametrize("spelling", ["nan", "NaN"])
    @pytest.mark.parametrize("command,flag,stdin", CASES, ids=[
        "-".join([command[0], *(["simul"] if "--simul" in command else []), flag.lstrip("-")])
        for command, flag, _ in CASES])
    def test_nan_exits_2(self, invoke_cli, command, flag, stdin, spelling):
        res = invoke_cli([*command, flag, spelling], stdin=stdin)
        assert res.code == 2, res.stderr
        assert res.stdout == ""
        assert f"Invalid value for '{flag}'" in res.stderr
        assert invoke_cli([*command, flag, "0.5"], stdin=stdin).code == 0

    COMMANDS = {
        "ranks": (["ranks", "--column", "x"], "x\n1\n2\n"),
        "rank-reg": (["rank-reg", "--formula", "r(y) ~ r(x)"], "y,x\n1,2\n2,1\n3,3\n"),
        "cs-ranks": (["cs-ranks", *ESTIMATES], "e,se\n1,1\n2,1\n"),
        "cs-taubest": (["cs-taubest", "--tau", "1", *ESTIMATES], "e,se\n1,1\n2,1\n"),
        "cs-tauworst": (["cs-tauworst", "--tau", "1", *ESTIMATES], "e,se\n1,1\n2,1\n"),
        "cs-multinom": (["cs-multinom"], "count\n3\n1\n"),
    }
    GAUSSIAN = ("cs-ranks", "cs-taubest", "cs-tauworst")
    # flag: (the commands that take it, values at or inside its bounds,
    # values at or just past them); every flag also refuses nan, inf, abc
    BOUNDS = {
        "--coverage": (("rank-reg", "cs-multinom", *GAUSSIAN),
                       ["5e-324", "0.9999999999999999"],
                       ["0", "1", "-5e-324", "1.0000000000000002"]),
        "--omega": (("ranks", "rank-reg"), ["0", "1"], ["-5e-324", "1.0000000000000002"]),
        "--draws": (GAUSSIAN, ["100"], ["99"]),
        "--seed": (GAUSSIAN, ["0", str(2**64 - 1)], ["-1", str(2**64)]),
        "--tau": (("cs-taubest", "cs-tauworst"), ["1"], ["0"]),
        "--format": (tuple(COMMANDS), ["json", "csv"], ["JSON", "xml"]),
        "--multcorr": (("cs-multinom",), ["holm", "bonferroni"], ["Holm", "sidak"]),
    }
    # the validators the library applies to the same values
    LIBRARY = {
        "--coverage": lambda text: BootstrapConfig(coverage=float(text)),
        "--draws": lambda text: BootstrapConfig(draws=int(text)),
        "--seed": lambda text: SeededRng(int(text)),
        "--omega": lambda text: TieRule(float(text), "increasing"),
    }
    BATTERY = [(command, flag, value, value in accepted)
               for flag, (commands, accepted, refused) in BOUNDS.items()
               for command in commands
               for value in [*accepted, *refused, "nan", "inf", "abc"]]

    @pytest.mark.parametrize("command,flag,value,accepted", BATTERY, ids=[
        f"{command}-{flag.lstrip('-')}={value}" for command, flag, value, _ in BATTERY])
    def test_bounds(self, invoke_cli, command, flag, value, accepted):
        args, stdin = self.COMMANDS[command]
        # the = form hands a value that starts with - to the flag
        res = invoke_cli([*args, f"{flag}={value}"], stdin=stdin)
        if accepted:
            # a domain error at most, such as a coverage too low for the
            # counts; never a usage or an internal error
            assert res.code in (0, 3), res.stderr
        else:
            assert res.code == 2, res.stderr
            assert res.stdout == ""
            assert flag in res.stderr
        if flag in self.LIBRARY:
            try:
                self.LIBRARY[flag](value)
            except ValueError as exc:
                assert not accepted
                # the refusal states the library's own rule
                assert f"Invalid value for '{flag}': {exc}" in res.stderr
            else:
                assert accepted


class TestTauCommands:
    def test_taubest_members(self, invoke_cli):
        res = invoke_cli(
            [
                "cs-taubest",
                "--estimates",
                "est",
                "--se",
                "se",
                "--tau",
                "1",
                "--seed",
                "11",
                "--label",
                "name",
            ],
            stdin=ESTIMATES_CSV,
        )
        body = parse_envelope(res.stdout)
        assert body["procedure"] == "cs-taubest"
        assert body["results"]["tau"] == 1
        assert body["results"]["members"] == [3]
        assert body["results"]["labels"] == ["c"]

    def test_tauworst_mirrors(self, invoke_cli):
        res = invoke_cli(
            [
                "cs-tauworst",
                "--estimates",
                "est",
                "--se",
                "se",
                "--tau",
                "1",
                "--seed",
                "11",
            ],
            stdin=ESTIMATES_CSV,
        )
        body = parse_envelope(res.stdout)
        assert body["results"]["members"] == [1]


class TestCsMultinom:
    def test_single_column_default(self, invoke_cli):
        res = invoke_cli(["cs-multinom"], stdin="count\n0\n100\n")
        assert res.code == 0
        body = parse_envelope(res.stdout)
        assert body["procedure"] == "cs-multinom"
        assert body["seed"] is None
        results = body["results"]
        assert results["method"] == "holm"
        assert results["L"] == [2, 1]
        assert results["U"] == [2, 1]

    def test_column_required_when_ambiguous(self, invoke_cli):
        res = invoke_cli(["cs-multinom"], stdin="a,b\n1,2\n3,4\n")
        assert res.code == 2

    def test_label_column_leaves_no_count_column(self, invoke_cli):
        res = invoke_cli(["cs-multinom", "--label", "c"], stdin="c\nx\ny\n")
        assert res.code == 2
        assert res.stderr == "error: no count column is left besides the --label column\n"

    def test_label_column_resolves_ambiguity(self, invoke_cli):
        res = invoke_cli(
            ["cs-multinom", "--label", "name"],
            stdin="name,count\nx,10\ny,20\n",
        )
        assert res.code == 0
        body = parse_envelope(res.stdout)
        assert body["results"]["labels"] == ["x", "y"]

    def test_bonferroni_choice_recorded(self, invoke_cli):
        res = invoke_cli(
            ["cs-multinom", "--multcorr", "bonferroni", "--simul"],
            stdin="count\n40\n30\n20\n10\n",
        )
        body = parse_envelope(res.stdout)
        assert body["results"]["method"] == "bonferroni"
        assert body["results"]["mode"] == "simultaneous"

    def test_fractional_counts_rejected(self, invoke_cli):
        # the last two parse to the integers 4503599627370498 and 3
        for counts in ("1.5\n2", "4503599627370497.5\n1", "3.0000000000000001\n1"):
            res = invoke_cli(["cs-multinom"], stdin=f"count\n{counts}\n")
            assert res.code == 3, (counts, res.stderr)
            assert "integer" in res.stderr
        # integral values in float notation stay counts
        res = invoke_cli(["cs-multinom"], stdin="count\n1e3\n7.0\n")
        assert res.code == 0, res.stderr
        assert parse_envelope(res.stdout)["results"]["L"] == [1, 2]

    def test_negative_counts_rejected(self, invoke_cli):
        res = invoke_cli(["cs-multinom"], stdin="count\n-1\n2\n")
        assert res.code == 3

    def test_all_zero_counts_rejected(self, invoke_cli):
        res = invoke_cli(["cs-multinom"], stdin="count\n0\n0\n")
        assert res.code == 3
        assert "zero" in res.stderr

    def test_single_category_rejected(self, invoke_cli):
        res = invoke_cli(["cs-multinom"], stdin="count\n5\n")
        assert res.code == 3

    @pytest.mark.parametrize("extra", [[], ["--simul"]])
    def test_pair_totals_near_2_53(self, invoke_cli, extra):
        # betaincc gives NaN for the first pair's tails (this exited 4 with
        # --simul); the normal tail fills them
        res = invoke_cli(["cs-multinom", *extra],
                         stdin="count\n4357395723352402\n4357395723353113\n1\n")
        assert res.code == 0, res.stderr
        results = parse_envelope(res.stdout)["results"]
        assert results["L"] == [1, 1, 3]
        assert results["U"] == [2, 2, 3]

    @pytest.mark.parametrize("extra", [[], ["--simul"]])
    def test_crossed_holm_set_rejected(self, invoke_cli, extra):
        # Holm's last step has multiplier 1, so at alpha = 127/128 the
        # family rejects both 6 <= 1 (p = 8/128) and 1 <= 6 (p = 127/128);
        # this exited 4 with "bounds must bracket the estimated rank"
        args = ["cs-multinom", "--column", "count", "--coverage", "0.0078125", *extra]
        res = invoke_cli(args, stdin="count\n6\n1\n")
        assert res.code == 3, res.stderr
        assert res.stdout == ""
        assert "coverage 0.0078125 is too low" in res.stderr
        # Bonferroni doubles 127/128 past alpha, so its set stands
        res = invoke_cli([*args, "--multcorr", "bonferroni"], stdin="count\n6\n1\n")
        assert res.code == 0, res.stderr

    def test_counts_above_float_exact_range_rejected(self, invoke_cli):
        # a total above 2**53, a count the int64 cast would wrap, and a
        # count that float64 rounds down to 2**53
        for counts in ("5\n9007199254740993", "1e300\n2", "9007199254740993\n0"):
            res = invoke_cli(["cs-multinom"], stdin=f"count\n{counts}\n")
            assert res.code == 3, (counts, res.stderr)
            assert "2**53" in res.stderr


@pytest.mark.parametrize("args, stdin", [
    (["cs-ranks", "--estimates", "est", "--se", "se", "--seed", "1"], "est,se\n"),
    (["cs-ranks", "--estimates", "est", "--se", "se", "--simul", "--seed", "1"], "est,se\n"),
    (["cs-taubest", "--estimates", "est", "--se", "se", "--tau", "1", "--seed", "1"], "est,se\n"),
    (["cs-tauworst", "--estimates", "est", "--se", "se", "--tau", "1", "--seed", "1"],
     "est,se\n"),
    (["cs-multinom"], "count\n"),
    (["cs-multinom", "--label", "name"], "name,count\n"),
    (["rank-reg", "--formula", "r(Y) ~ r(X)"], "Y,X\n"),
    # no rows is reported before a second fault: an unknown column or a
    # malformed formula
    (["cs-ranks", "--estimates", "missing", "--se", "se", "--seed", "1"], "est,se\n"),
    (["rank-reg", "--formula", "r(Y) ~"], "Y,X\n"),
])
def test_header_only_input_exits_2(invoke_cli, args, stdin):
    res = invoke_cli(args, stdin=stdin)
    assert res.code == 2
    assert res.stdout == ""
    assert "data has no rows" in res.stderr


def test_header_only_estimates_with_covariance_file(invoke_cli, tmp_path):
    cov = tmp_path / "cov.csv"
    cov.write_text("a,b\n1,0\n0,1\n")
    res = invoke_cli(["cs-ranks", "--estimates", "est", "--cov", str(cov)], stdin="est\n")
    assert res.code == 2
    assert "data has no rows" in res.stderr


class TestRankReg:
    IDENT_CSV = "Y,X\n" + "".join(f"{v},{v}\n" for v in range(1, 13))

    def test_identity_fit(self, invoke_cli):
        res = invoke_cli(
            ["rank-reg", "--formula", "r(Y) ~ r(X)"], stdin=self.IDENT_CSV
        )
        assert res.code == 0
        body = parse_envelope(res.stdout)
        assert body["procedure"] == "rank-reg"
        results = body["results"]
        assert results["n"] == 12
        names = [c["name"] for c in results["coefficients"]]
        assert names == ["r(X)", "(Intercept)"]
        assert results["coefficients"][0]["estimate"] == pytest.approx(1.0, abs=1e-12)
        assert results["confint"][0]["lower"] <= 1.0 <= results["confint"][0]["upper"]
        assert len(results["vcov"]) == 2
        assert any("asymptotic" in w for w in body["warnings"])

    def test_grouped_six_coefficients(self, invoke_cli):
        rng = np.random.default_rng(0)
        lines = ["Y,X,W,G"]
        for i in range(40):
            lines.append(
                f"{rng.normal():.6f},{rng.normal():.6f},{rng.normal():.6f},"
                f"{'u' if i % 2 else 'v'}"
            )
        res = invoke_cli(
            ["rank-reg", "--formula", "r(Y) ~ (r(X) + W):G"],
            stdin="\n".join(lines) + "\n",
        )
        assert res.code == 0
        body = parse_envelope(res.stdout)
        assert len(body["results"]["coefficients"]) == 6

    def test_malformed_formula_caret(self, invoke_cli):
        res = invoke_cli(
            ["rank-reg", "--formula", "r(Y ~ X"], stdin=self.IDENT_CSV
        )
        assert res.code == 2
        assert "^" in res.stderr

    def test_group_column_in_formula_rejected(self, invoke_cli):
        # W is numeric: the error names the formula, not the column's type
        stdin = "Y,X,W\n" + "".join(f"{i % 7},{i % 5},{i % 2}\n" for i in range(20))
        res = invoke_cli(["rank-reg", "--formula", "r(Y) ~ (r(X) + W):W"], stdin=stdin)
        assert res.code == 2
        assert res.stdout == ""
        assert res.stderr == ("error: column 'W' is the group and may not also be the "
                              "response or a regressor\n")

    @pytest.mark.parametrize("formula", ["r(Y) ~ r(Y)", "Y ~ Y"])
    def test_response_as_regressor_rejected(self, invoke_cli, formula):
        # once fitted, these gave standard errors of order 1e-16 and p = 0
        stdin = "Y,X\n" + "".join(f"{i},{i % 4}\n" for i in (3, 1, 4, 1, 5, 9))
        res = invoke_cli(["rank-reg", "--formula", formula], stdin=stdin)
        assert res.code == 2
        assert res.stdout == ""
        assert res.stderr == ("error: column 'Y' is the response and may not also be "
                              "a regressor\n")

    def test_formula_column_not_in_data(self, invoke_cli):
        res = invoke_cli(
            ["rank-reg", "--formula", "r(Y) ~ r(Z)"], stdin=self.IDENT_CSV
        )
        assert res.code == 2
        assert "Z" in res.stderr

    def test_missing_values_domain_error(self, invoke_cli):
        res = invoke_cli(
            ["rank-reg", "--formula", "r(Y) ~ r(X)"],
            stdin="Y,X\n1,2\nNA,3\n",
        )
        assert res.code == 3

    def test_collinear_exit_code(self, invoke_cli):
        csv = "Y,X,W\n" + "".join(f"{v},{v},{2 * v}\n" for v in range(1, 10))
        res = invoke_cli(["rank-reg", "--formula", "Y ~ X + W"], stdin=csv)
        assert res.code == 3

    @pytest.mark.parametrize(
        "csv",
        [
            # group b has 2 rows for its 3 columns
            "Y,X,W,G\n1,2,0.5,a\n4,1,0.1,a\n2,5,0.7,a\n3,3,0.2,a\n5,4,0.9,a\n"
            "6,6,0.3,a\n2.5,1.5,0.4,b\n7,7,0.8,b\n",
            # W is constant within group b, so it repeats b's intercept
            "Y,X,W,G\n1,2,0.5,a\n4,1,0.1,a\n2,5,0.7,a\n3,3,0.2,a\n5,4,0.9,a\n"
            "6,6,1,b\n2.5,1.5,1,b\n7,7,1,b\n8,3,1,b\n",
        ],
        ids=["group-shorter-than-block", "constant-within-group"],
    )
    def test_collinear_group_block_exit_code(self, invoke_cli, csv):
        res = invoke_cli(["rank-reg", "--formula", "r(Y) ~ (r(X) + W):G"], stdin=csv)
        assert res.code == 3
        assert res.stdout == ""
        assert res.stderr == "error: design matrix is numerically rank-deficient\n"

    def test_csv_format(self, invoke_cli):
        res = invoke_cli(
            ["rank-reg", "--formula", "r(Y) ~ r(X)", "--format", "csv"],
            stdin=self.IDENT_CSV,
        )
        lines = res.stdout.splitlines()
        assert lines[0] == "name,estimate,se,z,p,lower,upper"
        assert lines[1].startswith("r(X),")
        # structured warnings move to stderr in csv mode
        assert "asymptotic" in res.stderr

    @pytest.mark.parametrize(
        "csv,formula",
        [
            ("Y,X\n0,1\n0,2\n0,3\n0,4\n", "Y ~ X"),
            ("Y,X\n5,1\n5,2\n5,3\n5,4\n", "r(Y) ~ r(X)"),
            ("Y,X\n1e200,2\n-1e200,3\n1e200,1\n4,5\n2,2\n", "Y ~ r(X)"),
            ("Y,X\n1e308,2\n-1e308,3\n1e308,1\n4,5\n2,2\n", "Y ~ X"),
            ("Y,X,G\n1e200,2,a\n-1e200,3,a\n1e200,1,a\n4,5,a\n1,2,b\n2,3,b\n3,1,b\n5,6,b\n",
             "Y ~ (X):G"),
            # a constant response whose fit is not exact in floating point:
            # its standard errors are rounding noise, not zero
            ("y,x,w\n1,1,3\n1,2,1\n1,3,2\n1,5,7\n1,4,4\n", "r(y) ~ r(x)"),
            ("y,x,w\n1,1,3\n1,2,1\n1,3,2\n1,5,7\n1,4,4\n", "y ~ r(x) + w"),
            # a response constant within one group level: that level's own
            # columns fit its rows exactly
            (LEVEL_CONSTANT_CSV.format(last=7), "Y ~ (X):G"),
            (LEVEL_CONSTANT_CSV.format(last=7), "r(Y) ~ r(X):G"),
            (LEVEL_CONSTANT_CSV.format(last=5), "Y ~ (X):G"),
            (LEVEL_CONSTANT_CSV.format(last=5), "r(Y) ~ r(X):G"),
        ],
        ids=["constant", "constant-ranked", "overflow", "overflow-nan", "overflow-grouped",
             "constant-inexact-ranked", "constant-inexact", "level-constant",
             "level-constant-ranked", "level-constant-shared", "level-constant-shared-ranked"],
    )
    @pytest.mark.parametrize("out_format", ["json", "csv"])
    def test_degenerate_covariance_exit_code(self, invoke_cli, csv, formula, out_format):
        res = invoke_cli(
            ["rank-reg", "--formula", formula, "--format", out_format], stdin=csv
        )
        assert res.code == 3
        assert res.stdout == ""
        assert "degenerate" in res.stderr

    @pytest.mark.parametrize("formula", ["r(Y) ~ r(X)", "r(Y) ~ (r(X) + W):G"])
    def test_one_covariance_per_call(self, invoke_cli, monkeypatch, formula):
        inversions = []
        influences = []
        inverse_from_qr = variance_mod.inverse_from_qr
        influence = variance_mod._influence

        def counting_inverse(factor):
            inversions.append(factor)
            return inverse_from_qr(factor)

        def counting_influence(*args):
            influences.append(args)
            return influence(*args)

        monkeypatch.setattr(variance_mod, "inverse_from_qr", counting_inverse)
        monkeypatch.setattr(variance_mod, "_influence", counting_influence)
        rng = np.random.default_rng(1)
        lines = ["Y,X,W,G"] + [
            f"{rng.normal():.6f},{rng.normal():.6f},{rng.normal():.6f},{'uv'[i % 2]}"
            for i in range(30)
        ]
        res = invoke_cli(["rank-reg", "--formula", formula], stdin="\n".join(lines) + "\n")
        assert res.code == 0
        coefficients = len(parse_envelope(res.stdout)["results"]["coefficients"])
        assert len(inversions) == 1
        assert len(influences) == coefficients


# Group labels for the coding battery; the csv module, which reads the
# quoted ones, takes NUL from Python 3.11 on.
_GROUP_LABELS = ["b", "a", "ä", "", " a", "a ", "B", "日本", "ab" * 6] + (
    ["a\x00", "\x00"] if sys.version_info >= (3, 11) else [])


class TestGroupLabels:
    # the CLI codes a group column from the bytes of its fields; its levels
    # and their order are those of coding the labels as Python strings,
    # sorted with `<`, as the library does for an object array
    @given(labels=st.lists(st.sampled_from(_GROUP_LABELS), min_size=1, max_size=5, unique=True),
           data=st.data(), quoted=st.booleans())
    @example(labels=["b", "a", "ä", "", " a"], data=None, quoted=False)
    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_levels_match_library_coding(self, invoke_cli, labels, data, quoted):
        sizes = [4 + (data.draw(st.integers(0, 3)) if data else i % 3)
                 for i in range(len(labels))]
        groups = [label for label, size in zip(labels, sizes) for _ in range(size)]
        order = np.random.default_rng(len(groups)).permutation(len(groups))
        groups = [groups[i] for i in order]
        rng = np.random.default_rng(7)
        y = rng.normal(size=len(groups)).round(3)
        x = rng.permutation(len(groups)) * 0.5
        field = (lambda g: '"' + g + '"') if quoted else (lambda g: g)
        stdin = "Y,X,G\n" + "".join(f"{a!r},{b!r},{field(g)}\n"
                                     for a, b, g in zip(y.tolist(), x.tolist(), groups))
        formula = "r(Y) ~ r(X):G"
        res = invoke_cli(["rank-reg", "--formula", formula], stdin=stdin)
        assert res.code == 0, res.stderr
        results = parse_envelope(res.stdout)["results"]
        summary = summarize(fit(RankRegressionModel.from_formula(formula),
                                {"Y": y, "X": x, "G": np.array(groups, dtype=object)}))
        levels = sorted(set(groups))
        if len(levels) > 1:
            assert list(summary.names) == [f"{base}:{level}" for base in ("r(X)", "(Intercept)")
                                           for level in levels]
        assert [c["name"] for c in results["coefficients"]] == list(summary.names)
        assert [c["estimate"] for c in results["coefficients"]] == summary.estimates.tolist()
        assert results["vcov"] == summary.vcov.tolist()
        table = invoke_cli(["rank-reg", "--formula", formula, "--format", "csv"], stdin=stdin)
        assert table.code == 0
        names = [row[0] for row in csv.reader(io.StringIO(table.stdout))][1:]
        assert names == list(summary.names)


class TestMisc:
    def test_version_flag(self, invoke_cli):
        res = invoke_cli(["--version"])
        assert res.code == 0
        assert res.stdout == f"rankinfer, version {rankinfer.__version__}\n"

    @pytest.mark.parametrize("command", [[], *([name] for name in TestNaNFlags.COMMANDS)])
    def test_help(self, invoke_cli, command):
        res = invoke_cli([*command, "--help"])
        assert res.code == 0
        assert res.stdout.startswith(" ".join(["usage: rankinfer", *command]))
        assert res.stderr == ""

    @pytest.mark.parametrize("command,wrong,right", [
        ("cs-multinom", ["--cover", "0.9"], ["--coverage", "0.9"]),
        ("cs-ranks", ["--simu"], ["--simul"]),
        ("ranks", ["--nope"], []),
    ])
    def test_unknown_or_abbreviated_flag_exits_2(self, invoke_cli, command, wrong, right):
        args, stdin = TestNaNFlags.COMMANDS[command]
        res = invoke_cli([*args, *wrong], stdin=stdin)
        assert res.code == 2
        assert res.stdout == ""
        assert wrong[0] in res.stderr
        assert invoke_cli([*args, *right], stdin=stdin).code == 0

    def test_value_starting_with_dash(self, invoke_cli):
        stdin = "-x\n3\n1\n2\n"
        res = invoke_cli(["ranks", "--column=-x"], stdin=stdin)
        assert res.code == 0, res.stderr
        assert parse_envelope(res.stdout)["results"]["irank"] == [1.0, 3.0, 2.0]
        # without =, -x reads as a flag and --column lacks its value
        res = invoke_cli(["ranks", "--column", "-x"], stdin=stdin)
        assert res.code == 2
        assert res.stdout == ""
        assert "--column" in res.stderr

    def test_interrupt_exits_130(self, invoke_cli, monkeypatch):
        def interrupted(path):
            raise KeyboardInterrupt

        monkeypatch.setattr("rankinfer.cli.main.read_bytes", interrupted)
        res = invoke_cli(["ranks", "--column", "x"], stdin="x\n1\n")
        assert res.code == 130
        assert res.stdout == ""

    @pytest.mark.skipif(
        shutil.which("rankinfer") is None, reason="console script not installed"
    )
    def test_console_script_runs(self):
        proc = subprocess.run(
            ["rankinfer", "ranks", "--column", "math_score"],
            input=COUNTRY_CSV.encode(),
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 0
        body = json.loads(proc.stdout)
        assert body["procedure"] == "ranks"
