"""Import surface: each public name has one import path, its defining
module, and importing the package itself loads nothing else."""
import ast
import importlib
import json
import os
import re
import runpy
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import rankinfer

README = Path(__file__).parents[1] / "README.md"
PERFBENCH = Path(__file__).parents[1] / "perfbench"
# the directory that holds the package under test, for child interpreters
PACKAGE_ROOT = str(Path(rankinfer.__file__).parents[1])

_CODE_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)
_FROM_IMPORT = re.compile(
    r"^from\s+(rankinfer(?:\.\w+)*)\s+import\s+(\([^)]*\)|.+)$", re.MULTILINE
)


def _python(*args, stdin=b"", stdout=subprocess.PIPE, unbuffered=None, cwd=None):
    """Run the interpreter on `args` in `cwd`; `unbuffered` sets or clears
    PYTHONUNBUFFERED in the child, None leaves it as it is here."""
    env = dict(os.environ)
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], input=stdin, stdout=stdout, stderr=subprocess.PIPE, env=env,
        cwd=cwd, timeout=120,
    )


def _readme_imports():
    """(module, name) for every `from rankinfer... import` in the README's
    Python code blocks."""
    found = []
    for block in _CODE_BLOCK.findall(README.read_text(encoding="utf-8")):
        for module, names in _FROM_IMPORT.findall(block):
            for name in re.sub(r"#.*", "", names).strip("()").split(","):
                name = name.split(" as ")[0].strip()
                if name:
                    found.append((module, name))
    return found


def test_module_entry_point_writes_nothing_to_stderr():
    # runpy warns when importing the package already imported the module
    # it is asked to run
    proc = _python(
        "-W", "error::RuntimeWarning", "-m", "rankinfer.cli.main", "ranks", "--column", "x",
        stdin=b"x\n3\n1\n2\n",
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert json.loads(proc.stdout)["results"]["irank"] == [1.0, 3.0, 2.0]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_1_quietly(unbuffered):
    # as `rankinfer ... | head` does once head has read enough; the reply is
    # smaller than stdout's buffer, so buffered it fails only on the flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _python("-m", "rankinfer.cli.main", "ranks", "--column", "x",
                       stdin=b"x\n3\n1\n2\n", stdout=write_end, unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_package_import_loads_no_submodule():
    proc = _python(
        "-c",
        "import sys, rankinfer; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'rankinfer'))",
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "['rankinfer']"


def test_cli_import_leaves_out_unused_modules():
    # the SVG writer loads only with --svg; scipy.linalg has
    # no caller, but scipy.special itself loads it before scipy 1.17, so
    # only the modules the CLI adds to scipy.special's are checked; the
    # flags are parsed by argparse, so click is never loaded
    proc = _python(
        "-c",
        "import json, sys, scipy.special; "
        "special = set(sys.modules); "
        "import rankinfer.cli.main; "
        "print(json.dumps([sorted(set(sys.modules) - special), "
        "sorted(m for m in sys.modules if m.split('.')[0] == 'click')]))",
    )
    assert proc.returncode == 0, proc.stderr.decode()
    added, click = json.loads(proc.stdout)
    assert "rankinfer.cli.main" in added
    assert [m for m in added if m.split(".")[:2] in (["scipy", "linalg"], ["xml", "etree"])
            or m == "rankinfer.cli.svg"] == []
    assert click == []


def test_chart_run_loads_no_xml_module(tmp_path):
    # the chart is written as text
    (tmp_path / "in.csv").write_text(_ESTIMATES)
    proc = _python(
        "-c",
        "import json, sys; from rankinfer.cli.main import main; "
        "code = main(sys.argv[1:]); "
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'xml')]))",
        "cs-ranks", *_GAUSSIAN, "--input", "in.csv", "-o", "out.json", "--svg", "chart.svg",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == [0, []]
    assert (tmp_path / "chart.svg").read_text().startswith("<?xml")


_GAUSSIAN = ["--estimates", "e", "--se", "se", "--seed", "1", "--label", "name"]
_ESTIMATES = "name,e,se\na,1,0.5\nb,2,0.5\nc,3,0.5\n"
# name: (argv, input, spans the run must report beyond BENCHMARK.json's
# per-layer metrics); the tau commands reach their span only through the
# `chooser` closure cell that perfbench/spans.py rebinds
TRACED = {
    "cs-ranks": (["cs-ranks", *_GAUSSIAN], _ESTIMATES, set()),
    "cs-taubest": (["cs-taubest", "--tau", "1", *_GAUSSIAN], _ESTIMATES,
                   {"rankcs.tau_select_s"}),
    "cs-tauworst": (["cs-tauworst", "--tau", "1", *_GAUSSIAN], _ESTIMATES,
                    {"rankcs.tau_select_s"}),
    "cs-multinom": (["cs-multinom", "--column", "count", "--label", "category"],
                    "category,count\nx,10\ny,20\nz,5\n", set()),
    "ranks-against": (["ranks", "--column", "Y", "--against", "X"], "Y,X\n1,2\n2,1\n3,3\n4,4\n",
                      set()),
}


@pytest.mark.parametrize("name", TRACED)
def test_traced_benchmark_run_reports_every_layer(tmp_path, name):
    # the benchmark's spans (perfbench/spans.py) wrap the CLI's functions
    # from outside: a traced run must still print its envelope and report
    # every per-layer metric that BENCHMARK.json declares
    args, data, spans = TRACED[name]
    (tmp_path / "in.csv").write_text(data)
    record = tmp_path / "record.json"
    proc = _python("-B", str(PERFBENCH / "child.py"), str(record), "1", "--",
                   *args, "--input", "in.csv", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout)["procedure"] == args[0]
    metrics = runpy.run_path(str(PERFBENCH / "spans.py"))["layer_metrics"](
        json.loads(record.read_text()))
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert {layer["name"] for layer in spec["per_layer"]} | spans <= set(metrics)


def test_package_holds_only_its_version():
    # submodules imported elsewhere appear as attributes; nothing else may
    public = [name for name, value in vars(rankinfer).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert public == []
    assert isinstance(rankinfer.__version__, str)


def test_readme_finds_imports():
    modules = {module for module, _ in _readme_imports()}
    assert {"rankinfer.ranking", "rankinfer.rankcs", "rankinfer.multinomcs",
            "rankinfer.rankreg.model"} <= modules


@pytest.mark.parametrize("module,name", _readme_imports())
def test_readme_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_readme_examples_run():
    # the Python blocks run in order in one namespace, the regression's on
    # seeded data; an expression followed by a `# [...]` comment must
    # evaluate to that list
    rng = np.random.default_rng(29)
    namespace = {"y": rng.normal(size=200), "x": rng.normal(size=200),
                 "w": rng.normal(size=200)}
    documented = []
    for block in _CODE_BLOCK.findall(README.read_text(encoding="utf-8")):
        exec(compile(block, str(README), "exec"), namespace)
        documented += re.findall(r"^(\S.*)\n# (\[.*\])$", block, re.MULTILINE)
    assert documented
    for expression, output in documented:
        got = eval(expression, namespace)
        assert isinstance(got, np.ndarray)
        assert got.tolist() == ast.literal_eval(output), expression


@pytest.mark.parametrize("path", sorted(Path(rankinfer.__file__).parent.rglob("*.py")),
                         ids=lambda path: path.relative_to(PACKAGE_ROOT).as_posix())
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert {name: line for name, line in imported.items() if name not in read} == {}
