"""Import surface: each public name has one import path, its defining
module, and importing the package itself loads nothing else."""
import importlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import rankinfer

README = Path(__file__).parents[1] / "README.md"
# the directory that holds the package under test, for child interpreters
PACKAGE_ROOT = str(Path(rankinfer.__file__).parents[1])

_CODE_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)
_FROM_IMPORT = re.compile(
    r"^from\s+(rankinfer(?:\.\w+)*)\s+import\s+(\([^)]*\)|.+)$", re.MULTILINE
)


def _python(*args, stdin=b""):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, env=env, timeout=120
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


def test_package_import_loads_no_submodule():
    proc = _python(
        "-c",
        "import sys, rankinfer; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'rankinfer'))",
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "['rankinfer']"


def test_cli_import_leaves_out_unused_modules():
    # the SVG writer (xml.etree) loads only with --svg; scipy.linalg has
    # no caller, but scipy.special itself loads it before scipy 1.17, so
    # only the modules the CLI adds to scipy.special's are checked
    proc = _python(
        "-c",
        "import json, sys, scipy.special; "
        "special = set(sys.modules); "
        "import rankinfer.cli.main; "
        "print(json.dumps(sorted(set(sys.modules) - special)))",
    )
    assert proc.returncode == 0, proc.stderr.decode()
    added = json.loads(proc.stdout)
    assert "rankinfer.cli.main" in added
    assert [m for m in added if m.split(".")[:2] in (["scipy", "linalg"], ["xml", "etree"])
            or m == "rankinfer.cli.svg"] == []


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
