"""Tests of what the package ships, exports and loads.

Every CI job but one runs from the checkout, so a data file that the
package-data globs miss, or a name missing from ``__all__``, would break
only the installed package.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadnet

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quadnet"


def test_package_data_globs_ship_every_data_file():
    """Every file under quadnet/data matches a [tool.setuptools.package-data]
    glob, expanded as setuptools does, relative to the package."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    globs = config["tool"]["setuptools"]["package-data"]["quadnet"]
    files = {path for path in (PACKAGE / "data").rglob("*") if path.is_file()}
    shipped = {path for pattern in globs for path in PACKAGE.glob(pattern)}
    assert files
    assert sorted(map(str, files - shipped)) == []


def _child(script, tmp_path, stdin=""):
    """Run ``script`` in a fresh interpreter that imports quadnet from this
    checkout, in ``tmp_path``, and return its last line of output as JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    child = subprocess.run([sys.executable, "-c", script], input=stdin, capture_output=True,
                           text=True, env=env, cwd=tmp_path, check=True)
    return json.loads(child.stdout.splitlines()[-1])


def test_all_resolves_and_lists_every_public_import(tmp_path):
    """quadnet.__all__ lists its 80 names once each, in the order of the one
    list of exports; each resolves to the object of its home module and is
    bound by a star import; and a bare ``import quadnet`` loads no submodule,
    yet every submodule resolves as an attribute."""
    names = [name for names in quadnet._EXPORTS.values() for name in names]
    assert quadnet.__all__ == ["__version__", *names]
    assert len(set(quadnet.__all__)) == len(quadnet.__all__) == 80
    for module, exported in quadnet._EXPORTS.items():
        home = importlib.import_module(f"quadnet.{module}")
        assert [n for n in exported if getattr(quadnet, n) is not getattr(home, n)] == []
    star = {}
    exec("from quadnet import *", star)
    assert [n for n in quadnet.__all__ if star.get(n, star) is not getattr(quadnet, n)] == []
    assert not hasattr(quadnet, "no_such_name")
    bare = _child("import json, sys\n"
                  "import quadnet\n"
                  "loaded = sorted(m for m in sys.modules if m.startswith('quadnet.'))\n"
                  "modules = [getattr(quadnet, m).__name__ for m in quadnet._EXPORTS]\n"
                  "print(json.dumps([loaded, modules]))\n", tmp_path)
    assert bare == [[], [f"quadnet.{module}" for module in quadnet._EXPORTS]]


_DEFERRED = ["quadnet.calibration", "quadnet.sampling"]
_COLD = r"""
import json, sys

def loaded():
    return [m for m in ("quadnet.calibration", "quadnet.sampling") if m in sys.modules]

import quadnet.cli
steps = [[None, loaded()]]
for argv in json.loads(sys.stdin.read()):
    steps.append([quadnet.cli.main(argv), loaded()])
print(json.dumps(steps))
"""


def test_commands_load_calibration_and_sampling_only_when_they_use_them(tmp_path):
    """A cold ``import quadnet.cli`` loads neither calibration nor sampling, and
    no command that uses neither loads them; the commands that use them load
    them on their first call and succeed."""
    data = PACKAGE / "data"
    state = ["--family", "ghz", "--r", "0.402"]
    commands = [
        (["sweep", "--family", "ghz", "--r-min", "0", "--r-max", "1", "--steps", "5"], []),
        (["criteria", *state], []),
        (["criteria", *state, "--efficiencies", "0.9"], []),
        (["criteria", *state, "--net", str(data / "ghz.net")], []),
        (["gains", *state], []),
        (["simulate", *state], ["quadnet.sampling"]),
        (["criteria", "--from-measured", str(data / "measured_ghz.json")], _DEFERRED),
        (["trace", *state, "--duration", "0.001", "--samples-per-point", "50"], _DEFERRED),
        (["fit", "--family", "cluster"], _DEFERRED),
    ]
    argvs = [["--out", str(tmp_path / "out"), "--no-timestamp", *argv] for argv, _ in commands]
    steps = _child(_COLD, tmp_path, json.dumps(argvs))
    assert steps == [[None, []], *[[0, loaded] for _, loaded in commands]]

    # trace and fit, each the first command to need its module
    fresh = _child(_COLD, tmp_path, json.dumps(argvs[-2:]))
    assert fresh == [[None, []], [0, ["quadnet.sampling"]], [0, _DEFERRED]]


def _bound_names(node):
    """Names a top-level import statement binds in its module."""
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.partition(".")[0] for alias in node.names]
    return [alias.asname or alias.name for alias in node.names]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_every_top_level_import_is_used(path):
    """Each name a module's top-level imports bind is referenced in that
    module: the package's guard against dead imports, as no linter is a
    dependency.  __init__.py re-exports what it imports and is exempt."""
    tree = ast.parse((PACKAGE / path).read_text(encoding="utf-8"))
    imported = {name for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                for name in _bound_names(node)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
