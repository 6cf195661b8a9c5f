"""Tests of what the package ships and exports.

Every CI job but one runs from the checkout, so a data file that the
package-data globs miss, or a name missing from ``__all__``, would break
only the installed package.
"""

import ast
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


def test_all_resolves_and_lists_every_public_import():
    """Each name in quadnet.__all__ resolves, once, and every public name
    that quadnet/__init__.py imports is listed."""
    assert len(set(quadnet.__all__)) == len(quadnet.__all__)
    missing = [name for name in quadnet.__all__ if not hasattr(quadnet, name)]
    assert missing == []
    tree = ast.parse(Path(quadnet.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(name for name in imported
                  if not name.startswith("_") and name not in quadnet.__all__) == []


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
