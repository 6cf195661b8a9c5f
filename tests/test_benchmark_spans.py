"""The benchmark's tracer must still find every function it wraps.

``perfbench/spans.py`` names the traced functions in its ``TRACED`` table and
looks each one up in its ``quadnet`` module at install time.  The table is
read from the file's syntax tree, so the benchmark code is neither imported
nor executed here.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_table() -> dict:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"), filename=str(SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {SPANS}")


def test_every_traced_name_resolves_in_its_module():
    table = _traced_table()
    assert table
    missing = []
    for layer, functions in table.items():
        module = importlib.import_module(f"quadnet.{layer}")
        missing += [f"{layer}.{name}" for name in functions
                    if not callable(getattr(module, name, None))]
    assert missing == []
