"""Optimize guard: src/ffjac has no assert statement.

python -O strips asserts, so a check written as one vanishes exactly when
a user turns optimization on. Library checks raise instead."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_has_no_assert_statement():
    found = []
    for path in sorted((ROOT / "src" / "ffjac").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == [], "assert statements in src/ffjac: %s" % found
