"""Dead-code guard: every function, method and class defined in src/ffjac
must be referenced from the library itself or from the benchmark harness
in perfbench/ (its test files excluded). A reference is a name, an
attribute or an import of that name. Dunders and the names exported in
ffjac.__all__ are exempt. Code that only the tests use belongs in the
tests."""

import ast
from pathlib import Path

import ffjac

ROOT = Path(__file__).resolve().parents[1]


def _parse(paths):
    return [ast.parse(path.read_text(), filename=str(path)) for path in paths]


def _definitions(trees):
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for tree in trees for node in ast.walk(tree)
            if isinstance(node, kinds)}


def _references(trees):
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.rsplit(".", 1)[-1])
    return out


def test_every_library_definition_is_referenced():
    lib = _parse(sorted((ROOT / "src" / "ffjac").glob("*.py")))
    bench = _parse(path for path in sorted((ROOT / "perfbench").glob("*.py"))
                   if not path.name.startswith("test_"))
    assert lib and bench
    used = _references(lib + bench)
    dead = sorted(name for name in _definitions(lib)
                  if name not in used and name not in ffjac.__all__
                  and not (name.startswith("__") and name.endswith("__")))
    assert dead == [], "defined in src/ffjac but never referenced: %s" % dead
