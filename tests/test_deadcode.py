"""Dead-code guard: every function, method and class defined in src/ffjac
must be referenced from the library itself or from the benchmark harness
in perfbench/ (its test files excluded). A reference is a name, an
attribute or an import of that name. Dunders and the names exported in
ffjac.__all__ are exempt. A definition's own name inside its own body
does not count, so a recursive function still needs an outside caller.
Code that only the tests use belongs in the tests."""

import ast
from pathlib import Path

import ffjac

ROOT = Path(__file__).resolve().parents[1]


def _parse(paths):
    return [ast.parse(path.read_text(), filename=str(path)) for path in paths]


_KINDS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(trees):
    return {node.name for tree in trees for node in ast.walk(tree)
            if isinstance(node, _KINDS)}


def _references(trees):
    out = set()

    def visit(node, inside):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        if name is not None and name not in inside:
            out.add(name)
        body = node.body if isinstance(node, _KINDS) else []
        for child in ast.iter_child_nodes(node):
            visit(child, inside | {node.name} if child in body else inside)

    for tree in trees:
        visit(tree, frozenset())
    return out


def test_self_reference_is_not_a_use():
    tree = ast.parse(
        "def rec(n):\n"
        "    return rec(n - 1) if n else used()\n"
        "def used():\n"
        "    return 0\n"
        "class Node:\n"
        "    def walk(self):\n"
        "        return [Node(), self.walk()]\n")
    used = _references([tree])
    assert "used" in used
    assert not {"rec", "Node", "walk"} & used


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
