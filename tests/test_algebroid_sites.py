"""``LieAlgebroid`` is built from frame data in two places only.

The base structures (tangent, Lie algebra, custom and file-built) take their
anchor and structure functions as given, all through ``custom_algebroid``.
Every derived structure states a
differential and hands it to ``algebroid_from_differential``, the one reader
of anchor and structure data, so none of them may call the constructor.  This
scans the package source for calls of ``LieAlgebroid`` and names the
enclosing function of each.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "albv"
ALLOWED = {"custom_algebroid", "algebroid_from_differential"}


def constructor_calls(source, filename="<string>"):
    """(line, qualified enclosing function) for each ``LieAlgebroid(...)`` call."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", None) or getattr(func, "id", None)
            if name == "LieAlgebroid":
                found.append((node.lineno, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source, filename), ())
    return found


def test_scanner_sees_direct_and_qualified_calls():
    source = """
from albv import algebroid

def f():
    return LieAlgebroid((), 0, [], {})

class Doc:
    def build(self):
        return algebroid.LieAlgebroid((), 0, [], {})

def g(a):
    return isinstance(a, LieAlgebroid)
"""
    assert constructor_calls(source) == [(5, "f"), (9, "Doc.build")]


def test_only_base_structures_call_the_constructor():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for line, scope in constructor_calls(path.read_text(), str(path)):
            if scope not in ALLOWED:
                found.append("%s:%d in %s" % (path.name, line, scope or "<module>"))
    assert found == []
