"""Coefficient dicts are never written after construction.

``Poly`` and ``GradedElem`` keep the coefficient objects they are given, so
one ``Poly`` or ``Fraction`` can sit in many elements at once.  That is only
safe while nothing writes to ``.terms`` or ``.components`` in place outside
the ``__init__`` that builds them.  This scans the package source for such
writes: item assignment, ``del``, augmented assignment, rebinding, and the
mutating dict methods.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "albv"
GUARDED = {"terms", "components"}
MUTATORS = {"pop", "update", "clear", "setdefault", "popitem"}


def _guarded(node):
    return isinstance(node, ast.Attribute) and node.attr in GUARDED


def _write(node):
    """The guarded attribute that ``node`` writes to in place, or None.

    The target of an augmented assignment carries a Store context, so it is
    caught with plain assignment and ``del``.
    """
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return node.value.attr if _guarded(node.value) else None
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return node.attr if node.attr in GUARDED else None
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in MUTATORS and _guarded(node.func.value):
            return node.func.value.attr
    return None


def writes_outside_init(source, filename="<string>"):
    """(line, attribute, enclosing function) for each write outside ``__init__``."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        attr = _write(node)
        if attr is not None and func != "__init__":
            found.append((node.lineno, attr, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source, filename), None)
    return found


def test_scanner_sees_every_kind_of_write():
    writes = """
def f(p, e, k):
    p.terms[k] = 1
    del e.components[k]
    p.terms[k] += 1
    e.components += {}
    p.terms = {}
    e.components.pop(k)
    p.terms.update({})
    e.components.clear()
    p.terms.setdefault(k, 1)
    e.components.popitem()
"""
    assert [line for line, _, _ in writes_outside_init(writes)] == list(range(3, 13))
    reads = """
class Poly:
    def __init__(self, terms):
        self.terms = dict(terms)
        self.terms[()] = 1

def g(p, k):
    x = p.terms[k]
    y = p.terms.get(k)
    return dict(p.terms), x, y
"""
    assert writes_outside_init(reads) == []


def test_no_module_writes_coefficients_after_construction():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for line, attr, func in writes_outside_init(path.read_text(), str(path)):
            found.append("%s:%d %s in %s" % (path.name, line, attr, func))
    assert found == []
