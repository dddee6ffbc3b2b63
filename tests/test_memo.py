"""What a structure fixes is kept through one memo, ``Memo.kept``.

``LieAlgebroid``, ``PoissonStructure`` and ``TopConnection`` share it: the
frame elements, the cotangent algebroid, the modular field and the table
rows of ``rows`` are kept there, each module under its own keys.  No module
writes a private attribute of an object it does not own: a module that
keeps data on a structure asks the structure's memo for it.  This scans the
package source for assignments to a single-underscore attribute of
anything but ``self``, and for the definitions of ``kept``.
"""

import ast
from pathlib import Path

from albv.algebroid import PoissonStructure, cotangent_algebroid, tangent_algebroid
from albv.bv import TopConnection

SRC = Path(__file__).resolve().parents[1] / "src" / "albv"


def foreign_private_writes(source, filename="<string>"):
    """Line numbers of assignments to ``obj._name`` with ``obj`` not ``self``
    and ``_name`` a single-underscore name, in plain, augmented and
    annotated assignments, tuple targets included."""
    lines = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and sub.attr.startswith("_")
                    and not sub.attr.startswith("__")
                    and not (isinstance(sub.value, ast.Name) and sub.value.id == "self")
                ):
                    lines.append(sub.lineno)
    return sorted(lines)


def test_scanner_sees_private_writes_on_other_objects():
    source = """
self._rows = None
a._rows = build()
x, pi._kb_rows = 1, 2
conn._count += 1
out._note: int = 0
a.rows = None
a.__dict__ = {}
value = a._rows
"""
    assert foreign_private_writes(source) == [3, 4, 5, 6]


def test_no_module_writes_a_private_attribute_of_another_object():
    found = [
        "%s:%d" % (path.name, line)
        for path in sorted(SRC.glob("*.py"))
        for line in foreign_private_writes(path.read_text(), str(path))
    ]
    assert found == []


def test_the_memo_is_defined_once():
    found = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.FunctionDef) and node.name == "kept"
    ]
    assert found == ["algebroid.py"]


def test_every_structure_keeps_through_the_memo():
    pi = PoissonStructure(("x", "y"), {(0, 1): "y"})
    a = tangent_algebroid(("x", "y"))
    conn = TopConnection(a)
    for structure in (a, pi, conn):
        built = []
        first = structure.kept("probe", lambda: built.append(1) or object())
        assert structure.kept("probe", lambda: built.append(1) or object()) is first
        assert built == [1]
    assert pi.cotangent() is pi.cotangent()
    assert cotangent_algebroid(pi, check=False) is pi.cotangent()
    assert TopConnection(a).kept("probe", object) is not conn.kept("probe", object)
