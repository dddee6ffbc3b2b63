"""The modular vector field is computed in ``homology`` only.

``modular_relation_check`` returns the field and the witness that it is
closed, so a command or suite that reports the modular checks reads both
from that one call instead of computing the field again.  This scans the
package source for calls of ``modular_vector_field`` and names the module of
each.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "albv"


def call_lines(source, name, filename="<string>"):
    """Line numbers of the calls of ``name``, direct or qualified."""
    lines = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Call):
            func = node.func
            if (getattr(func, "attr", None) or getattr(func, "id", None)) == name:
                lines.append(node.lineno)
    return sorted(lines)


def test_scanner_sees_direct_and_qualified_calls():
    source = """
from albv import homology

nu = modular_vector_field(pi)
mu = homology.modular_vector_field(pi)
f = modular_vector_field
"""
    assert call_lines(source, "modular_vector_field") == [4, 5]


def test_only_homology_computes_the_modular_field():
    found = [
        "%s:%d" % (path.name, line)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "homology.py"
        for line in call_lines(path.read_text(), "modular_vector_field", str(path))
    ]
    assert found == []
