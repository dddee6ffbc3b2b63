"""The modular vector field is computed in ``homology`` only, once per
bivector.

``modular_relation_check`` returns the field and the witness that it is
closed, so a command or suite that reports the modular checks reads both
from that one call.  ``modular_vector_field`` keeps the field in the
bivector's memo, so the checks that read it again, such as
``unimodular_duality_check``, read the same computation.  This scans the
package source for calls of ``modular_vector_field`` and names the module of
each, and counts the builds of the field behind one bivector and one
``verify`` report.
"""

import ast
from pathlib import Path

import albv.homology
from albv.algebroid import PoissonStructure
from albv.cli import main
from albv.homology import (
    modular_relation_check,
    modular_vector_field,
    unimodular_duality_check,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "albv"

PLANE_TEXT = """\
[algebroid]
kind = "tangent"
base_vars = ["x", "y"]

[poisson]
terms = [{"i": 1, "j": 2, "c": "y"}]

[connection]
alpha = ["0", "x"]
"""


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


def counted_builds(monkeypatch):
    """Count the builds of the modular field behind ``modular_vector_field``."""
    builds = []
    build = albv.homology._modular_field

    def counting(pi):
        builds.append(pi)
        return build(pi)

    monkeypatch.setattr(albv.homology, "_modular_field", counting)
    return builds


def test_the_modular_field_is_built_once_per_bivector(monkeypatch):
    builds = counted_builds(monkeypatch)
    pi = PoissonStructure(("x", "y"), {(0, 1): "y"})
    outcome = modular_relation_check(pi)
    assert unimodular_duality_check(pi, 1)["modular_field"] == outcome["modular_field"]
    assert modular_vector_field(pi) is modular_vector_field(pi)
    assert builds == [pi]
    other = PoissonStructure(("x", "y"), {(0, 1): "y"})
    assert modular_vector_field(other) == modular_vector_field(pi)
    assert builds == [pi, other]


def test_a_verify_report_builds_the_modular_field_once(tmp_path, capsys, monkeypatch):
    builds = counted_builds(monkeypatch)
    path = tmp_path / "plane.albv"
    path.write_text(PLANE_TEXT)
    assert main(["verify", str(path), "--seed", "3", "--trials", "5"]) == 0
    assert "unimodular-duality: SKIP (modular field (1) e1)" in capsys.readouterr().out
    assert len(builds) == 1
