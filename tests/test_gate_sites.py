"""Every command passes one structure gate over one build of each structure.

``verify.structure_gate`` records the checks every later report line rests
on, so ``LieAlgebroid.validate`` runs there and in the factories' ``check``
paths only: inside an ``if check:`` block.  The command line builds the
file's algebroid and bivector once, for the gate, the handler and
``verify``'s suites, so ``Document.build_algebroid`` and ``build_poisson``
are called from ``cli.main`` only.
This scans the package source for calls of those methods and names the
enclosing function of each.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "albv"
BUILDS = ("build_algebroid", "build_poisson")
BUILD_SITES = {("cli.py", "main")}


def method_calls(source, names, filename="<string>"):
    """(line, method, qualified enclosing function, inside ``if check:``)
    for each ``<expr>.<name>(...)`` call with a name in ``names``."""
    found = []

    def visit(node, scope, checked):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope, checked = scope + (node.name,), False
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in names:
                found.append((node.lineno, node.func.attr, ".".join(scope), checked))
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name):
            guarded = checked or node.test.id == "check"
            visit(node.test, scope, checked)
            for child in node.body:
                visit(child, scope, guarded)
            for child in node.orelse:
                visit(child, scope, checked)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, scope, checked)

    visit(ast.parse(source, filename), (), False)
    return found


def package_calls(names):
    return [
        (path.name, line, name, scope, checked)
        for path in sorted(SRC.glob("*.py"))
        for line, name, scope, checked in method_calls(
            path.read_text(), names, str(path)
        )
    ]


def test_scanner_sees_guarded_and_unguarded_calls():
    source = """
def factory(check=True):
    a = make()
    if check:
        a.validate().raise_if_failed("bad")
    else:
        a.validate()
    return a

class Doc:
    def run(self, doc):
        return doc.build_algebroid(check=False).validate()
"""
    assert method_calls(source, ("validate", "build_algebroid")) == [
        (5, "validate", "factory", True),
        (7, "validate", "factory", False),
        (12, "validate", "Doc.run", False),
        (12, "build_algebroid", "Doc.run", False),
    ]


def test_structures_are_validated_by_the_gate_or_a_check_path():
    calls = package_calls(("validate",))
    stray = [
        "%s:%d in %s" % (path, line, scope)
        for path, line, _, scope, checked in calls
        if not checked and (path, scope) != ("verify.py", "structure_gate")
    ]
    assert stray == []
    assert ("verify.py", "structure_gate") in {(c[0], c[3]) for c in calls}


def test_structures_are_built_by_the_command_line_only():
    calls = package_calls(BUILDS)
    assert {(path, scope) for path, _, _, scope, _ in calls} == BUILD_SITES
    for site in BUILD_SITES:
        built = sorted(name for path, _, name, scope, _ in calls if (path, scope) == site)
        assert built == sorted(BUILDS), site
