"""The package imports nothing outside the standard library.

``pyproject.toml`` declares ``dependencies = []``.  Every ``import`` and
``from ... import`` in ``src/albv/*.py`` is read with ``ast``: an absolute
import must name ``albv`` or a module of ``sys.stdlib_module_names`` at its
top level; relative imports stay inside the package.
"""

import ast
import sys
from pathlib import Path

import albv

PACKAGE = Path(albv.__file__).parent


def foreign_imports(directory):
    """(file name, line, top-level module) of every absolute import in the
    ``*.py`` files of ``directory`` that is neither ``albv`` nor a standard
    library module."""
    allowed = set(sys.stdlib_module_names) | {"albv"}
    out = []
    for path in sorted(Path(directory).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            out += [
                (path.name, node.lineno, top)
                for top in (name.split(".")[0] for name in names)
                if top not in allowed
            ]
    return out


def test_the_package_imports_the_standard_library_alone():
    assert sorted(PACKAGE.glob("*.py"))
    assert foreign_imports(PACKAGE) == []


def test_a_foreign_import_is_found(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os, numpy.linalg\n"
        "from . import rows\n"
        "from albv.poly import Poly\n"
        "def f():\n"
        "    from sympy import Rational\n"
    )
    assert foreign_imports(tmp_path) == [("mod.py", 2, "numpy"), ("mod.py", 6, "sympy")]
