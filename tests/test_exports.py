"""Every exported name resolves, and importing a module loads only what it
imports.

``from albv import *`` and ``from albv.<module> import *`` raise
``AttributeError`` on a name in ``__all__`` that the module no longer
defines, so a removed class or helper must leave its module's ``__all__``
too.  The package's names load their module on first access, so the table
path (``albv.homology``) does not load the file reader, the verify suites
or the command line.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import albv


def test_every_name_in_each_all_resolves():
    modules = [albv] + [
        importlib.import_module("albv." + info.name)
        for info in pkgutil.iter_modules(albv.__path__)
    ]
    assert len(modules) > 1
    missing = [
        (module.__name__, name)
        for module in modules
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert missing == []


def test_each_package_name_is_the_object_its_module_defines(monkeypatch):
    """The package keeps no copy: a module attribute replaced after the
    first access, as a tracer replaces it, is what the package returns."""
    assert albv.__all__ == list(albv._EXPORTS)
    for name, module_name in albv._EXPORTS.items():
        module = importlib.import_module("albv." + module_name)
        value = getattr(albv, name)
        assert value is vars(module)[name], name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
    replacement = object()
    monkeypatch.setattr(sys.modules["albv.algebroid"], "tangent_algebroid", replacement)
    assert albv.tangent_algebroid is replacement


def test_dir_lists_the_exported_names_without_loading_them():
    names = dir(albv)
    assert names == sorted(names)
    assert set(albv.__all__) <= set(names)
    assert "__version__" in names
    assert not set(albv.__all__) & set(vars(albv))


def test_the_table_path_loads_neither_the_file_reader_nor_the_suites():
    src = str(Path(albv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, albv.homology\n"
        "print(' '.join(sorted(n for n in sys.modules if n.startswith('albv'))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "albv.homology" in loaded
    assert loaded & {"albv.albvfile", "albv.verify", "albv.randgen", "albv.cli"} == set()
