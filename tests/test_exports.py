"""Every exported name resolves.

``from albv import *`` and ``from albv.<module> import *`` raise
``AttributeError`` on a name in ``__all__`` that the module no longer
defines, so a removed class or helper must leave its module's ``__all__``
too.
"""

import importlib
import pkgutil

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
