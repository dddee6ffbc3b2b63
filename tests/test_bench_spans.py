"""The per-layer tracer in ``bench/`` patches albv names by module and path.

It raises ``KeyError`` on a name that no longer exists, so every traced name
must keep resolving.  The tracer module is read from the bench directory and
left untouched.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("albv_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    pairs = [pair for targets in tracer.SPANS.values() for pair in targets]
    assert pairs
    for module, path in pairs:
        importlib.import_module(module)
        value = tracer._raw(module, path)
        assert callable(getattr(value, "__func__", value)), (module, path)
