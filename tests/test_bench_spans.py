"""The per-layer tracer in ``bench/`` patches albv names by module and path.

It raises ``KeyError`` on a name that no longer exists, so every traced name
must keep resolving, and it sizes each rank input as a dense matrix, so the
slice matrices must keep reaching ``matrix_rank`` as lists of equal-length
rows.  The tracer module is read from the bench directory and left
untouched.
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


def test_rank_inputs_are_dense_rows_the_tracer_can_size(monkeypatch):
    import albv.homology
    from albv.algebroid import tangent_algebroid
    from albv.bv import TopConnection

    tracer = load_tracer()
    seen = []
    rank = albv.homology.matrix_rank

    def capture(rows, pivots=None):
        seen.append(rows)
        return rank(rows, pivots)

    monkeypatch.setattr(albv.homology, "matrix_rank", capture)
    flat = TopConnection(tangent_algebroid(("x", "y")))
    albv.homology.boundary_betti(flat, 2, force_capped=True)
    total_nnz = 0
    for rows in seen:
        assert isinstance(rows, list) and rows
        assert all(isinstance(row, list) and len(row) == len(rows[0]) for row in rows)
        nnz = sum(1 for row in rows for x in row if x != 0)
        total_nnz += nnz
        assert tracer._rank_shape(rows) == (
            len(rows) * len(rows[0]),
            nnz,
            max(len(rows), len(rows[0])),
        )
    assert total_nnz > 0
