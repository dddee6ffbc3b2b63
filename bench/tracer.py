"""Per-layer tracing of albv from outside the package.

A ``Tracer`` replaces each traced albv function with a wrapper that records
one span per call, in every ``albv.*`` module namespace and albv class that
holds the original object (``homology.matrix_rank`` is ``linalg.rank``, and
``Poly.__radd__`` is ``Poly.__add__``), and puts every original back on
exit.  Spans are aggregated per name in memory: a call count and a self
time, the span's duration minus the part covered by nested traced calls.
"""

from __future__ import annotations

import sys
import time
from functools import wraps

# span name -> (module, attribute path) of every albv object it wraps
SPANS = {
    "poly.init": [("albv.poly", "Poly.__init__")],
    "poly.arith": [
        ("albv.poly", "Poly." + op)
        for op in ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "partial")
    ],
    "poly.parse_poly": [("albv.poly", "parse_poly")],
    "exterior.elem_init": [("albv.exterior", "GradedElem.__init__")],
    "exterior.wedge": [("albv.exterior", "wedge")],
    "exterior.contract": [("albv.exterior", "contract"), ("albv.exterior", "contract_or_zero")],
    "exterior.star": [("albv.exterior", "star"), ("albv.exterior", "star_inv")],
    "exterior.pairing": [("albv.exterior", "pairing")],
    "algebroid.tangent_algebroid": [("albv.algebroid", "tangent_algebroid")],
    "algebroid.structure_coeff": [("albv.algebroid", "LieAlgebroid.structure_coeff")],
    "algebroid.anchor_frame": [("albv.algebroid", "LieAlgebroid.anchor_frame")],
    "algebroid.bracket_sections": [("albv.algebroid", "LieAlgebroid.bracket_sections")],
    "algebroid.validate": [("albv.algebroid", "LieAlgebroid.validate")],
    "calculus.differential": [("albv.calculus", "differential")],
    "calculus.schouten": [("albv.calculus", "schouten")],
    "calculus.schouten_oracle": [("albv.calculus", "schouten_oracle")],
    "calculus.lichnerowicz": [("albv.calculus", "lichnerowicz")],
    "bv.generating_operator": [("albv.bv", "generating_operator")],
    "homology.betti_table": [("albv.homology", "betti_table")],
    "homology.koszul_brylinski": [("albv.homology", "koszul_brylinski")],
    "homology.boundary": [("albv.homology", "boundary")],
    "linalg.rank": [("albv.linalg", "rank")],
    "albvfile.parse": [("albv.albvfile", "Document.parse")],
    "albvfile.build": [
        ("albv.albvfile", "Document." + step)
        for step in ("build_algebroid", "build_poisson", "build_connection", "build_volume")
    ],
    "randgen.random_elem": [("albv.randgen", "random_elem")],
    "verify.run_suites": [("albv.verify", "run_suites")],
    "cli.main": [("albv.cli", "main")],
}
MARK = "_bench_span"


def albv_namespaces():
    """Every loaded albv module and every class defined in one."""
    modules = [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "albv" or name.startswith("albv."))
    ]
    classes = {}
    for mod in modules:
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__.startswith("albv"):
                classes[id(value)] = value
    return modules + list(classes.values())


def _raw(module, path):
    """The object stored under ``path`` in its namespace, descriptors intact."""
    owner = sys.modules[module]
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return vars(owner)[leaf]


def find_wrappers():
    """(namespace, attribute) of every tracing wrapper still in place."""
    found = []
    for ns in albv_namespaces():
        for attr, value in list(vars(ns).items()):
            if hasattr(getattr(value, "__func__", value), MARK):
                found.append((getattr(ns, "__name__", ns), attr))
    return found


def assert_untraced():
    left = find_wrappers()
    if left:
        raise RuntimeError("tracing wrappers left in place: %r" % left)


def _rank_shape(rows):
    """rows x cols, nonzero entries and the larger side of a rank input."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    nnz = sum(1 for row in rows for x in row if x)
    return nrows * ncols, nnz, max(nrows, ncols)


class Tracer:
    """Context manager that traces SPANS while active.

    ``stats`` maps each span name to ``[calls, self_s]``; ``counters`` holds
    the rank matrix sizes (cells, nnz, max_dim) and the Betti slices built.
    """

    def __init__(self):
        self.stats = {name: [0, 0.0] for name in SPANS}
        self.counters = {"rank.cells": 0, "rank.nnz": 0, "rank.max_dim": 0, "slices": 0}
        self._stack = []  # time covered by traced children, one slot per open span
        self._patched = []  # (namespace, attribute, original)

    def __enter__(self):
        assert_untraced()
        namespaces = albv_namespaces()
        try:
            for name, targets in SPANS.items():
                for module, path in targets:
                    if module not in sys.modules:
                        continue  # never imported, so never called
                    original = _raw(module, path)
                    wrapper = self._wrap(name, original)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is original:
                                setattr(ns, attr, wrapper)
                                self._patched.append((ns, attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patched:
            ns, attr, original = self._patched.pop()
            setattr(ns, attr, original)

    def _wrap(self, name, original):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(name, original.__func__))
        fn = original
        row = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        before = self._before_rank if name == "linalg.rank" else None
        after = self._after_table if name == "homology.betti_table" else None

        @wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                row[0] += 1
                row[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(result)
            return result

        setattr(traced, MARK, name)
        return traced

    def _before_rank(self, args):
        # sizing the matrix is tracing work: count it as covered time so it
        # is kept out of the caller's self time
        start = time.perf_counter()
        rows = args[0] if isinstance(args[0], list) else list(args[0])
        cells, nnz, dim = _rank_shape(rows)
        self.counters["rank.cells"] += cells
        self.counters["rank.nnz"] += nnz
        self.counters["rank.max_dim"] = max(self.counters["rank.max_dim"], dim)
        if self._stack:
            self._stack[-1] += time.perf_counter() - start
        return (rows,) + tuple(args[1:])

    def _after_table(self, table):
        self.counters["slices"] += len(table.entries)
