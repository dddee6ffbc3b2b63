"""The benchmark's three workloads.

A workload is a set-up step (``build``), timed as ``setup_s``, and a cycle of
operations made from the set-up state and the workload seed, generated before
the timed region.  Each operation returns a result that ``check`` compares
with a known answer; a raise or a wrong answer makes the operation fail.

Nothing here imports albv at module level: ``build`` imports it, so the
import is part of the set-up time.  Operations call albv through module
attributes (``homology.kb_betti``, not a bound name) so that the traced run
sees the benchmark's own calls as well as the program's internal ones.
"""

from __future__ import annotations

import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import answers

XYZ = ("x", "y", "z")
# so(3)*: {x,y} = z, {y,z} = x, {z,x} = y; pairs are 0-based with i < j
SO3_TERMS = {(0, 1): "z", (1, 2): "x", (0, 2): "-y"}


@dataclass
class Operation:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


class Workload:
    name = ""
    mix = 1  # a timed run ends on a multiple of this many operations
    pass_len = 1  # operations in one traced pass, taken from the cycle start

    def build(self, workdir: Path):
        """Import albv and build the structures; returns the set-up state."""
        raise NotImplementedError

    def operations(self, state, seed: int) -> list[Operation]:
        raise NotImplementedError

    def finish(self) -> list[bool]:
        """Checks that need the whole run, made after it: one pass/fail
        result per extra, untimed operation."""
        return []


def _table_check(expected, capped):
    """A check that a BettiTable equals a hand-derived table entry by entry."""

    def check(table):
        shape = {(k, w) for k in range(table.rank + 1) for w in range(table.max_weight + 1)}
        if shape != set(expected) or table.capped != capped:
            return False
        return all(table.entry(k, w) == dim for (k, w), dim in expected.items())

    return check


# -- betti_slices and betti_capped -----------------------------------------


def _so3_structures():
    from albv.algebroid import PoissonStructure, cotangent_algebroid, tangent_algebroid
    from albv.bv import TopConnection

    so3 = PoissonStructure(XYZ, SO3_TERMS)
    t3 = tangent_algebroid(XYZ)
    cot = cotangent_algebroid(so3)
    return {
        "so3": so3,
        "tangent3": t3,
        "cotangent": TopConnection(cot),
        "tangent3 trivial": TopConnection(t3),
    }


def _shuffled(ops, seed, label):
    random.Random("%s:%d" % (label, seed)).shuffle(ops)
    return ops


class BettiSlices(Workload):
    name = "betti_slices"
    mix = pass_len = 4

    def build(self, workdir):
        return _so3_structures()

    def operations(self, state, seed):
        from albv import homology

        so3, t3, cot = state["so3"], state["tangent3"], state["cotangent"]
        # weights at which each table takes about the same time, so the
        # median latency falls inside one cluster, not in a gap between two
        ops = [
            Operation(
                "kb_betti so(3)* w=5",
                lambda: homology.kb_betti(so3, 5),
                _table_check(answers.so3_homogeneous(5), False),
            ),
            Operation(
                "lichnerowicz_betti so(3)* w=3",
                lambda: homology.lichnerowicz_betti(so3, 3),
                _table_check(answers.so3_homogeneous(3), False),
            ),
            Operation(
                "cohomology_betti tangent 3-space w=6",
                lambda: homology.cohomology_betti(t3, 6),
                _table_check(answers.tangent3_cohomology(6), False),
            ),
            Operation(
                "boundary_betti cotangent so(3)* w=5",
                lambda: homology.boundary_betti(cot, 5),
                _table_check(answers.so3_homogeneous(5), False),
            ),
        ]
        return _shuffled(ops, seed, self.name)


class BettiCapped(Workload):
    name = "betti_capped"
    mix = pass_len = 2

    def build(self, workdir):
        return _so3_structures()

    def operations(self, state, seed):
        from albv import homology

        flat, cot = state["tangent3 trivial"], state["cotangent"]
        ops = [
            Operation(
                "capped boundary_betti tangent 3-space w=4",
                lambda: homology.boundary_betti(flat, 4, force_capped=True),
                _table_check(answers.tangent3_capped(4), True),
            ),
            Operation(
                "capped boundary_betti cotangent so(3)* w=4",
                lambda: homology.boundary_betti(cot, 4, force_capped=True),
                _table_check(answers.so3_capped(4), True),
            ),
        ]
        return _shuffled(ops, seed, self.name)


# -- verify_cli ------------------------------------------------------------

FILES = {
    "plane": (
        '[algebroid]\nkind = "tangent"\nbase_vars = ["x", "y"]\n\n'
        '[poisson]\nterms = [{"i": 1, "j": 2, "c": "y"}]\n\n'
        '[connection]\nalpha = ["0", "x"]\n'
    ),
    "sl2": (
        '[algebroid]\nkind = "lie_algebra"\nrank = 3\n'
        'structure = [{"i": 1, "j": 2, "k": 2, "c": "2"}, '
        '{"i": 1, "j": 3, "k": 3, "c": "-2"}, {"i": 2, "j": 3, "k": 1, "c": "1"}]\n'
    ),
    "so3": (
        '[algebroid]\nkind = "tangent"\nbase_vars = ["x", "y", "z"]\n\n'
        '[poisson]\nterms = [{"i": 1, "j": 2, "c": "z"}, {"i": 2, "j": 3, "c": "x"}, '
        '{"i": 1, "j": 3, "c": "-y"}]\n'
    ),
}
REPORT_SEEDS = 8  # seeds per file; each (file, seed) report recurs in a run
_STATUS = re.compile(r"^[a-z0-9-]+: (PASS|FAIL)\b")


def _cli_report(cli, path, seed):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["verify", str(path), "--seed", str(seed), "--trials", "6"])
    return code, out.getvalue(), err.getvalue()


class VerifyCli(Workload):
    name = "verify_cli"
    mix = pass_len = 3  # one report of each file

    def __init__(self):
        self._first = {}  # (file, seed) -> text of its first report
        self._pending = set()  # keys whose one report so far passed

    def build(self, workdir):
        from albv import cli  # noqa: F401  (imported as part of set-up)
        from albv.albvfile import Document

        paths = {}
        for name, text in FILES.items():
            path = workdir / ("%s.albv" % name)
            path.write_text(text)
            doc = Document.load(path)
            a = doc.build_algebroid(check=True)
            doc.build_poisson(check=True)
            doc.build_connection(a)
            paths[name] = path
        return paths

    def operations(self, state, seed):
        from albv import cli

        rng = random.Random("verify_cli:%d" % seed)
        seeds = [rng.randrange(10**6) for _ in range(REPORT_SEEDS)]
        self._run = lambda key: _cli_report(cli, state[key[0]], key[1])
        ops = []
        for s in seeds:
            for name in FILES:
                key = (name, s)
                ops.append(
                    Operation(
                        "verify %s" % name,
                        lambda key=key: self._run(key),
                        lambda result, key=key: self._check(key, result),
                    )
                )
        return ops

    def _check(self, key, result):
        """Exit 0, no stderr, every check PASS, and the same bytes as the
        first report for this (file, seed)."""
        code, out, err = result
        statuses = [m.group(1) for m in map(_STATUS.match, out.splitlines()) if m]
        ok = code == 0 and not err and bool(statuses) and "FAIL" not in statuses
        if key not in self._first:
            self._first[key] = out
            if ok:
                self._pending.add(key)
            return ok
        self._pending.discard(key)
        return ok and out == self._first[key]

    def finish(self):
        """Give each report that ran only once its byte-identity check."""
        return [self._check(key, self._run(key)) for key in sorted(self._pending)]


WORKLOADS = {w.name: w for w in (BettiSlices, BettiCapped, VerifyCli)}
