"""Command line front end.

Subcommands: ``validate``, ``cohomology``, ``homology``, ``modular``,
``star`` and ``verify``, each taking an .albv file.  Exit status is 0 when
every reported check passes, 1 when any check fails, and 2 for usage or
parse problems.  With ``--json`` the report is a single JSON object with the
keys ``command``, ``checks``, ``tables`` and ``sign_s``; without it the same
content is printed as plain lines.  Output is deterministic for a fixed file
and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .albvfile import Document, DocumentError
from .calculus import lichnerowicz
from .exterior import DUAL_SIDE, GradedElem, basis_tuples, star
from .homology import (
    boundary_betti,
    cohomology_betti,
    kb_betti,
    modular_relation_check,
    modular_vector_field,
)
from .bv import curvature
from .poly import Poly
from .verify import SUITES, CheckResult, run_suites

__all__ = ["main", "build_parser"]


def _int_at_least(minimum):
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                "must be at least %d, got %d" % (minimum, value)
            )
        return value

    # argparse names the type in its "invalid int value" message
    parse.__name__ = "int"
    return parse


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="path to an .albv file")
    # SUPPRESS keeps a flag given before the subcommand from being reset to
    # the subparser default
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit one JSON object instead of text",
    )
    common.add_argument(
        "--no-validate",
        action="store_true",
        default=argparse.SUPPRESS,
        help="skip the structure checks that normally gate a command",
    )

    parser = argparse.ArgumentParser(
        prog="albv",
        description="exact calculus on Lie algebroid frames: brackets, "
        "generating operators, homology tables",
    )
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--no-validate", action="store_true", help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", parents=[common], help="run the structure checks")

    p = sub.add_parser("cohomology", parents=[common], help="differential Betti table")
    p.add_argument("--max-weight", type=_int_at_least(0), default=4)

    p = sub.add_parser("homology", parents=[common], help="boundary Betti table")
    p.add_argument(
        "--kb", action="store_true", help="use the bivector operator on base forms"
    )
    p.add_argument("--max-weight", type=_int_at_least(0), default=4)

    sub.add_parser(
        "modular", parents=[common], help="modular field and the sign of the relation"
    )

    p = sub.add_parser(
        "star", parents=[common], help="star images of the degree-K coframe basis"
    )
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("verify", parents=[common], help="seeded identity suites")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--trials", type=_int_at_least(1), default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-deg", type=_int_at_least(0), default=2)
    return parser


@dataclass
class _StarTable:
    """Star images of a coframe basis, as ``{"input", "output"}`` records."""

    degree: int
    entries: list

    def to_text(self) -> str:
        lines = ["star, degree %d" % self.degree]
        lines.extend("%s = %s" % (r["input"], r["output"]) for r in self.entries)
        return "\n".join(lines)

    def to_json(self):
        return {"operator": "star", "degree": self.degree, "entries": self.entries}


class _Report:
    """Checks as ``CheckResult``; tables as objects with ``to_text``/``to_json``."""

    def __init__(self, command):
        self.command = command
        self.checks = []
        self.tables = []
        self.sign = None
        self.info = []

    def add_check(self, name, ok, witness=None):
        self.checks.append(CheckResult(name, ok, witness))

    @property
    def failed(self) -> bool:
        return any(not c.ok for c in self.checks)

    def to_json(self):
        return {
            "command": self.command,
            "checks": [c.to_json() for c in self.checks],
            "tables": [t.to_json() for t in self.tables],
            "sign_s": self.sign,
        }

    def print_text(self, out):
        for check in self.checks:
            print(check.line(), file=out)
        for line in self.info:
            print(line, file=out)
        if self.sign is not None:
            print("sign_s: %+d" % self.sign, file=out)
        for table in self.tables:
            print(table.to_text(), file=out)


def _structure_gate(report, a, pi):
    """Add the axiom and bivector checks to the report; returns the axiom report."""
    vreport = a.validate()
    witness = None
    if not vreport.ok:
        details = vreport.anchor_failures + vreport.jacobi_failures
        witness = str(details[0]) if details else "structure checks failed"
    report.add_check("axioms", vreport.ok, witness)
    if pi is not None:
        bad = pi.jacobiator()
        report.add_check(
            "bivector-self-commutes",
            bad.is_zero,
            None if bad.is_zero else "self-bracket is %s" % bad,
        )
    return vreport


def _cmd_validate(args, doc, report):
    a = doc.build_algebroid(check=False)
    pi = doc.build_poisson(check=False)
    vreport = _structure_gate(report, a, pi)
    report.info.extend(vreport.lines())
    return None


def _cmd_cohomology(args, doc, report):
    a = doc.build_algebroid(check=False)
    table = cohomology_betti(a, args.max_weight)
    report.tables.append(table)
    return None


def _cmd_homology(args, doc, report):
    a = doc.build_algebroid(check=False)
    if args.kb:
        pi = doc.build_poisson(check=False)
        if pi is None:
            raise _Usage("homology --kb needs a [poisson] section")
        table = kb_betti(pi, args.max_weight)
    else:
        conn = doc.build_connection(a)
        r = curvature(conn)
        report.add_check(
            "flat-connection", r.is_zero, None if r.is_zero else "curvature %s" % r
        )
        if not r.is_zero:
            return None
        table = boundary_betti(conn, args.max_weight)
    report.tables.append(table)
    return None


def _cmd_modular(args, doc, report):
    pi = doc.build_poisson(check=False)
    if pi is None:
        raise _Usage("modular needs a [poisson] section")
    nu = modular_vector_field(pi)
    report.info.append("modular field: %s" % nu)
    closed = lichnerowicz(pi, nu)
    report.add_check(
        "modular-field-closed",
        closed.is_zero,
        None if closed.is_zero else "bracket with bivector is %s" % closed,
    )
    outcome = modular_relation_check(pi)
    witness = None
    if outcome["failures"]:
        witness = str(outcome["failures"][0])
    report.add_check("modular-relation", outcome["ok"], witness)
    report.sign = outcome["sign"]
    return None


def _cmd_star(args, doc, report):
    a = doc.build_algebroid(check=False)
    if not 0 <= args.degree <= a.rank:
        raise _Usage("--degree must lie between 0 and %d" % a.rank)
    vol = doc.build_volume(a)
    records = []
    for idx in basis_tuples(a.rank, args.degree):
        eps = GradedElem(
            DUAL_SIDE, args.degree, a.rank, a.variables,
            {idx: Poly.constant(1, a.variables)},
        )
        image = star(eps, vol)
        label = "^".join("eps%d" % (i + 1) for i in idx) or "1"
        records.append({"input": "*(%s)" % label, "output": str(image)})
    report.tables.append(_StarTable(args.degree, records))
    return None


def _cmd_verify(args, doc, report):
    results, sign, tables = run_suites(
        doc, args.suite, args.trials, args.seed, args.max_deg
    )
    report.checks.extend(results)
    report.sign = sign
    report.tables.extend(tables)
    return None


_HANDLERS = {
    "validate": _cmd_validate,
    "cohomology": _cmd_cohomology,
    "homology": _cmd_homology,
    "modular": _cmd_modular,
    "star": _cmd_star,
    "verify": _cmd_verify,
}

_GATED = ("cohomology", "homology", "modular", "star", "verify")


class _Usage(Exception):
    pass


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    report = _Report(args.command)
    try:
        doc = Document.load(args.file)
    except (DocumentError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    gated = args.command in _GATED and not args.no_validate
    if args.command == "verify" and getattr(args, "suite", None) in ("algebroid", "all"):
        # those suites contain the axiom check already
        gated = False
    try:
        if gated:
            a = doc.build_algebroid(check=False)
            pi = doc.build_poisson(check=False)
            _structure_gate(report, a, pi)
            if report.failed:
                _finish(report, args, out)
                return 1
        handler = _HANDLERS[args.command]
        handler(args, doc, report)
    except _Usage as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        report.add_check("computation", False, str(exc))
    _finish(report, args, out)
    return 1 if report.failed else 0


def _finish(report, args, out):
    if args.json:
        json.dump(report.to_json(), out, indent=2, sort_keys=False)
        print(file=out)
    else:
        report.print_text(out)


if __name__ == "__main__":
    sys.exit(main())
