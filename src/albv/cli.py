"""Command line front end.

Subcommands: ``validate``, ``cohomology``, ``homology``, ``modular``,
``star`` and ``verify``, each taking an .albv file.  Usage errors and table
sizes are decided from the parsed file, before anything is built; ``main``
then builds the file's algebroid and bivector once, for the structure gate,
the handler and ``verify``'s suites.  The gate is ``verify.structure_gate``;
it opens every command but ``validate``, which prints its report, and
``verify --suite algebroid|all``, whose algebroid suite opens with it;
``--no-validate`` skips it.  Exit status is 0 when every reported check
passes, 1 when any check fails, and 2 for usage or parse problems (a
``--trials`` above ``MAX_TRIALS`` and a ``star --degree`` with more than
``MAX_STAR_IMAGES`` images among them) and for a table above
``homology.MAX_BLOCK_SIZE``, ``verify``'s duality tables at
``verify.TABLE_WEIGHT`` included.  Every command prints one ``verify.Report``:
with ``--json`` a single JSON object with the keys ``command``, ``checks``,
``tables`` and ``sign_s``, without it the same content as plain lines.
Output is deterministic for a fixed file and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache
from math import comb

from .albvfile import Document, DocumentError
from .exterior import DUAL_SIDE, GradedElem, basis_tuples, star
from .homology import (
    Complex,
    TableTooLarge,
    boundary_betti,
    cohomology_betti,
    kb_betti,
    modular_relation_check,
)
from .bv import curvature
from .poly import Poly
from .verify import SUITES, TABLE_WEIGHT, Report, run_suites, structure_gate

__all__ = ["main", "build_parser"]


# probes per identity in ``verify``, whose run time grows linearly with them
MAX_TRIALS = 500
# images ``star`` prints, C(rank, degree), each one line of output
MAX_STAR_IMAGES = 10_000


def _bounded_int(minimum, maximum=None):
    """An argparse type: an integer no smaller than ``minimum`` and, when
    ``maximum`` is given, no larger than it."""

    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                "must be at least %d, got %d" % (minimum, value)
            )
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(
                "must be at most %d, got %d" % (maximum, value)
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
    p.add_argument("--max-weight", type=_bounded_int(0), default=4)

    p = sub.add_parser("homology", parents=[common], help="boundary Betti table")
    p.add_argument(
        "--kb", action="store_true", help="use the bivector operator on base forms"
    )
    p.add_argument("--max-weight", type=_bounded_int(0), default=4)

    sub.add_parser(
        "modular", parents=[common], help="modular field and the sign of the relation"
    )

    p = sub.add_parser(
        "star", parents=[common], help="star images of the degree-K coframe basis"
    )
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("verify", parents=[common], help="seeded identity suites")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument(
        "--trials",
        type=_bounded_int(1, MAX_TRIALS),
        default=20,
        help="probes per identity, 1 to %d (default 20)" % MAX_TRIALS,
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-deg", type=_bounded_int(0), default=2)
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


def _check_file(args, doc):
    """Refuse, from the parsed file alone, a command the file cannot serve,
    a ``star`` with more than ``MAX_STAR_IMAGES`` images, or a table whose
    largest slice is above the block limit: before the structure gate,
    whose cost grows with the cube of the rank.  Each table
    the command prints is counted by building its ``Complex``.  ``verify``'s
    tables are its duality tables at ``TABLE_WEIGHT``, the Poisson one on
    base forms; they are counted before any suite draws a probe, as the
    draws grow with the same binomials."""
    kb = getattr(args, "kb", False)
    if doc.poisson is None and (kb or args.command == "modular"):
        command = "homology --kb" if kb else "modular"
        raise _Usage("%s needs a [poisson] section" % command)
    if args.command == "star":
        if not 0 <= args.degree <= doc.rank:
            raise _Usage("--degree must lie between 0 and %d" % doc.rank)
        images = comb(doc.rank, args.degree)
        if images > MAX_STAR_IMAGES:
            raise _Usage(
                "star --degree %d has %d images, above the limit of %d"
                % (args.degree, images, MAX_STAR_IMAGES)
            )
    m = len(doc.base_vars)
    shapes = []
    if args.command in ("cohomology", "homology"):
        shapes.append((m if kb else doc.rank, args.max_weight))
    if args.command == "verify":
        shapes.append((doc.rank, TABLE_WEIGHT))
        if doc.poisson is not None:
            shapes.append((m, TABLE_WEIGHT))
    for rank, weight in shapes:
        Complex(doc.base_vars, rank, weight)


def _cmd_validate(args, doc, report, a, pi):
    report.info.extend(structure_gate(report, a, pi).lines())


def _cmd_cohomology(args, doc, report, a, pi):
    report.tables.append(cohomology_betti(a, args.max_weight))


def _cmd_homology(args, doc, report, a, pi):
    if args.kb:
        report.tables.append(kb_betti(pi, args.max_weight))
        return
    conn = doc.build_connection(a)
    r = curvature(conn)
    report.record("flat-connection", [] if r.is_zero else ["curvature %s" % r])
    if r.is_zero:
        report.tables.append(boundary_betti(conn, args.max_weight))


def _cmd_modular(args, doc, report, a, pi):
    outcome = modular_relation_check(pi)
    report.info.append("modular field: %s" % outcome["modular_field"])
    report.record("modular-field-closed", outcome["closed_failures"])
    report.record("modular-relation", outcome["failures"])
    report.sign = outcome["sign"]


def _cmd_star(args, doc, report, a, pi):
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


def _cmd_verify(args, doc, report, a, pi):
    checks, report.sign, tables = run_suites(
        doc, a, pi, args.suite, args.trials, args.seed, args.max_deg
    )
    report.checks.extend(checks)
    report.tables.extend(tables)


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


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = args.command
    report = Report(command)
    try:
        doc = Document.load(args.file)
    except (DocumentError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    kb = getattr(args, "kb", False)
    gated = command in _GATED and not args.no_validate
    # verify's algebroid suite opens with the same gate
    gated = gated and getattr(args, "suite", None) not in ("algebroid", "all")
    try:
        _check_file(args, doc)
        # one build of each structure the gate, the handler or the suites read
        a = pi = None
        if gated or command != "modular":
            a = doc.build_algebroid(check=False)
        if gated or command in ("validate", "modular", "verify") or kb:
            pi = doc.build_poisson(check=False)
        if gated:
            structure_gate(report, a, pi)
        if not report.failed:
            _HANDLERS[command](args, doc, report, a, pi)
    except (_Usage, TableTooLarge) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        report.record("computation", [str(exc)])
    if args.json:
        json.dump(report.to_json(), sys.stdout, indent=2, sort_keys=False)
        print()
    else:
        report.print_text(sys.stdout)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
