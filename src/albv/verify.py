"""Deterministic identity suites over a parsed problem file, and the report
every command prints.

Each suite draws seeded probes, evaluates the exact identities, and records
one result per identity.  The same seed always produces the same probes, the
same ordering, and hence byte-identical reports.  These functions back the
``verify`` command; the tests reach them through ``cli.main``.

A ``Report`` holds what a command prints: ``CheckResult`` lines, tables, the
modular sign and plain info lines.  ``structure_gate`` records the checks
every later line rests on, ``axioms`` and, with a bivector,
``bivector-self-commutes``; the command line gates its commands with it, and
the ``algebroid`` suite opens with it; ``record_modular`` records the two
modular checks for the ``modular`` command and the ``homology`` suite.  A
suite session is a ``Report``, so the suites record straight into it.

Most identities are laws: a local function draws one probe and returns the
identity's residual on it; ``_Session.law`` calls it once per probe and lists
each nonzero residual as ``"<tag> probe <n> residual <r>"``.  Other checks
build their failure list themselves.  ``CheckResult.of`` turns a list into the
result: pass when it is empty, else its first entry is the witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .albvfile import Document
from .bv import (
    TopConnection,
    connection_from_operator,
    curvature,
    divergence,
    generating_operator,
    operator_difference,
)
from .calculus import differential, schouten, schouten_oracle, bialgebroid_check
from .exterior import (
    A_SIDE,
    DUAL_SIDE,
    as_side,
    contract,
    contract_or_zero,
    frame_action,
    pairing,
    star,
    star_inv,
    wedge,
)
from .homology import (
    WALK_WEIGHT,
    boundary,
    duality_check,
    koszul_brylinski,
    modular_relation_check,
    star_conjugation_check,
    unimodular_duality_check,
)
from .randgen import (
    random_elem,
    random_flat_form,
    random_frame_matrix,
    random_section,
)

__all__ = [
    "CheckResult", "Report", "SUITES", "record_modular", "run_suites", "structure_gate"
]

SUITES = ("core", "algebroid", "bv", "homology", "all")


@dataclass
class CheckResult:
    """One check's outcome.  A skipped check tested nothing: its witness says
    why, it prints SKIP, and like a pass it does not fail the report."""

    name: str
    ok: bool
    witness: str | None = None
    skipped: bool = False

    @classmethod
    def of(cls, name, failures) -> "CheckResult":
        """Pass when ``failures`` is empty, else witness its first entry as text."""
        return cls(name, not failures, str(failures[0]) if failures else None)

    @classmethod
    def skip(cls, name, reason) -> "CheckResult":
        return cls(name, True, reason, skipped=True)

    @property
    def status(self) -> str:
        if self.skipped:
            return "skip"
        return "pass" if self.ok else "fail"

    def to_json(self):
        return {"name": self.name, "status": self.status, "witness": self.witness}

    def line(self) -> str:
        text = "%s: %s" % (self.name, self.status.upper())
        if self.witness:
            text += " (%s)" % self.witness
        return text


class Report:
    """What a command prints: checks as ``CheckResult``, in order; tables as
    objects with ``to_text``/``to_json``; the modular sign; info lines."""

    def __init__(self, command):
        self.command = command
        self.checks = []
        self.tables = []
        self.sign = None
        self.info = []

    def record(self, name, failures):
        self.checks.append(CheckResult.of(name, failures))

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


def structure_gate(report, a, pi):
    """Record ``axioms`` for the algebroid and, when there is a bivector,
    ``bivector-self-commutes``; returns the algebroid's ``ValidationReport``."""
    vreport = a.validate()
    report.record("axioms", vreport.failures)
    if pi is not None:
        bad = pi.jacobiator()
        report.record(
            "bivector-self-commutes", [] if bad.is_zero else ["self-bracket is %s" % bad]
        )
    return vreport


def record_modular(report, pi, probes=None):
    """Record ``modular-field-closed`` and ``modular-relation`` from one
    ``modular_relation_check`` of ``pi`` on ``probes``, and its sign when the
    probes fix one; returns the check's outcome."""
    outcome = modular_relation_check(pi, probes)
    report.record("modular-field-closed", outcome["closed_failures"])
    report.record("modular-relation", outcome["failures"])
    if outcome["sign"] is not None:
        report.sign = outcome["sign"]
    return outcome


class _Session(Report):
    def __init__(self, doc: Document, a, pi, trials, seed, max_deg):
        super().__init__("verify")
        self.doc = doc
        self.trials = trials
        self.seed = seed
        self.max_deg = max_deg
        self.algebroid = a
        self.poisson = pi
        self.connection = doc.build_connection(a)
        self.volume = doc.build_volume(a)

    def rng(self, label) -> random.Random:
        return random.Random("%s:%s" % (self.seed, label))

    def law(self, name, tag, residual, probes=None):
        """Record ``name`` from ``residual()`` on each of ``probes`` probes
        (``trials`` by default); every nonzero residual is a failure."""
        failures = []
        for pos in range(self.trials if probes is None else probes):
            r = residual()
            if not r.is_zero:
                failures.append("%s probe %d residual %s" % (tag, pos + 1, r))
        self.record(name, failures)

    def elems(self, rng, count, side=A_SIDE, degrees=None):
        a = self.algebroid
        out = []
        for _ in range(count):
            if degrees is None:
                deg = rng.randrange(a.rank + 1)
            else:
                deg = degrees[rng.randrange(len(degrees))]
            out.append(random_elem(rng, a, side, deg, self.max_deg))
        return out


# -- core: graded algebra of one frame ------------------------------------


def _suite_core(s: _Session):
    a = s.algebroid
    n = a.rank
    rng = s.rng("core")

    def symmetry():
        u = s.elems(rng, 1)[0]
        v = s.elems(rng, 1)[0]
        sign = -1 if (u.degree * v.degree) % 2 else 1
        return wedge(u, v) - sign * wedge(v, u)

    s.law("wedge-graded-symmetry", "symmetry", symmetry)

    def associativity():
        u, v, w = s.elems(rng, 3)
        return wedge(wedge(u, v), w) - wedge(u, wedge(v, w))

    s.law("wedge-associativity", "associativity", associativity)

    def adjunction():
        k = rng.randrange(n + 1)
        t = rng.randrange(k + 1)
        theta = s.elems(rng, 1, DUAL_SIDE, [t])[0]
        omega = s.elems(rng, 1, DUAL_SIDE, [k - t])[0]
        v = s.elems(rng, 1, A_SIDE, [k])[0]
        return pairing(omega, contract(theta, v)) - pairing(wedge(theta, omega), v)

    s.law("contraction-wedge-adjunction", "adjunction", adjunction)

    def square():
        theta = s.elems(rng, 1, DUAL_SIDE, [1])[0]
        v = s.elems(rng, 1, A_SIDE, [rng.randrange(2, n + 1)])[0]
        return contract(theta, contract(theta, v))

    s.law("interior-product-square", "square", square, s.trials if n >= 2 else 0)

    failures = []
    for pos in range(s.trials):
        u = s.elems(rng, 1)[0]
        omega = s.elems(rng, 1, DUAL_SIDE)[0]
        r1 = star(star_inv(u, s.volume), s.volume) - u
        r2 = star_inv(star(omega, s.volume), s.volume) - omega
        if not r1.is_zero or not r2.is_zero:
            failures.append("round trip probe %d" % (pos + 1))
    s.record("star-round-trip", failures)

    failures = []
    for pos in range(3):
        act = frame_action(random_frame_matrix(rng, n), n)
        for _ in range(max(s.trials // 3, 1)):
            k = rng.randrange(n + 1)
            theta = s.elems(rng, 1, DUAL_SIDE, [k])[0]
            u = s.elems(rng, 1, A_SIDE, [k])[0]
            residual = pairing(act(theta), act(u)) - pairing(theta, u)
            if not residual.is_zero:
                failures.append("frame %d residual %s" % (pos + 1, residual))
    s.record("frame-change-pairing-invariance", failures)


# -- algebroid: bracket and differential ----------------------------------


def _suite_algebroid(s: _Session):
    a = s.algebroid
    rng = s.rng("algebroid")

    structure_gate(s, a, s.poisson)

    def antisymmetry():
        u, v = s.elems(rng, 2)
        sign = -1 if ((u.degree - 1) * (v.degree - 1)) % 2 else 1
        return schouten(a, u, v) + sign * schouten(a, v, u)

    s.law("bracket-graded-antisymmetry", "antisymmetry", antisymmetry)

    def jacobi():
        u, v, w = s.elems(rng, 3)
        sign = -1 if ((u.degree - 1) * (v.degree - 1)) % 2 else 1
        return (
            schouten(a, u, schouten(a, v, w))
            - schouten(a, schouten(a, u, v), w)
            - sign * schouten(a, v, schouten(a, u, w))
        )

    s.law("bracket-graded-jacobi", "jacobi", jacobi)

    def derivation():
        u, v, w = s.elems(rng, 3)
        sign = -1 if ((u.degree - 1) * v.degree) % 2 else 1
        return (
            schouten(a, u, wedge(v, w))
            - wedge(schouten(a, u, v), w)
            - sign * wedge(v, schouten(a, u, w))
        )

    s.law("bracket-wedge-derivation", "derivation", derivation)

    def oracle():
        u, v = s.elems(rng, 2)
        return schouten(a, u, v) - schouten_oracle(a, u, v)

    s.law("bracket-oracle-agreement", "oracle", oracle)

    def square():
        omega = s.elems(rng, 1, DUAL_SIDE)[0]
        return differential(a, differential(a, omega))

    s.law("differential-squares-to-zero", "square", square)

    if s.poisson is not None and s.doc.kind == "tangent":
        dual = s.poisson.cotangent()
        pairs = [
            (random_section(rng, a, s.max_deg), random_section(rng, a, s.max_deg))
            for _ in range(s.trials)
        ]
        outcome = bialgebroid_check(a, dual, pairs)
        s.record("bialgebroid-derivation", outcome["failures"])


# -- bv: generating operators ---------------------------------------------


def _suite_bv(s: _Session):
    a = s.algebroid
    conn = s.connection
    rng = s.rng("bv")

    def generating():
        u, v = s.elems(rng, 2)
        sign = -1 if u.degree % 2 else 1
        bracket = schouten(a, u, v)
        expanded = (
            generating_operator(conn, wedge(u, v))
            - wedge(generating_operator(conn, u), v)
            - sign * wedge(u, generating_operator(conn, v))
        )
        return bracket - sign * expanded

    s.law("generating-property", "generating", generating)

    r = curvature(conn)

    def squared():
        u = s.elems(rng, 1)[0]
        twice = generating_operator(conn, generating_operator(conn, u))
        return twice + contract_or_zero(r, u)

    s.law("square-is-curvature-contraction", "curvature", squared)

    def contraction():
        theta = s.elems(rng, 1, DUAL_SIDE)[0]
        u = s.elems(rng, 1)[0]
        sign = -1 if theta.degree % 2 else 1
        lhs = contract_or_zero(theta, generating_operator(conn, u))
        rhs = (
            sign * generating_operator(conn, contract_or_zero(theta, u))
            + contract_or_zero(differential(a, theta), u)
        )
        return lhs - rhs

    s.law("operator-contraction-identity", "contraction", contraction)

    failures = []
    recovered = connection_from_operator(a, conn.operator())
    if recovered.alpha != conn.alpha:
        failures.append("recovered %s from %s" % (recovered.alpha, conn.alpha))
    for pos in range(5):
        flat = random_flat_form(rng, a, s.max_deg)
        other = TopConnection(a, flat)
        back = connection_from_operator(a, other.operator())
        if back.alpha != flat:
            failures.append("flat probe %d recovered %s" % (pos + 1, back.alpha))
    s.record("connection-operator-round-trip", failures)

    top = a.top()

    def divergence_law():
        x = random_section(rng, a, s.max_deg)
        lhs = schouten(a, x, top) - pairing(conn.alpha, x) * top
        return lhs - divergence(conn, x) * top

    s.law("divergence-identity", "divergence", divergence_law)

    flat = random_flat_form(rng, a, s.max_deg)
    shifted = TopConnection(a, conn.alpha + flat)
    probes = s.elems(rng, max(s.trials // 2, 4))
    outcome = operator_difference(a, shifted.operator(), conn.operator(), probes)
    failures = list(outcome["failures"])
    if outcome["alpha"] != -flat:
        failures.append("difference form %s, expected %s" % (outcome["alpha"], -flat))
    s.record("operator-difference-laws", failures)

    failures = []
    for pos in range(3):
        act = frame_action(random_frame_matrix(rng, a.rank), a.rank)
        moved = conn.frame_change(act)
        for _ in range(max(s.trials // 3, 1)):
            u = s.elems(rng, 1)[0]
            lhs = act(generating_operator(conn, u))
            rhs = generating_operator(moved, act(u))
            residual = lhs - rhs
            if not residual.is_zero:
                failures.append("frame %d residual %s" % (pos + 1, residual))
    s.record("operator-frame-naturality", failures)


# -- homology: boundaries and tables --------------------------------------


def _suite_homology(s: _Session):
    a = s.algebroid
    conn = s.connection
    rng = s.rng("homology")

    if curvature(conn).is_zero:
        s.law(
            "boundary-squares-to-zero",
            "square",
            lambda: boundary(conn, boundary(conn, s.elems(rng, 1)[0])),
        )

    outcome = star_conjugation_check(a, s.volume, s.elems(rng, s.trials // 2))
    s.record("star-conjugation", outcome["failures"])

    try:
        dual = duality_check(a, max_weight=WALK_WEIGHT)
    except ValueError as exc:
        s.record("homology-cohomology-duality", [str(exc)])
    else:
        s.record(
            "homology-cohomology-duality",
            ["entry %s" % mm for mm in dual["mismatches"]],
        )
        s.tables.append(dual["homology"])
        s.tables.append(dual["cohomology"])

    pi = s.poisson
    if pi is None:
        return

    # the Poisson checks act on base forms, drawn on the tangent algebroid
    # of the base, whatever algebroid the file holds
    t = pi.tangent()

    def form():
        return random_elem(rng, t, DUAL_SIDE, rng.randrange(t.rank + 1), s.max_deg)

    form_probes = [form() for _ in range(s.trials)]

    walk = iter(form_probes)
    s.law(
        "kb-squares-to-zero",
        "square",
        lambda: koszul_brylinski(pi, koszul_brylinski(pi, next(walk))),
        len(form_probes),
    )

    record_modular(s, pi, form_probes)

    cot = pi.cotangent()

    def kb_generating():
        w1 = form()
        w2 = form()
        sign = -1 if w1.degree % 2 else 1
        bracket = as_side(
            schouten(cot, as_side(w1, A_SIDE), as_side(w2, A_SIDE)), DUAL_SIDE
        )
        expanded = (
            koszul_brylinski(pi, wedge(w1, w2))
            - wedge(koszul_brylinski(pi, w1), w2)
            - sign * wedge(w1, koszul_brylinski(pi, w2))
        )
        return bracket - sign * expanded

    s.law("kb-generates-cotangent-bracket", "kb-generating", kb_generating)

    outcome = unimodular_duality_check(pi, max_weight=WALK_WEIGHT)
    if outcome["skipped"]:
        reason = "modular field %s" % outcome["modular_field"]
        s.checks.append(CheckResult.skip("unimodular-duality", reason))
    else:
        s.record(
            "unimodular-duality", ["entry %s" % mm for mm in outcome["mismatches"]]
        )
    s.tables.append(outcome["homology"])
    s.tables.append(outcome["cohomology"])


_SUITE_FUNCS = {
    "core": _suite_core,
    "algebroid": _suite_algebroid,
    "bv": _suite_bv,
    "homology": _suite_homology,
}


def run_suites(doc: Document, a, pi, suite="all", trials=20, seed=0, max_deg=2):
    """Run one or all suites on the algebroid ``a`` and bivector ``pi`` (or
    None) the command line built from ``doc``; returns (checks, sign, tables).

    ``checks`` are ``CheckResult`` objects and ``tables`` are ``BettiTable``
    objects, in report order.  A ValueError inside a suite is recorded as a
    failed ``computation`` check after the checks recorded so far, and no
    later suite runs.
    """
    if suite not in SUITES:
        raise ValueError("unknown suite %r" % suite)
    session = _Session(doc, a, pi, trials, seed, max_deg)
    names = [suite] if suite != "all" else ["core", "algebroid", "bv", "homology"]
    for name in names:
        try:
            _SUITE_FUNCS[name](session)
        except ValueError as exc:
            session.record("computation", [str(exc)])
            break
    return session.checks, session.sign, session.tables
