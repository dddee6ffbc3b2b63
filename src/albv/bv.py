"""Generating operators for the graded bracket, from connection data.

A ``TopConnection`` stores the connection form of a flat-or-not connection on
the top exterior power, relative to the reference top section with unit
coefficient.  Its chain boundary is a degree -1 operator on side A elements,
computed by conjugating the differential (twisted by the connection form)
with the contraction into the reference volume; this is the one place where
the sign is set.  The generating operator is the boundary up to the sign of
the complementary degree.  The bracket deficit of that operator recovers the
graded bracket, and its square is controlled by the curvature, which is just
the differential of the connection form.

``AConnectionOnA`` stores Christoffel data for a connection on the bundle
itself; when torsion-free it induces the same kind of operator through a
frame-wise contraction formula, and its trace induces a ``TopConnection``.
"""

from __future__ import annotations

from .algebroid import LieAlgebroid, _coerce_poly
from .calculus import differential
from .exterior import (
    A_SIDE,
    DUAL_SIDE,
    GradedElem,
    Volume,
    contract_or_zero,
    frame_change_elem,
    sort_with_sign,
    star,
    star_inv,
    wedge,
)
from .poly import Poly

__all__ = [
    "TopConnection",
    "boundary",
    "generating_operator",
    "curvature",
    "connection_from_operator",
    "divergence",
    "operator_difference",
    "AConnectionOnA",
    "torsion_free_generator",
]


class TopConnection:
    """Connection on the top exterior power, as a degree-1 connection form."""

    def __init__(self, algebroid: LieAlgebroid, alpha: GradedElem | None = None):
        self.algebroid = algebroid
        if alpha is None:
            alpha = algebroid.zero_elem(DUAL_SIDE, 1)
        if alpha.side != DUAL_SIDE or alpha.degree != 1:
            raise ValueError("connection form must be a degree-1 side A* element")
        if alpha.rank != algebroid.rank or alpha.variables != algebroid.variables:
            raise ValueError("connection form does not live on this structure")
        self.alpha = alpha

    def reference_volume(self) -> Volume:
        return self.algebroid.volume(1)

    def operator(self):
        return lambda u: generating_operator(self, u)

    def frame_change(self, g) -> "TopConnection":
        return TopConnection(
            self.algebroid.frame_change(g), frame_change_elem(g, self.alpha)
        )

    def __repr__(self):
        return "TopConnection(alpha=%s)" % (self.alpha,)


def boundary(conn: TopConnection, u: GradedElem) -> GradedElem:
    """Chain boundary of a top connection: ``-star((d + alpha^) star_inv(u))``.

    The element is carried to the complementary degree by the inverse volume
    contraction, hit with the twisted differential, and carried back.
    Degree-0 elements map to zero because the twisted differential lands
    above the top degree, and above the top degree only zero lives.
    """
    a = conn.algebroid
    if u.side != A_SIDE:
        raise ValueError("generating operator acts on side A elements")
    if not 0 < u.degree <= a.rank:
        return a.zero_elem(A_SIDE, u.degree - 1)
    vol = conn.reference_volume()
    omega = star_inv(u, vol)
    return -star(differential(a, omega) + wedge(conn.alpha, omega), vol)


def generating_operator(conn: TopConnection, u: GradedElem) -> GradedElem:
    """Degree -1 operator attached to a top connection.

    It is the boundary up to the sign of the complementary degree.
    """
    du = boundary(conn, u)
    codeg = conn.algebroid.rank - u.degree
    return -du if codeg % 2 else du


def curvature(conn: TopConnection) -> GradedElem:
    """Degree-2 form controlling the square of the generating operator.

    The square of the operator on any element equals minus the contraction of
    this form into the element.
    """
    return differential(conn.algebroid, conn.alpha)


def divergence(conn: TopConnection, x: GradedElem) -> Poly:
    """Scalar image of a degree-1 section under the generating operator."""
    if x.degree != 1:
        raise ValueError("divergence expects a degree-1 section")
    return generating_operator(conn, x).scalar()


def connection_from_operator(a: LieAlgebroid, op) -> TopConnection:
    """Recover the connection form from a degree -1 operator.

    Reads the operator on the reference top section: wedging the i-th frame
    section back in isolates one coefficient of the form, up to sign.
    """
    n = a.rank
    full = tuple(range(n))
    image = op(a.top())
    comps = {}
    for i in range(n):
        p = wedge(a.frame(i), image).coefficient(full)
        if not p.is_zero:
            comps[(i,)] = -p
    alpha = GradedElem(DUAL_SIDE, 1, n, a.variables, comps)
    return TopConnection(a, alpha)


def operator_difference(a: LieAlgebroid, op1, op2, probes=None):
    """Compare two degree -1 operators and certify their deficit form.

    The difference on frame sections determines a candidate degree-1 form;
    the report then checks, on every probe, that the difference acts as
    contraction by that form and that the squares differ by minus the
    contraction with its differential.
    """
    n = a.rank
    comps = {}
    for i in range(n):
        delta = op1(a.frame(i)) - op2(a.frame(i))
        val = delta.scalar()
        if not val.is_zero:
            comps[(i,)] = val
    alpha = GradedElem(DUAL_SIDE, 1, n, a.variables, comps)
    d_alpha = differential(a, alpha)
    failures = []
    for pos, probe in enumerate(probes or []):
        label = "probe %d (degree %d)" % (pos + 1, probe.degree)
        delta = op1(probe) - op2(probe)
        expected = contract_or_zero(alpha, probe)
        if delta != expected:
            failures.append(
                {"probe": label, "law": "difference", "residual": str(delta - expected)}
            )
        squares = op2(op2(probe)) - op1(op1(probe))
        expected_sq = -contract_or_zero(d_alpha, probe)
        if squares != expected_sq:
            failures.append(
                {
                    "probe": label,
                    "law": "square",
                    "residual": str(squares - expected_sq),
                }
            )
    return {"alpha": alpha, "ok": not failures, "failures": failures}


class AConnectionOnA:
    """Connection on the bundle itself, as Christoffel data on the frame.

    ``gamma[i][j][k]`` is the coefficient of the k-th frame section in the
    derivative of the j-th along the i-th.  The derivative extends to both
    sides as a degree-0 derivation, with the dual sign on coframe sections so
    that pairings are differentiated by the anchor.
    """

    def __init__(self, algebroid: LieAlgebroid, gamma):
        self.algebroid = algebroid
        n = algebroid.rank
        rows = []
        for i in range(n):
            cols = []
            for j in range(n):
                cols.append(
                    tuple(
                        _coerce_poly(gamma[i][j][k], algebroid.variables)
                        for k in range(n)
                    )
                )
            rows.append(tuple(cols))
        if len(rows) != n:
            raise ValueError("gamma must be %d x %d x %d" % (n, n, n))
        self.gamma = tuple(rows)

    def nabla_frame(self, i, j) -> GradedElem:
        a = self.algebroid
        comps = {}
        for k in range(a.rank):
            c = self.gamma[i][j][k]
            if not c.is_zero:
                comps[(k,)] = c
        return GradedElem(A_SIDE, 1, a.rank, a.variables, comps)

    def nabla_coframe(self, i, j) -> GradedElem:
        a = self.algebroid
        comps = {}
        for l in range(a.rank):
            c = self.gamma[i][l][j]
            if not c.is_zero:
                comps[(l,)] = -c
        return GradedElem(DUAL_SIDE, 1, a.rank, a.variables, comps)

    def derive(self, i, w: GradedElem) -> GradedElem:
        """Covariant derivative along the i-th frame section, either side."""
        a = self.algebroid
        out = a.zero_elem(w.side, w.degree)
        for idx, coeff in w.components.items():
            lead = a.anchor_frame(i, coeff)
            if not lead.is_zero:
                out = out + GradedElem(w.side, w.degree, a.rank, a.variables, {idx: lead})
            for pos in range(len(idx)):
                if w.side == A_SIDE:
                    repl = self.nabla_frame(i, idx[pos])
                else:
                    repl = self.nabla_coframe(i, idx[pos])
                for (r,), rc in repl.components.items():
                    spliced = idx[:pos] + (r,) + idx[pos + 1 :]
                    sorted_idx, s = sort_with_sign(spliced)
                    if s == 0:
                        continue
                    out = out + GradedElem(
                        w.side,
                        w.degree,
                        a.rank,
                        a.variables,
                        {sorted_idx: (s * rc) * coeff},
                    )
        return out

    def torsion(self, i, j) -> GradedElem:
        a = self.algebroid
        return self.nabla_frame(i, j) - self.nabla_frame(j, i) - a.bracket_frame(i, j)

    def torsion_failures(self):
        a = self.algebroid
        failures = []
        for i in range(a.rank):
            for j in range(i + 1, a.rank):
                t = self.torsion(i, j)
                if not t.is_zero:
                    failures.append({"i": i + 1, "j": j + 1, "residual": str(t)})
        return failures

    def is_torsion_free(self) -> bool:
        return not self.torsion_failures()

    def induced_top_connection(self) -> TopConnection:
        """Trace of the Christoffel data, as a connection form on the top power."""
        a = self.algebroid
        comps = {}
        for i in range(a.rank):
            total = Poly.zero(a.variables)
            for j in range(a.rank):
                total = total + self.gamma[i][j][j]
            if not total.is_zero:
                comps[(i,)] = total
        return TopConnection(a, GradedElem(DUAL_SIDE, 1, a.rank, a.variables, comps))


def torsion_free_generator(conn: AConnectionOnA, u: GradedElem) -> GradedElem:
    """Frame-wise contraction formula for the operator of a torsion-free connection.

    Sums minus the contraction of each coframe section into the covariant
    derivative along the matching frame section.  Agrees with the operator of
    the induced top connection exactly when the torsion vanishes.
    """
    a = conn.algebroid
    if u.side != A_SIDE:
        raise ValueError("torsion_free_generator acts on side A elements")
    out = a.zero_elem(A_SIDE, u.degree - 1)
    for i in range(a.rank):
        out = out - contract_or_zero(a.coframe(i), conn.derive(i, u))
    return out
