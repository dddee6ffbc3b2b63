"""Lie algebroids over polynomial base rings, given by frame data.

A structure is specified by an anchor matrix ``a[i][mu]`` (the coefficients of
the image of the i-th frame section as a vector field on the base) and by
structure functions ``c[(i, j)][k]`` for ``i < j`` (the coefficients of the
bracket of the i-th and j-th frame sections).  All entries are exact-rational
polynomials; a rank-n structure over an empty variable list is an ordinary
rational Lie algebra.

``validate`` checks the two axioms on the frame: the anchor sends brackets of
frame sections to commutators of vector fields, and the Jacobi identity holds
on frame triples.  Both checks extend to arbitrary sections by bilinearity
and the Leibniz rule, so frame witnesses are conclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exterior import (
    A_SIDE,
    DUAL_SIDE,
    GradedElem,
    Volume,
    coframe_elem,
    contract,
    frame_elem,
    pairing,
    scalar_elem,
    top_elem,
    wedge,
)
from .linalg import mat_inv
from .poly import Poly, parse_poly

__all__ = [
    "LieAlgebroid",
    "ValidationReport",
    "PoissonStructure",
    "tangent_algebroid",
    "lie_algebra",
    "custom_algebroid",
    "cotangent_algebroid",
    "algebroid_from_differential",
    "triangular_dual_algebroid",
]


def _coerce_poly(value, variables) -> Poly:
    if isinstance(value, Poly):
        if value.variables != tuple(variables):
            raise ValueError(
                "variable-list mismatch: %r vs %r" % (value.variables, tuple(variables))
            )
        return value
    if isinstance(value, str):
        return parse_poly(value, variables)
    return Poly.constant(value, variables)


@dataclass
class ValidationReport:
    """Outcome of the frame-level structure checks, with 1-based witnesses."""

    ok: bool
    anchor_failures: list = field(default_factory=list)
    jacobi_failures: list = field(default_factory=list)

    def lines(self):
        out = []
        if self.ok:
            out.append("anchor compatibility: ok")
            out.append("jacobi identity: ok")
            return out
        if self.anchor_failures:
            out.append("anchor compatibility: FAILED")
            for rec in self.anchor_failures:
                out.append(
                    "  sections (%d, %d), base variable %s: residual %s"
                    % (rec["i"], rec["j"], rec["variable"], rec["residual"])
                )
        else:
            out.append("anchor compatibility: ok")
        if self.jacobi_failures:
            out.append("jacobi identity: FAILED")
            for rec in self.jacobi_failures:
                out.append(
                    "  sections (%d, %d, %d): residual %s"
                    % (rec["i"], rec["j"], rec["k"], rec["residual"])
                )
        else:
            out.append("jacobi identity: ok")
        return out

    def raise_if_failed(self, heading):
        """Raise ValueError with ``heading`` over the report lines unless ok."""
        if not self.ok:
            raise ValueError(heading + ":\n" + "\n".join(self.lines()))


class LieAlgebroid:
    """Frame presentation of a Lie algebroid over a polynomial base."""

    def __init__(self, variables, rank, anchor, structure):
        self.variables = tuple(variables)
        self.rank = int(rank)
        self._zero = Poly.zero(self.variables)  # shared by every structure_coeff miss
        m = len(self.variables)
        anchor = tuple(tuple(_coerce_poly(v, self.variables) for v in row) for row in anchor)
        if len(anchor) != self.rank or any(len(row) != m for row in anchor):
            raise ValueError(
                "anchor must be %d x %d, got %d rows" % (self.rank, m, len(anchor))
            )
        self.anchor = anchor
        clean = {}
        for key, comps in structure.items():
            i, j = key
            if not 0 <= i < j < self.rank:
                raise ValueError("structure key %r must satisfy 0 <= i < j < rank" % (key,))
            if isinstance(comps, dict):
                row = [self._zero] * self.rank
                for k, v in comps.items():
                    row[k] = _coerce_poly(v, self.variables)
                comps = row
            comps = tuple(_coerce_poly(v, self.variables) for v in comps)
            if len(comps) != self.rank:
                raise ValueError(
                    "structure entry %r must have %d components" % (key, self.rank)
                )
            if any(not c.is_zero for c in comps):
                clean[(i, j)] = comps
        self.structure = dict(sorted(clean.items()))

    # -- basic accessors ---------------------------------------------------

    @property
    def base_dim(self):
        return len(self.variables)

    def poly(self, text) -> Poly:
        return parse_poly(text, self.variables)

    def zero_poly(self) -> Poly:
        return Poly.zero(self.variables)

    def frame(self, i) -> GradedElem:
        return frame_elem(i, self.rank, self.variables)

    def coframe(self, i) -> GradedElem:
        return coframe_elem(i, self.rank, self.variables)

    def scalar(self, value, side=A_SIDE) -> GradedElem:
        return scalar_elem(_coerce_poly(value, self.variables), side, self.rank)

    def zero_elem(self, side, degree) -> GradedElem:
        return GradedElem.zero(side, degree, self.rank, self.variables)

    def top(self, side=A_SIDE, coeff=1) -> GradedElem:
        return top_elem(self.rank, self.variables, side, coeff)

    def volume(self, coeff=1) -> Volume:
        return Volume(Fraction(coeff), self.rank, self.variables)

    def structure_coeff(self, i, j, k) -> Poly:
        """Coefficient of the k-th frame section in the bracket of i and j."""
        entry = self.structure.get((min(i, j), max(i, j)))
        if entry is None:
            return self._zero
        return entry[k] if i < j else -entry[k]

    def bracket_frame(self, i, j) -> GradedElem:
        comps = {(k,): self.structure_coeff(i, j, k) for k in range(self.rank)}
        return GradedElem(A_SIDE, 1, self.rank, self.variables, comps)

    # -- anchor ------------------------------------------------------------

    def anchor_frame(self, i, f: Poly) -> Poly:
        """Apply the anchor image of the i-th frame section to a function."""
        out = None
        for mu, coeff in enumerate(self.anchor[i]):
            if not coeff.is_zero:
                term = coeff * f.partial(mu)
                out = term if out is None else out + term
        return self._zero if out is None else out

    def anchor_apply(self, x: GradedElem, f: Poly) -> Poly:
        if x.side != A_SIDE or x.degree != 1:
            raise ValueError("anchor_apply expects a degree-1 section")
        out = Poly.zero(self.variables)
        for (i,), coeff in x.components.items():
            out = out + coeff * self.anchor_frame(i, f)
        return out

    # -- bracket of sections ----------------------------------------------

    def bracket_sections(self, x: GradedElem, y: GradedElem) -> GradedElem:
        """Bracket of two degree-1 sections, with the Leibniz terms."""
        if x.side != A_SIDE or y.side != A_SIDE or x.degree != 1 or y.degree != 1:
            raise ValueError("bracket_sections expects degree-1 sections")
        out = self.zero_elem(A_SIDE, 1)
        for (i,), ci in x.components.items():
            for (j,), cj in y.components.items():
                if i != j:
                    out = out + ci * cj * self.bracket_frame(i, j)
        for (j,), cj in y.components.items():
            out = out + GradedElem(
                A_SIDE, 1, self.rank, self.variables, {(j,): self.anchor_apply(x, cj)}
            )
        for (i,), ci in x.components.items():
            out = out - GradedElem(
                A_SIDE, 1, self.rank, self.variables, {(i,): self.anchor_apply(y, ci)}
            )
        return out

    def jacobiator(self, x, y, z) -> GradedElem:
        bs = self.bracket_sections
        return bs(bs(x, y), z) + bs(bs(y, z), x) + bs(bs(z, x), y)

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidationReport:
        anchor_failures = []
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                for mu in range(self.base_dim):
                    lhs = Poly.zero(self.variables)
                    for k in range(self.rank):
                        c = self.structure_coeff(i, j, k)
                        if not c.is_zero:
                            lhs = lhs + c * self.anchor[k][mu]
                    rhs = self.anchor_frame(i, self.anchor[j][mu]) - self.anchor_frame(
                        j, self.anchor[i][mu]
                    )
                    residual = lhs - rhs
                    if not residual.is_zero:
                        anchor_failures.append(
                            {
                                "i": i + 1,
                                "j": j + 1,
                                "variable": self.variables[mu],
                                "residual": str(residual),
                            }
                        )
        jacobi_failures = []
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                for k in range(j + 1, self.rank):
                    res = self.jacobiator(self.frame(i), self.frame(j), self.frame(k))
                    if not res.is_zero:
                        jacobi_failures.append(
                            {
                                "i": i + 1,
                                "j": j + 1,
                                "k": k + 1,
                                "residual": str(res),
                            }
                        )
        ok = not anchor_failures and not jacobi_failures
        return ValidationReport(ok, anchor_failures, jacobi_failures)

    # -- frame change ------------------------------------------------------

    def frame_change(self, g) -> "LieAlgebroid":
        """Transport the structure through a constant invertible frame matrix.

        Components of sections transform by ``g``; the anchor and structure
        functions transform so that brackets and anchor images of transformed
        sections are the transforms of the originals.
        """
        n = self.rank
        mat = [[Fraction(x) for x in row] for row in g]
        ginv = mat_inv(mat)
        anchor = []
        for i in range(n):
            row = []
            for mu in range(self.base_dim):
                entry = Poly.zero(self.variables)
                for j in range(n):
                    if ginv[j][i]:
                        entry = entry + self.anchor[j][mu] * ginv[j][i]
                row.append(entry)
            anchor.append(tuple(row))
        structure = {}
        for i in range(n):
            for j in range(i + 1, n):
                mixed = [Poly.zero(self.variables) for _ in range(n)]
                for p in range(n):
                    for q in range(p + 1, n):
                        weight = ginv[p][i] * ginv[q][j] - ginv[q][i] * ginv[p][j]
                        if not weight:
                            continue
                        entry = self.structure.get((p, q))
                        if entry is None:
                            continue
                        for k in range(n):
                            if not entry[k].is_zero:
                                mixed[k] = mixed[k] + entry[k] * weight
                comps = []
                for l in range(n):
                    total = Poly.zero(self.variables)
                    for k in range(n):
                        if mat[l][k] and not mixed[k].is_zero:
                            total = total + mixed[k] * mat[l][k]
                    comps.append(total)
                structure[(i, j)] = tuple(comps)
        return LieAlgebroid(self.variables, n, anchor, structure)

    def __eq__(self, other):
        if not isinstance(other, LieAlgebroid):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.rank == other.rank
            and self.anchor == other.anchor
            and self.structure == other.structure
        )

    def __repr__(self):
        return "LieAlgebroid(rank=%d, base=%s, %d bracket entries)" % (
            self.rank,
            list(self.variables),
            len(self.structure),
        )


# -- factories -------------------------------------------------------------


def tangent_algebroid(variables) -> LieAlgebroid:
    """The tangent structure: identity anchor, vanishing brackets."""
    variables = tuple(variables)
    m = len(variables)
    anchor = [
        [Poly.constant(1 if mu == i else 0, variables) for mu in range(m)]
        for i in range(m)
    ]
    return LieAlgebroid(variables, m, anchor, {})


def lie_algebra(rank, brackets) -> LieAlgebroid:
    """A rational Lie algebra: empty base, constant structure coefficients."""
    return LieAlgebroid((), rank, [tuple() for _ in range(rank)], brackets)


def custom_algebroid(variables, rank, anchor, structure, check=True) -> LieAlgebroid:
    a = LieAlgebroid(variables, rank, anchor, structure)
    if check:
        a.validate().raise_if_failed("structure checks failed")
    return a


class PoissonStructure:
    """A bivector field with vanishing self-bracket, in coordinate components.

    ``components`` maps pairs ``(mu, nu)`` with ``mu < nu`` to the coefficient
    of the wedge of the mu-th and nu-th coordinate vector fields.
    """

    def __init__(self, variables, components, check=True):
        self.variables = tuple(variables)
        m = len(self.variables)
        clean = {}
        for (mu, nu), coeff in components.items():
            if not 0 <= mu < nu < m:
                raise ValueError("component key (%d, %d) out of range" % (mu, nu))
            coeff = _coerce_poly(coeff, self.variables)
            if not coeff.is_zero:
                clean[(mu, nu)] = coeff
        self.components = dict(sorted(clean.items()))
        self._elem = GradedElem(A_SIDE, 2, m, self.variables, self.components)
        if check:
            bad = self.jacobiator()
            if not bad.is_zero:
                raise ValueError(
                    "bivector does not self-commute; self-bracket is %s" % (bad,)
                )

    @property
    def base_dim(self):
        return len(self.variables)

    def matrix_entry(self, mu, nu) -> Poly:
        entry = self.components.get((min(mu, nu), max(mu, nu)))
        if entry is None:
            return Poly.zero(self.variables)
        return entry if mu < nu else -entry

    def as_elem(self) -> GradedElem:
        """The bivector as a degree-2 side A element, built once."""
        return self._elem

    def tangent(self) -> LieAlgebroid:
        return tangent_algebroid(self.variables)

    def jacobiator(self) -> GradedElem:
        from .calculus import schouten

        return schouten(self.tangent(), self.as_elem(), self.as_elem())

    def poisson_bracket(self, f: Poly, g: Poly) -> Poly:
        out = Poly.zero(self.variables)
        for mu in range(self.base_dim):
            for nu in range(self.base_dim):
                entry = self.matrix_entry(mu, nu)
                if not entry.is_zero:
                    out = out + entry * f.partial(mu) * g.partial(nu)
        return out

    def __repr__(self):
        return "PoissonStructure(%s)" % (self.as_elem(),)


def cotangent_algebroid(pi: PoissonStructure, check=True) -> LieAlgebroid:
    """The algebroid on coordinate one-forms induced by a bivector.

    The anchor matrix is the antisymmetric component matrix of the bivector,
    and the bracket of two coordinate coframe sections is the differential of
    the corresponding component.  The structure checks pass exactly when the
    bivector self-commutes, so this factory doubles as a Jacobi test when
    handed an unchecked bivector.
    """
    variables = pi.variables
    m = len(variables)
    anchor = [[pi.matrix_entry(mu, nu) for nu in range(m)] for mu in range(m)]
    structure = {
        key: tuple(coeff.partial(sigma) for sigma in range(m))
        for key, coeff in pi.components.items()
    }
    out = LieAlgebroid(variables, m, anchor, structure)
    if check:
        out.validate().raise_if_failed("cotangent structure checks failed")
    return out


def algebroid_from_differential(variables, rank, d_coords, d_coframe, check=True):
    """Reconstruct the structure from a differential given on generators.

    ``d_coords[mu]`` is the degree-1 form assigned to the mu-th coordinate and
    ``d_coframe[k]`` the degree-2 form assigned to the k-th coframe section.
    The anchor is read off the first list, the structure functions off the
    second, and when ``check`` is set the reconstructed operator is verified
    to square to zero on all generators by running the structure checks.
    """
    variables = tuple(variables)
    m = len(variables)
    d_coords = list(d_coords)
    d_coframe = list(d_coframe)
    if len(d_coords) != m or len(d_coframe) != rank:
        raise ValueError("need one form per coordinate and one per coframe section")
    anchor = []
    for i in range(rank):
        anchor.append(tuple(d_coords[mu].coefficient((i,)) for mu in range(m)))
    structure = {
        (i, j): tuple(-d_coframe[k].coefficient((i, j)) for k in range(rank))
        for i in range(rank)
        for j in range(i + 1, rank)
    }
    out = LieAlgebroid(variables, rank, anchor, structure)
    if check:
        out.validate().raise_if_failed("differential does not square to zero")
    return out


def triangular_dual_algebroid(a: LieAlgebroid, r: GradedElem, check=True):
    """Dual algebroid induced by a self-commuting degree-2 section.

    The anchor of the dual structure composes contraction into ``r`` with the
    original anchor, and the bracket of coframe sections is assembled from
    contractions against the original differential.
    """
    from .calculus import differential, schouten

    if r.side != A_SIDE or r.degree != 2:
        raise ValueError("expected a degree-2 section on side A")
    if check:
        self_bracket = schouten(a, r, r)
        if not self_bracket.is_zero:
            raise ValueError(
                "section does not self-commute; self-bracket is %s" % (self_bracket,)
            )
    n = a.rank
    variables = a.variables

    def sharp(xi):
        return contract(xi, r)

    anchor = []
    for i in range(n):
        image = sharp(a.coframe(i))
        row = [Poly.zero(variables) for _ in range(a.base_dim)]
        for (j,), coeff in image.components.items():
            for mu in range(a.base_dim):
                row[mu] = row[mu] + coeff * a.anchor[j][mu]
        anchor.append(tuple(row))
    def one_form_bracket(xi, eta):
        # contraction of each sharp image into the differential of the other
        # form, plus the differential of the pairing of the wedge with r
        term1 = contract(sharp(xi), differential(a, eta))
        term2 = contract(sharp(eta), differential(a, xi))
        paired = pairing(wedge(xi, eta), r)
        term3 = differential(a, scalar_elem(paired, DUAL_SIDE, n))
        return term1 - term2 + term3

    structure = {}
    for i in range(n):
        for j in range(i + 1, n):
            entry = one_form_bracket(a.coframe(i), a.coframe(j))
            structure[(i, j)] = tuple(entry.coefficient((k,)) for k in range(n))
    out = LieAlgebroid(variables, n, anchor, structure)
    if check:
        out.validate().raise_if_failed("dual structure checks failed")
    return out
