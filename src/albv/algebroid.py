"""Lie algebroids over polynomial base rings, given by frame data.

A structure is specified by an anchor matrix ``a[i][mu]`` (the coefficients of
the image of the i-th frame section as a vector field on the base) and by
structure functions ``c[(i, j)] = {k: value}`` for ``i < j`` (the
coefficients of the bracket of the i-th and j-th frame sections).  All entries
are exact-rational polynomials; a rank-n structure over an empty variable list
is an ordinary rational Lie algebra.

``validate`` checks the two axioms on the frame: the anchor sends brackets of
frame sections to commutators of vector fields, and the Jacobi identity holds
on frame triples.  Both checks extend to arbitrary sections by bilinearity
and the Leibniz rule, so frame witnesses are conclusive.

A structure is the same thing as a square-zero differential on the forms, so
every derived structure (the cotangent algebroid of a bivector, the dual of a
triangular structure, a frame change) states its differential on coordinates
and coframe sections, and ``algebroid_from_differential`` reads the anchor and
structure functions off those images.

``LieAlgebroid``, ``PoissonStructure`` and ``bv.TopConnection`` keep what
they fix in one memo, ``Memo.kept``: frame elements, volumes, the cotangent
algebroid and self-bracket of a bivector, the table rows of ``rows`` and the
modular field of ``homology``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from operator import index

from .exterior import (
    A_SIDE,
    DUAL_SIDE,
    GradedElem,
    Volume,
    as_side,
    coframe_elem,
    elem_from_terms,
    frame_action,
    frame_elem,
    scalar_elem,
    top_elem,
)
from .poly import Poly, _coerce, merge_terms, parse_poly

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

    def _groups(self):
        anchor = [
            "sections (%d, %d), base variable %s: residual %s"
            % (rec["i"], rec["j"], rec["variable"], rec["residual"])
            for rec in self.anchor_failures
        ]
        jacobi = [
            "sections (%d, %d, %d): residual %s"
            % (rec["i"], rec["j"], rec["k"], rec["residual"])
            for rec in self.jacobi_failures
        ]
        return (("anchor compatibility", anchor), ("jacobi identity", jacobi))

    @property
    def failures(self):
        """One readable line per failed frame check, anchor checks first."""
        return [line for _, lines in self._groups() for line in lines]

    def lines(self):
        out = []
        for check, failures in self._groups():
            out.append("%s: %s" % (check, "FAILED" if failures else "ok"))
            out.extend("  " + line for line in failures)
        return out

    def raise_if_failed(self, heading):
        """Raise ValueError with ``heading`` over the report lines unless ok."""
        if not self.ok:
            raise ValueError(heading + ":\n" + "\n".join(self.lines()))


class Memo:
    """A structure's memo of what it fixes; it goes when the structure goes."""

    def __init__(self):
        self._fixed = {}

    def kept(self, key, build):
        """The value stored under ``key``, from ``build()`` on the first
        request; kept values are immutable, so every caller shares it."""
        out = self._fixed.get(key)
        if out is None:
            out = self._fixed[key] = build()
        return out


class LieAlgebroid(Memo):
    """Frame presentation of a Lie algebroid over a polynomial base."""

    def __init__(self, variables, rank, anchor, structure):
        super().__init__()
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
        # per frame section, (mu, entry) for each nonzero anchor entry, with
        # None for an entry of constant 1, which needs no product
        unit = {(0,) * m: 1}
        self._anchor_rows = tuple(
            tuple((mu, None if c.terms == unit else c) for mu, c in enumerate(row) if c)
            for row in anchor
        )
        clean = {}
        for key, comps in structure.items():
            i, j = key
            if not 0 <= i < j < self.rank:
                raise ValueError("structure key %r must satisfy 0 <= i < j < rank" % (key,))
            row = [self._zero] * self.rank
            for k, v in comps.items():
                if k not in range(self.rank):
                    raise ValueError(
                        "structure entry %r: frame index %r outside 0..%d"
                        % (key, k, self.rank - 1)
                    )
                row[k] = _coerce_poly(v, self.variables)
            if any(not c.is_zero for c in row):
                clean[(i, j)] = tuple(row)
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
        i = index(i)
        return self.kept(
            ("frame", i), lambda: frame_elem(i, self.rank, self.variables)
        )

    def coframe(self, i) -> GradedElem:
        i = index(i)
        return self.kept(
            ("coframe", i), lambda: coframe_elem(i, self.rank, self.variables)
        )

    def scalar(self, value, side=A_SIDE) -> GradedElem:
        return scalar_elem(_coerce_poly(value, self.variables), side, self.rank)

    def zero_elem(self, side, degree) -> GradedElem:
        return GradedElem.zero(side, degree, self.rank, self.variables)

    def top(self) -> GradedElem:
        """The reference top section e_1 ^ ... ^ e_n."""
        return self.kept("top", lambda: top_elem(self.rank, self.variables))

    def volume(self, coeff=1) -> Volume:
        coeff = _coerce(coeff)
        return self.kept(
            ("volume", coeff), lambda: Volume(coeff, self.rank, self.variables)
        )

    def structure_coeff(self, i, j, k) -> Poly:
        """Coefficient of the k-th frame section in the bracket of i and j."""
        entry = self.structure.get((min(i, j), max(i, j)))
        if entry is None:
            return self._zero
        return entry[k] if i < j else -entry[k]

    def structure_row(self, i, j):
        """``(sign, row)``: the bracket of the i-th and j-th frame sections is
        ``sign * sum_k row[k] e_k``, with ``row`` the stored entry of the
        unordered pair, shared, not negated; empty when the bracket is 0."""
        if i < j:
            return 1, self.structure.get((i, j), ())
        return -1, self.structure.get((j, i), ())

    def bracket_frame(self, i, j) -> GradedElem:
        comps = {(k,): self.structure_coeff(i, j, k) for k in range(self.rank)}
        return GradedElem(A_SIDE, 1, self.rank, self.variables, comps)

    # -- anchor ------------------------------------------------------------

    def anchor_terms(self, terms, i, f: Poly, scale=1):
        """Add ``scale`` times the anchor image of the i-th frame section,
        applied to ``f``, into the term dict ``terms``; returns ``terms``."""
        for mu, entry in self._anchor_rows[i]:
            if entry is None:
                merge_terms(terms, f.partial(mu), scale)
            else:
                merge_terms(terms, entry, scale, f.partial(mu))
        return terms

    def anchor_frame(self, i, f: Poly) -> Poly:
        """Apply the anchor image of the i-th frame section to a function."""
        row = self._anchor_rows[i]
        if len(row) == 1 and row[0][1] is None:
            return f.partial(row[0][0])  # one unit entry: the partial itself
        return Poly(self.variables, self.anchor_terms({}, i, f), _checked=True)

    def anchor_apply(self, x: GradedElem, f: Poly) -> Poly:
        if x.side != A_SIDE or x.degree != 1:
            raise ValueError("anchor_apply expects a degree-1 section")
        terms = {}
        for (i,), coeff in x.components.items():
            merge_terms(terms, coeff, 1, self.anchor_frame(i, f))
        return Poly(self.variables, terms, _checked=True)

    # -- bracket of sections ----------------------------------------------

    def bracket_sections(self, x: GradedElem, y: GradedElem) -> GradedElem:
        """Bracket of two degree-1 sections, with the Leibniz terms."""
        if x.side != A_SIDE or y.side != A_SIDE or x.degree != 1 or y.degree != 1:
            raise ValueError("bracket_sections expects degree-1 sections")
        acc = {}
        for (i,), ci in x.components.items():
            for (j,), cj in y.components.items():
                sign, row = self.structure_row(i, j)
                if not row:
                    continue  # i == j, or the frame sections commute
                cij = ci * cj
                for k, c in enumerate(row):
                    if c:
                        merge_terms(acc.setdefault((k,), {}), cij, sign, c)
        for (j,), cj in y.components.items():
            merge_terms(acc.setdefault((j,), {}), self.anchor_apply(x, cj))
        for (i,), ci in x.components.items():
            merge_terms(acc.setdefault((i,), {}), self.anchor_apply(y, ci), -1)
        return elem_from_terms(A_SIDE, 1, self.rank, self.variables, acc)

    def jacobiator(self, x, y, z) -> GradedElem:
        bs = self.bracket_sections
        return bs(bs(x, y), z) + bs(bs(y, z), x) + bs(bs(z, x), y)

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidationReport:
        anchor_failures = []
        for i, j in combinations(range(self.rank), 2):
            _, row = self.structure_row(i, j)
            for mu, name in enumerate(self.variables):
                # anchor of the bracket minus the commutator of the anchors
                terms = {}
                for k, c in enumerate(row):
                    merge_terms(terms, c, 1, self.anchor[k][mu])
                self.anchor_terms(terms, i, self.anchor[j][mu], -1)
                self.anchor_terms(terms, j, self.anchor[i][mu])
                residual = Poly(self.variables, terms)
                if not residual.is_zero:
                    anchor_failures.append(
                        {
                            "i": i + 1,
                            "j": j + 1,
                            "variable": name,
                            "residual": str(residual),
                        }
                    )
        jacobi_failures = []
        for i, j, k in combinations(range(self.rank), 3):
            res = self.jacobiator(self.frame(i), self.frame(j), self.frame(k))
            if not res.is_zero:
                jacobi_failures.append(
                    {"i": i + 1, "j": j + 1, "k": k + 1, "residual": str(res)}
                )
        ok = not anchor_failures and not jacobi_failures
        return ValidationReport(ok, anchor_failures, jacobi_failures)

    # -- frame change ------------------------------------------------------

    def frame_change(self, g) -> "LieAlgebroid":
        """Transport the structure through a constant invertible frame matrix.

        Components of sections transform by ``g``, so the k-th new coframe
        section is row k of ``g`` in the old coframe.  The differential is
        the old one written in the new frame: its images of the coordinates
        and of those coframe sections, transformed by one ``frame_action``
        of ``g``, give the new anchor and structure functions.  ``g`` may be
        that action already.
        """
        from .calculus import differential

        act = frame_action(g, self.rank)

        def d(omega):
            return act(differential(self, omega))

        coframes = [
            GradedElem(
                DUAL_SIDE, 1, self.rank, self.variables,
                {(k,): entry for k, entry in enumerate(row)},
            )
            for row in act.matrix
        ]
        return algebroid_from_differential(
            self.variables,
            self.rank,
            [
                d(self.scalar(Poly.variable(x, self.variables), DUAL_SIDE))
                for x in self.variables
            ],
            [d(theta) for theta in coframes],
            check=False,
        )

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


def custom_algebroid(variables, rank, anchor, structure, check=True) -> LieAlgebroid:
    """The structure with the given anchor matrix and structure functions,
    validated when ``check`` is set.  The base structures are all built here."""
    a = LieAlgebroid(variables, rank, anchor, structure)
    if check:
        a.validate().raise_if_failed("structure checks failed")
    return a


def tangent_algebroid(variables) -> LieAlgebroid:
    """The tangent structure: identity anchor, vanishing brackets.  It is
    fixed by the variables, so it is built once per variable tuple and the
    one structure is shared by every caller."""
    return _tangent(tuple(variables))


@lru_cache(maxsize=64)
def _tangent(variables):
    m = len(variables)
    anchor = [[int(mu == i) for mu in range(m)] for i in range(m)]
    return custom_algebroid(variables, m, anchor, {}, check=False)


def lie_algebra(rank, brackets) -> LieAlgebroid:
    """A rational Lie algebra: empty base, constant structure coefficients."""
    return custom_algebroid((), rank, [()] * rank, brackets, check=False)


class PoissonStructure(Memo):
    """A bivector field with vanishing self-bracket, in coordinate components.

    ``components`` maps pairs ``(mu, nu)`` with ``mu < nu`` to the coefficient
    of the wedge of the mu-th and nu-th coordinate vector fields.
    """

    def __init__(self, variables, components, check=True):
        super().__init__()
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

    def as_elem(self) -> GradedElem:
        """The bivector as a degree-2 side A element, built once."""
        return self._elem

    def tangent(self) -> LieAlgebroid:
        return tangent_algebroid(self.variables)

    def cotangent(self) -> LieAlgebroid:
        """The cotangent algebroid of the bivector, built once and unchecked;
        ``cotangent_algebroid`` adds the structure checks."""
        return self.kept(
            "cotangent", lambda: _bivector_dual(self.tangent(), self._elem)
        )

    def jacobiator(self) -> GradedElem:
        """The self-bracket [pi, pi], computed once and kept."""
        from .calculus import schouten

        return self.kept(
            "self-bracket", lambda: schouten(self.tangent(), self._elem, self._elem)
        )

    def poisson_bracket(self, f: Poly, g: Poly) -> Poly:
        df = [f.partial(mu) for mu in range(self.base_dim)]
        dg = [g.partial(nu) for nu in range(self.base_dim)]
        terms = {}
        for (mu, nu), entry in self.components.items():
            merge_terms(terms, entry, 1, df[mu] * dg[nu])
            merge_terms(terms, entry, -1, df[nu] * dg[mu])
        return Poly(self.variables, terms)

    def __repr__(self):
        return "PoissonStructure(%s)" % (self.as_elem(),)


def _bivector_dual(a: LieAlgebroid, r: GradedElem) -> LieAlgebroid:
    """The structure on the dual of ``a`` with differential d_r = [r, -].

    Its forms are the multivectors of ``a``, so its coframe sections are the
    frame sections of ``a``; ``algebroid_from_differential`` reads the anchor
    and structure functions off the images of those and of the coordinates.
    """
    from .calculus import schouten

    def d(u):
        return as_side(schouten(a, r, u), DUAL_SIDE)

    return algebroid_from_differential(
        a.variables,
        a.rank,
        [d(a.scalar(Poly.variable(x, a.variables))) for x in a.variables],
        [d(a.frame(k)) for k in range(a.rank)],
        check=False,
    )


def cotangent_algebroid(pi: PoissonStructure, check=True) -> LieAlgebroid:
    """The algebroid on coordinate one-forms induced by a bivector.

    Its differential is d_pi = [pi, -] on the multivector fields.  On the
    coordinates it gives the anchor, the component matrix of the bivector;
    on the coordinate vector fields it gives the structure functions, so the
    bracket of two coordinate coframe sections is the differential of the
    corresponding component.  The structure checks pass exactly when the
    bivector self-commutes, so this factory doubles as a Jacobi test when
    handed an unchecked bivector.  The structure is built once per bivector
    and shared; ``check`` validates it only when the kept self-bracket
    ``pi.jacobiator()`` is nonzero, the one case in which the checks fail.
    """
    out = pi.cotangent()
    if check:
        if not pi.jacobiator().is_zero:
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
    d_coords = list(d_coords)
    d_coframe = list(d_coframe)
    if len(d_coords) != len(variables) or len(d_coframe) != rank:
        raise ValueError("need one form per coordinate and one per coframe section")
    anchor = [[form.coefficient((i,)) for form in d_coords] for i in range(rank)]
    structure = {
        (i, j): {k: -d_coframe[k].coefficient((i, j)) for k in range(rank)}
        for i in range(rank)
        for j in range(i + 1, rank)
    }
    out = LieAlgebroid(variables, rank, anchor, structure)
    if check:
        out.validate().raise_if_failed("differential does not square to zero")
    return out


def triangular_dual_algebroid(a: LieAlgebroid, r: GradedElem, check=True):
    """Dual algebroid induced by a self-commuting degree-2 section.

    Its differential is d_r = [r, -] on the multivectors of ``a``; its
    images of the coordinates and of the frame sections of ``a`` give the
    dual anchor and structure functions.
    """
    from .calculus import schouten

    if r.side != A_SIDE or r.degree != 2:
        raise ValueError("expected a degree-2 section on side A")
    if check:
        self_bracket = schouten(a, r, r)
        if not self_bracket.is_zero:
            raise ValueError(
                "section does not self-commute; self-bracket is %s" % (self_bracket,)
            )
    out = _bivector_dual(a, r)
    if check:
        out.validate().raise_if_failed("dual structure checks failed")
    return out
