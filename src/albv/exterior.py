"""Graded exterior algebra over a fixed global frame, with Poly coefficients.

Elements live on one of two mutually dual sides: side ``"A"`` (frame
``e_1..e_n``, multivector-like) or side ``"A*"`` (coframe ``eps_1..eps_n``,
form-like).  Components are stored sparsely on strictly increasing 0-based
index tuples, with zero coefficients dropped.

Sign conventions, pinned once and used everywhere downstream:

* wedge picks up the parity of the merge that sorts the concatenated index
  tuples;
* the pairing of basis monomials is the determinant of the degree-1 pairings,
  which on increasing tuples reduces to a Kronecker delta:
  ``<eps_I, e_J> = delta_IJ``;
* contraction is the adjoint of left wedge multiplication:
  ``pairing(omega, contract(theta, v)) = pairing(wedge(theta, omega), v)``
  for every test element ``omega``, and symmetrically when a multivector is
  contracted into a form;
* ``star(omega) = contract(omega, volume)`` and ``star_inv`` is its exact
  inverse; both are signed relabellings of the basis monomials.

Degree-0 elements are shared scalars; contraction by a degree-0 element is
multiplication.

Every element carries its true degree, and a zero element is no exception:
an operator that lands outside ``0..rank`` (a degree -1 bracket or operator
on functions, a contraction that overflows) returns the empty element of
that out-of-range degree, possibly negative.  Addition stays strict, so a
zero of one degree never absorbs or hides a summand of another.

An operator with many summands per output coefficient merges them with
``merge_terms`` into one term dict per index tuple and builds its result once
through ``elem_from_terms``: one Poly per coefficient and one element.

Input is validated once, where it enters.  A direct ``GradedElem(...)`` call,
and so every element read from a file or built by a caller, checks each
index tuple (``operator.index`` on each entry, length equal to the degree,
range, strict order) and each coefficient's variables.  Closed operations,
whose keys the package built itself, pass the private keyword
``_checked=True`` instead: ``elem_from_terms``, ``as_side``, the star
relabelling, ``GradedElem`` addition, negation and scaling, and
``randgen``; ``pairing`` builds its Poly the same way.  That path still
drops zero coefficients and sorts the components, so both paths build the
same element from the same components.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from operator import index, lt

from .poly import Poly, _coerce, merge_terms

__all__ = [
    "A_SIDE",
    "DUAL_SIDE",
    "GradedElem",
    "Volume",
    "as_side",
    "wedge",
    "pairing",
    "contract",
    "contract_or_zero",
    "star",
    "star_inv",
    "FrameAction",
    "frame_action",
    "frame_elem",
    "coframe_elem",
    "scalar_elem",
    "top_elem",
    "basis_tuples",
    "elem_from_terms",
    "shuffle_sign",
    "sort_with_sign",
]

A_SIDE = "A"
DUAL_SIDE = "A*"


def shuffle_sign(left, right) -> int:
    """Sign of sorting the concatenation of two disjoint increasing tuples."""
    inversions = 0
    for a in left:
        for b in right:
            if a > b:
                inversions += 1
    return -1 if inversions % 2 else 1


def sort_with_sign(indices):
    """Sort an index tuple, returning (sorted tuple, sign); sign 0 on repeats."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


def basis_tuples(rank, degree):
    """All strictly increasing index tuples of the given length, in lex order.

    There are none of negative length.
    """
    return list(combinations(range(rank), degree)) if degree >= 0 else []


class GradedElem:
    """A homogeneous element of the exterior algebra on one side.

    ``components`` maps strictly increasing index tuples of length ``degree``
    to Poly coefficients; zero coefficients are dropped.  An element is
    immutable after construction, and coefficient objects are shared between
    elements.
    """

    __slots__ = ("side", "degree", "rank", "variables", "components")

    def __init__(
        self, side, degree, rank, variables, components=None, *, _checked=False
    ):
        if side not in (A_SIDE, DUAL_SIDE):
            raise ValueError("unknown side %r" % (side,))
        self.side = side
        self.degree = int(degree)
        self.rank = int(rank)
        self.variables = tuple(variables)
        clean = {}
        if components and _checked:
            # a closed operation's keys are increasing index tuples in range
            # and its coefficients are Polys on these variables
            clean = {idx: coeff for idx, coeff in components.items() if coeff.terms}
        elif components:
            degree, rank, variables = self.degree, self.rank, self.variables
            # keys are distinct, so each coefficient is kept as given: closed
            # operations merge their terms before they get here
            for idx, coeff in components.items():
                idx = tuple(map(index, idx))
                if len(idx) != degree:
                    raise ValueError(
                        "index tuple %r has length %d, expected degree %d"
                        % (idx, len(idx), degree)
                    )
                if idx and (min(idx) < 0 or max(idx) >= rank):
                    raise ValueError("index tuple %r out of range" % (idx,))
                if degree > 1 and not all(map(lt, idx, idx[1:])):
                    raise ValueError("index tuple %r is not strictly increasing" % (idx,))
                if not isinstance(coeff, Poly):
                    coeff = Poly.constant(coeff, variables)
                if coeff.variables != variables:
                    raise ValueError(
                        "variable-list mismatch: %r vs %r" % (coeff.variables, variables)
                    )
                if coeff.terms:
                    clean[idx] = coeff
        self.components = dict(sorted(clean.items())) if len(clean) > 1 else clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, side, degree, rank, variables):
        return cls(side, degree, rank, variables)

    @property
    def is_zero(self):
        return not self.components

    def coefficient(self, idx) -> Poly:
        coeff = self.components.get(tuple(idx))
        return Poly.zero(self.variables) if coeff is None else coeff

    def scalar(self) -> Poly:
        """The coefficient of a degree-0 element."""
        if self.degree != 0:
            raise ValueError("element has degree %d, not 0" % self.degree)
        return self.coefficient(())

    # -- linear structure --------------------------------------------------

    def _check_compatible(self, other):
        if (
            self.side != other.side
            or self.degree != other.degree
            or self.rank != other.rank
            or self.variables != other.variables
        ):
            raise ValueError(
                "incompatible elements: side %s deg %d vs side %s deg %d"
                % (self.side, self.degree, other.side, other.degree)
            )

    def _merged(self, other, scale):
        """``self + scale * other``: a component of self alone is shared, one
        of other alone is scaled, and each common one is merged into one Poly."""
        if not isinstance(other, GradedElem):
            return NotImplemented
        self._check_compatible(other)
        comps = dict(self.components)
        for idx, coeff in other.components.items():
            mine = comps.get(idx)
            if mine is not None:
                merged = merge_terms(dict(mine.terms), coeff, scale)
                comps[idx] = Poly(self.variables, merged, _checked=True)
            else:
                comps[idx] = coeff if scale == 1 else coeff * scale
        return GradedElem(
            self.side, self.degree, self.rank, self.variables, comps, _checked=True
        )

    def __add__(self, other):
        return self._merged(other, 1)

    def __neg__(self):
        return GradedElem(
            self.side,
            self.degree,
            self.rank,
            self.variables,
            {i: -c for i, c in self.components.items()},
            _checked=True,
        )

    def __sub__(self, other):
        return self._merged(other, -1)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction, Poly)):
            return GradedElem(
                self.side,
                self.degree,
                self.rank,
                self.variables,
                {i: c * scalar for i, c in self.components.items()},
                _checked=True,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, GradedElem):
            return NotImplemented
        return (
            self.side == other.side
            and self.degree == other.degree
            and self.rank == other.rank
            and self.variables == other.variables
            and self.components == other.components
        )

    def __bool__(self):
        return bool(self.components)

    def __repr__(self):
        return "GradedElem(%s, deg=%d, %s)" % (self.side, self.degree, str(self))

    def __str__(self):
        if not self.components:
            return "0"
        sym = "e" if self.side == A_SIDE else "eps"
        chunks = []
        for idx, coeff in self.components.items():
            body = "^".join("%s%d" % (sym, i + 1) for i in idx) or "1"
            chunks.append("(%s)%s" % (coeff, " " + body if idx else ""))
        return " + ".join(chunks)

    # -- weight grading ----------------------------------------------------

    def max_coeff_degree(self) -> int:
        if self.is_zero:
            return -1
        return max(c.degree() for c in self.components.values())


@dataclass(frozen=True)
class Volume:
    """A nowhere-zero top section ``coeff * e_1 ^ ... ^ e_n`` (constant coeff)."""

    coeff: Fraction
    rank: int
    variables: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(_coerce(self.coeff)))
        object.__setattr__(self, "variables", tuple(self.variables))
        if self.coeff == 0:
            raise ValueError("volume coefficient must be nonzero")


# -- basis helpers ---------------------------------------------------------


def frame_elem(i, rank, variables) -> GradedElem:
    return GradedElem(A_SIDE, 1, rank, variables, {(i,): Poly.constant(1, variables)})


def coframe_elem(i, rank, variables) -> GradedElem:
    return GradedElem(DUAL_SIDE, 1, rank, variables, {(i,): Poly.constant(1, variables)})


def scalar_elem(poly, side, rank) -> GradedElem:
    if not isinstance(poly, Poly):
        raise TypeError("scalar_elem expects a Poly")
    return GradedElem(side, 0, rank, poly.variables, {(): poly})


def top_elem(rank, variables, side=A_SIDE, coeff=1) -> GradedElem:
    return GradedElem(
        side, rank, rank, variables, {tuple(range(rank)): Poly.constant(coeff, variables)}
    )


def elem_from_terms(side, degree, rank, variables, acc) -> GradedElem:
    """The element with one Poly per index tuple of ``acc``, built from that
    tuple's merged ``{exponent tuple: coefficient}`` dict; a tuple that got
    no terms builds nothing.  The keys are the caller's own, increasing
    index tuples and exponent tuples of the right width, so they are not
    checked again."""
    comps = {
        idx: Poly(variables, terms, _checked=True) for idx, terms in acc.items() if terms
    }
    return GradedElem(side, degree, rank, variables, comps, _checked=True)


def as_side(elem, side) -> GradedElem:
    """Reinterpret an element on the other side, keeping its components.

    Useful when an algebroid structure on the dual bundle is in play: the
    forms of the dual structure are exactly the multivectors of the original.
    """
    if side == elem.side:
        return elem
    return GradedElem(
        side, elem.degree, elem.rank, elem.variables, elem.components, _checked=True
    )


# -- multiplicative structure ---------------------------------------------


def wedge(u, v) -> GradedElem:
    """Exterior product of two elements on the same side."""
    if u.side != v.side:
        raise ValueError("wedge requires elements on the same side")
    if u.rank != v.rank or u.variables != v.variables:
        raise ValueError("wedge requires a shared frame")
    acc = {}
    for iu, cu in u.components.items():
        for iv, cv in v.components.items():
            if set(iu) & set(iv):
                continue
            target = tuple(sorted(iu + iv))
            merge_terms(acc.setdefault(target, {}), cu, shuffle_sign(iu, iv), cv)
    return elem_from_terms(u.side, u.degree + v.degree, u.rank, u.variables, acc)


def pairing(theta, u) -> Poly:
    """Determinant pairing of equal-degree elements on opposite sides."""
    if theta.side == u.side:
        raise ValueError("pairing requires elements on opposite sides")
    if theta.degree != u.degree:
        raise ValueError(
            "pairing requires equal degrees, got %d and %d" % (theta.degree, u.degree)
        )
    if theta.rank != u.rank or theta.variables != u.variables:
        raise ValueError("pairing requires a shared frame")
    terms = {}
    for idx, coeff in theta.components.items():
        other = u.components.get(idx)
        if other is not None:
            merge_terms(terms, coeff, 1, other)
    return Poly(u.variables, terms, _checked=True)


def contract(theta, v) -> GradedElem:
    """Contraction of ``theta`` into ``v`` (opposite sides, deg theta <= deg v).

    Defined by adjointness against the wedge:
    ``pairing(omega, contract(theta, v)) = pairing(wedge(theta, omega), v)``.
    On basis monomials this sends ``e_J`` to ``sign * e_{J minus I}`` where the
    sign sorts the concatenation of ``I`` and ``J minus I`` into ``J``.
    """
    if theta.side == v.side:
        raise ValueError("contraction requires elements on opposite sides")
    if theta.rank != v.rank or theta.variables != v.variables:
        raise ValueError("contraction requires a shared frame")
    if theta.degree > v.degree:
        raise ValueError(
            "degree overflow: cannot contract degree %d into degree %d"
            % (theta.degree, v.degree)
        )
    acc = {}
    for it, ct in theta.components.items():
        wanted = set(it)
        for iv, cv in v.components.items():
            if not wanted <= set(iv):
                continue
            rest = tuple(i for i in iv if i not in wanted)
            merge_terms(acc.setdefault(rest, {}), ct, shuffle_sign(it, rest), cv)
    return elem_from_terms(v.side, v.degree - theta.degree, v.rank, v.variables, acc)


def contract_or_zero(theta, v) -> GradedElem:
    """Like contract, but a degree overflow yields the zero of degree
    ``v.degree - theta.degree`` instead of an error."""
    if theta.degree > v.degree:
        return GradedElem.zero(v.side, v.degree - theta.degree, v.rank, v.variables)
    return contract(theta, v)


@cache
def _complement(rank, idx, inverse):
    """The complement J of the index tuple I in ``range(rank)`` and the sign
    that sorts I + J (J + I when ``inverse``), worked out once per key."""
    rest = tuple(i for i in range(rank) if i not in idx)
    return rest, shuffle_sign(rest, idx) if inverse else shuffle_sign(idx, rest)


def _relabel(elem, unit, inverse):
    """Send each component on I to the complement J of I, on the other side,
    with its coefficient times ``unit`` and the sign that sorts I + J (J + I
    when ``inverse``); a scale of 1 shares the coefficient."""
    if unit.denominator == 1:
        unit = unit.numerator  # keep integer coefficients in int arithmetic
    rank = elem.rank
    out = {}
    for idx, coeff in elem.components.items():
        rest, sign = _complement(rank, idx, inverse)
        scale = unit * sign
        out[rest] = coeff if scale == 1 else coeff * scale
    side = DUAL_SIDE if elem.side == A_SIDE else A_SIDE
    return GradedElem(side, rank - elem.degree, rank, elem.variables, out, _checked=True)


def star(omega, vol: Volume) -> GradedElem:
    """Contraction into the volume: an iso from degree k to codegree k.

    Contracting e_I into c e_1^...^e_n leaves the complement J of I with
    the sign that sorts I + J, times c.
    """
    if omega.rank != vol.rank or omega.variables != vol.variables:
        raise ValueError("star requires a shared frame")
    if omega.degree > vol.rank:
        raise ValueError(
            "degree overflow: cannot contract degree %d into degree %d"
            % (omega.degree, vol.rank)
        )
    return _relabel(omega, vol.coeff, False)


def star_inv(u, vol: Volume) -> GradedElem:
    """Exact inverse of ``star``: the unique omega with star(omega) == u."""
    if u.rank != vol.rank or u.variables != vol.variables:
        raise ValueError("star_inv requires a shared frame")
    return _relabel(u, 1 / vol.coeff, True)


# -- frame changes ---------------------------------------------------------


def _minor_det(minor, mat, rows, cols):
    """Laplace expansion of one minor along its first column, with the
    smaller minors read from ``minor``."""
    k = len(rows)
    if k == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(mat[rows[0]][cols[0]])
    total = Fraction(0)
    for pos, r in enumerate(rows):
        entry = mat[r][cols[0]]
        if entry == 0:
            continue
        sub_rows = rows[:pos] + rows[pos + 1 :]
        sign = -1 if pos % 2 else 1
        total += sign * Fraction(entry) * minor(sub_rows, cols[1:])
    return total


class FrameAction:
    """The transformation of rank-n elements under the constant frame
    automorphism ``g``; call it on an element.

    Degree-1 components on side A map by ``g``, and higher degrees by the
    induced exterior-power action (minor determinants of the matrix).  Side
    A* components map by the inverse transpose, so that every pairing is
    preserved, yet no inverse is formed: the star into the unit volume
    intertwines the two sides, and ``g`` sends the unit volume to ``det g``
    times itself, so the side A* action is the star conjugate of the side A
    action divided by ``det g``: the star into the unit volume, then the
    inverse star into ``det g`` times it.  A zero side A* element, whose
    degree may lie outside ``0..rank``, comes back unchanged.  ``matrix``
    is ``g`` as given, its entries ints, Fractions or literal strings; they
    are read once, and each minor is expanded once for all the elements the
    action moves.
    """

    def __init__(self, g, n):
        if len(g) != n or any(len(row) != n for row in g):
            raise ValueError("frame matrix must be %d x %d" % (n, n))
        self.matrix = g
        self.rank = n
        mat = [[_coerce(x) for x in row] for row in g]

        @cache
        def minor(rows, cols):
            return _minor_det(minor, mat, rows, cols)

        self._minor = minor

    def __call__(self, elem) -> GradedElem:
        n = self.rank
        if elem.rank != n:
            raise ValueError("frame matrix must be %d x %d" % (elem.rank, elem.rank))
        if elem.side == DUAL_SIDE:
            full = tuple(range(n))
            det = self._minor(full, full)
            if det == 0:
                raise ValueError("singular matrix")
            if elem.is_zero:
                return elem
            moved = self(star(elem, Volume(1, n, elem.variables)))
            return star_inv(moved, Volume(det, n, elem.variables))
        acc = {}
        for target in basis_tuples(n, elem.degree):
            terms = acc[target] = {}
            for idx, coeff in elem.components.items():
                m = self._minor(target, idx)
                if m != 0:
                    merge_terms(terms, coeff, m)
        return elem_from_terms(elem.side, elem.degree, n, elem.variables, acc)


def frame_action(g, n) -> FrameAction:
    """The ``FrameAction`` of the frame matrix ``g`` on rank-n elements.  An
    action already built is returned as it is, so every function that takes
    a frame matrix also takes its action, and one action per matrix serves
    all the elements a caller moves."""
    if isinstance(g, FrameAction):
        if g.rank != n:
            raise ValueError("frame matrix must be %d x %d" % (n, n))
        return g
    return FrameAction(g, n)
