"""Weight-graded chain complexes, Betti tables, and the Poisson operators.

The weight of a monomial section is the total degree of its polynomial
coefficient.  Table entry (k, w) is the homology at a weight window of
exterior degree k.  The window is ``(w,)`` when the operator is
weight-homogeneous of a single shift s, and ``range(w + 1)`` when the table is
capped: an operator whose weight shifts are mixed but all nonpositive still
preserves the finite subcomplex of weight at most w, and any table may be
capped on request.  The operator maps the window of (k, w) into the window of
(k + k_step, w + lift), where the lift is s, or 0 when capped.  Operators
that raise weight admit no finite truncation and are refused.  A table is
given by a row function: ``row(idx, expo)`` returns the image of one basis
monomial as a sparse dict ``{(index tuple, exponent tuple): coefficient}``.
It is asked at most once per basis monomial.  Ranks are exact.  An
operator of one shift s maps weight v into weight v + s alone, so its matrix
out of any window is block-diagonal over the window's weights: each weight
slice is an elimination of its own, ranked once.  A mixed-shift matrix is
only block-triangular, and each degree is one elimination, fed weight by
weight (below).  ``_blocks`` lists these eliminations, the one list both
the ranking and the size bound read.  A slice hands ``linalg.rank`` one
dense row per nonzero image; zero images add no rank and are not handed
over, and a slice of zero images alone takes no rank.  The shifts are read
off the rows through weight ``max(max_weight, 1)`` over a nonempty base:
every table operator is first order, so each of its shifts shows by weight
1, while at weight 0 alone d of a constant is 0 and a shift -1 does not
show.

Every table operator is first order in the coefficient, so its square has
order at most 2, and it vanishes if and only if it vanishes on the basis
monomials of weight at most 2.  A table checks exactly that before any rank,
and refuses a nonzero square with a witness: the first basis monomial, in
table order, whose image's image is nonzero, and that image.  Every table is
then ranked by one loop, ``_Operator.entries``, in filtration order
(Edelsbrunner, Letscher and Zomorodian, *Topological persistence and
simplification*, 2002) with clearing (Chen and Kerber, *Persistent homology
computation with a twist*, 2011; Bauer, Kerber and Reininghaus, *Clear and
compress*, 2014): the rows of each elimination, fed weight by weight, give
the rank out of window (k, w) as its pivot count after weight w, and the map
out of a degree is ranked after the map into it, without the rows of the
basis monomials at that map's pivot columns, which span images.  A capped
table of one shift s is read off the homogeneous table at ``max_weight +
s``, which ranks exactly the slices up to ``max_weight``: the slice ranks
come back down each diagonal from its entries, and the capped entries are
their prefix sums.

A structure that is a product of structures on disjoint frames and base
variables (Mackenzie, *General theory of Lie groupoids and Lie algebroids*,
2005) has the tensor product of the factor complexes as its complex; the
four tables below read that split off the structure (``rows``) and, when
the table has one shift and every factor squares to zero, convolve the
factor tables by Kunneth over Q, slice by slice:
b(k, w) = sum of b1(k1, w1) b2(k2, w2) over k1 + k2 = k and w1 + w2 = w;
a capped table is read off that convolution.  Tangent n-space is the
product of n lines.  Both Poisson tables read the split of the cotangent
algebroid (``rows`` says why the Koszul-Brylinski operator splits with it).
A table of mixed shifts is ranked on the product's own rows, and a factor
whose square is nonzero refuses the table with the product's witness.

A ``Complex`` is a table's shape, ``(variables, rank, max_weight)``, and
owns what the shape fixes: the basis of each degree and weight, each block's
index map (both in bounded caches keyed by shape, shared by every complex of
that shape), and each block's size.  ``Complex.block_size`` is the one count:
binomials in the middle exterior degree, the degree with the most index
tuples, which bounds both sides of a block; above ``MAX_BLOCK_SIZE`` basis
monomials it raises ``TableTooLarge``, as a complex does whose weights over
a nonempty base run above ``MAX_WEIGHT``.  A complex counts the largest slice
its shift scan builds when built, and ``Complex.count`` the sources of every
block ``_blocks`` lists for a table of given weight shifts, the blocks the
table ranks, so the count cannot drift from the ranking: the table counts
from the shifts of its rows (the union of its factors' shifts, on the
product's shape, when it splits), the command line from those of the file's
terms, so it refuses a table from the file alone.  The blocks of a split
table's factors are never larger than the product's, and are not counted on
their own.
``betti_table`` is ``Complex(...).table``.
``Complex.basis_elems`` walks every basis monomial of the shape, the default
probes of two checks below at ``WALK_WEIGHT``, which is also the weight of
``verify``'s duality tables: the command line counts walks and tables alike.

The four tables take their row functions from ``rows``, compiled from
generator data and kept in the memo of the structure that fixes them; the
operators defined or re-exported here stay as the route the checks use and
as the oracle of those rows.  Nothing but the shape's caches, and the rows
and split kept on the structure, outlives a table, and a table leaves no
reference cycle.

Also here: the star-conjugation check of the boundary (defined in ``bv``
and re-exported here), the Koszul-Brylinski operator on base forms, the
modular vector field and the modular relation with its recorded global sign,
the homology-versus-cohomology duality checks, the anticommutator defect
experiment, and the connection-homotopy comparison.  The modular relation and
the anticommutator defect both read one global sign off their probes, and
both read it through ``_uniform_sign``.  The modular field is computed here
only and kept on the bivector, so every check reads one computation;
``modular_relation_check`` also reports whether the field is closed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, lru_cache
from math import comb

from .algebroid import (
    LieAlgebroid,
    PoissonStructure,
    cotangent_algebroid,
    tangent_algebroid,
)
from .bv import (
    AConnectionOnA,
    TopConnection,
    boundary,
    generating_operator,
    torsion_free_generator,
)
from .calculus import differential, lichnerowicz, schouten
from .exterior import (
    A_SIDE,
    DUAL_SIDE,
    GradedElem,
    Volume,
    as_side,
    basis_tuples,
    contract,
    contract_or_zero,
    pairing,
    star,
    star_inv,
    top_elem,
)
from .linalg import rank as matrix_rank
from .poly import Poly
from .rows import (
    boundary_rows,
    boundary_split,
    differential_rows,
    differential_split,
    factor_rows,
    kb_rows,
)

__all__ = [
    "boundary",
    "BettiTable",
    "betti_table",
    "MAX_BLOCK_SIZE",
    "MAX_WEIGHT",
    "WALK_WEIGHT",
    "TableTooLarge",
    "Complex",
    "cohomology_betti",
    "boundary_betti",
    "kb_betti",
    "lichnerowicz_betti",
    "duality_check",
    "star_conjugation_check",
    "koszul_brylinski",
    "lie_algebra_boundary",
    "modular_vector_field",
    "modular_relation_check",
    "unimodular_duality_check",
    "anticommutator_defect_check",
    "homotopy_invariance_check",
    "monomial_basis_elems",
]


def lie_algebra_boundary(a: LieAlgebroid, u: GradedElem) -> GradedElem:
    """Classical chain boundary of a Lie algebra, as the pairing adjoint of d.

    Only defined over an empty base, where the pairing is scalar-valued and
    the adjoint is again a local operator.
    """
    if a.base_dim != 0:
        raise ValueError("chain boundary adjoint needs an empty base")
    if u.side != A_SIDE:
        raise ValueError("chain boundary acts on side A elements")
    deg = u.degree - 1
    comps = {}
    for eps in monomial_basis_elems(a.variables, a.rank, DUAL_SIDE, deg, 0):
        (target,) = eps.components
        comps[target] = pairing(differential(a, eps), u)
    return GradedElem(A_SIDE, deg, a.rank, a.variables, comps)


# -- weight-graded complexes ----------------------------------------------


@cache
def _exponents(m, w):
    """Exponent tuples of m variables and total degree w, in lex order, as a
    cached tuple that no caller can change."""
    if w < 0 or (m == 0 and w > 0):
        return ()
    if m <= 1:
        return ((w,) * m,)
    return tuple(
        (first,) + rest for first in range(w + 1) for rest in _exponents(m - 1, w - first)
    )


def monomial_basis_elems(variables, rank, side, degree, weight):
    """All basis monomials x^beta e_I (or eps_I) of one degree and weight, in
    table order."""
    return [
        GradedElem(
            side, degree, rank, variables,
            {idx: Poly(variables, {expo: 1}, _checked=True)}, _checked=True,
        )
        for idx, expo in _basis(rank, len(variables), degree, weight)
    ]


# Most basis monomials a rank block may have, counted in the middle exterior
# degree at the block's weights; the sl3* tables at weight 2 have blocks of
# 2,520, while a full sl3* table at weight 3 would rank dense 8,400-row
# matrices and is refused.
MAX_BLOCK_SIZE = 4096

# Most weights a table over a nonempty base may span.  The block count does
# not bound them: over one base variable every slice has the same size, and
# the line's cohomology at weight 100,000 printed 2.1 MB in 6 s.
MAX_WEIGHT = 100

# Weight of the basis walks of ``star_conjugation_check`` and
# ``modular_relation_check`` and of ``verify``'s duality tables.
WALK_WEIGHT = 2


class TableTooLarge(ValueError):
    """A Betti table would rank a block above ``MAX_BLOCK_SIZE``, or span
    weights above ``MAX_WEIGHT``."""


# The basis of one shape and the index maps of its blocks are fixed by
# (rank, m, degree, weights), whatever the operator, so every ``Complex``
# of a shape shares them.  Both caches are bounded, and nothing writes to
# what they hand out; a complex counts a block before either is asked.


@lru_cache(maxsize=128)
def _basis(rank, m, k, w):
    """(index tuple, exponent tuple) of every basis monomial of degree k and
    weight w, in table order."""
    return tuple(
        (idx, expo) for idx in basis_tuples(rank, k) for expo in _exponents(m, w)
    )


@lru_cache(maxsize=128)
def _index_map(rank, m, k, weights):
    """Position of each basis monomial of degree k over ``weights`` in a
    block's target columns, weights in the given order."""
    dst = (mono for v in weights for mono in _basis(rank, m, k, v))
    return {mono: pos for pos, mono in enumerate(dst)}


def _blocks(max_weight, shift):
    """The eliminations of each degree of a table at weights 0 to
    ``max_weight``, each a pair: the source weights in the order their rows
    are fed, and the target weights in column order.  One weight shift s
    maps weight v into v + s alone, so each slice is one elimination; mixed
    shifts (``shift`` None) feed every weight to one elimination, whose
    pivot count after weight w is the rank out of the window of weight at
    most w."""
    if shift is not None:
        return [((v,), (v + shift,)) for v in range(max_weight - shift + 1)]
    # The columns must run from the highest weight down: a pivot then leads
    # at its highest-weight monomial, so the row left out there is a
    # combination of rows of no higher weight, which every window that holds
    # it holds too.  From weight 0 up, a pivot leads at its lowest weight
    # and the tables come out wrong (the tangent plane with alpha = dx at
    # w=1).
    return [(range(max_weight + 1), range(max_weight, -1, -1))]


@dataclass
class BettiTable:
    """Homology dimensions per (exterior degree k, weight w), exact."""

    entries: dict
    rank: int
    max_weight: int
    capped: bool
    shift: int | None
    operator_tag: str = ""

    @property
    def homogeneous(self) -> bool:
        return not self.capped

    def entry(self, k, w=0) -> int:
        return self.entries.get((k, w), 0)

    def to_text(self) -> str:
        lines = []
        mode = (
            "homogeneous, shift %d" % self.shift
            if self.homogeneous
            else "capped at weight %d" % self.max_weight
        )
        lines.append("%s (%s)" % (self.operator_tag or "betti", mode))
        header = "      " + "".join("w=%-5d" % w for w in range(self.max_weight + 1))
        lines.append(header)
        for k in range(self.rank + 1):
            row = "k=%-3d " % k
            row += "".join("%-7d" % self.entry(k, w) for w in range(self.max_weight + 1))
            lines.append(row)
        return "\n".join(lines)

    def to_json(self):
        records = []
        for k in range(self.rank + 1):
            for w in range(self.max_weight + 1):
                records.append({"k": k, "w": w, "dim": self.entry(k, w)})
        return {
            "operator": self.operator_tag,
            "homogeneous": self.homogeneous,
            "capped": self.capped,
            "shift": self.shift,
            "max_weight": self.max_weight,
            "records": records,
        }


class Complex:
    """A table's shape: exterior degrees 0 to ``rank`` over ``variables``,
    weights 0 to ``max_weight``, or 0 alone over no variables.  Building one
    refuses a negative ``max_weight`` and one above ``MAX_WEIGHT`` over a
    nonempty base, and counts the largest slice of the shift scan, at
    ``scan_weight`` = max(``max_weight``, 1) over a nonempty base, before any
    row is asked."""

    def __init__(self, variables, rank, max_weight):
        self.variables = tuple(variables)
        self.rank = rank
        self.m = len(self.variables)
        if max_weight < 0:
            raise ValueError("max_weight must be nonnegative, got %d" % max_weight)
        if self.m and max_weight > MAX_WEIGHT:
            raise TableTooLarge(
                "table too large: weight %d is above the limit of %d"
                % (max_weight, MAX_WEIGHT)
            )
        self.max_weight = max_weight if self.m else 0
        # every shift of a first-order operator shows by weight 1, so the
        # shift scan reads the rows through weight 1 at least
        self.scan_weight = max(self.max_weight, 1) if self.m else 0
        # the largest slice the shift scan builds
        self.block_size((self.scan_weight,))

    def block_size(self, weights):
        """Basis monomials over ``weights`` in the middle exterior degree,
        the degree with the most index tuples, which bounds both sides of a
        block.  The count comes from binomials, so nothing is built; above
        ``MAX_BLOCK_SIZE`` it raises ``TableTooLarge``."""
        m, k = self.m, self.rank // 2
        monomials = sum(comb(m + v - 1, v) if m else v == 0 for v in weights if v >= 0)
        size = comb(self.rank, k) * monomials
        if size > MAX_BLOCK_SIZE:
            raise TableTooLarge(
                "table too large: a block of degree %d and weight at most %d has "
                "%d basis monomials, above the limit of %d"
                % (k, max(weights), size, MAX_BLOCK_SIZE)
            )
        return size

    def count(self, shifts, capped=False):
        """Count with ``block_size`` the sources of every block that
        ``_blocks`` lists for a table of weight shifts ``shifts``, in the
        order the table ranks them: at ``max_weight``, or, for one shift s
        and ``capped``, at ``max_weight + s``, the homogeneous table that
        ``_capped`` reads; none if there is no shift or one raises weight.
        The targets need no count: a window's are its sources, and a slice's,
        when nonnegative, is the source of that block or an earlier one."""
        if not shifts or max(shifts) > 0:
            return
        shift = min(shifts) if len(shifts) == 1 else None
        weight = self.max_weight + (shift if capped and shift is not None else 0)
        for sources, _ in _blocks(weight, shift):
            self.block_size(sources)

    def basis_elems(self, side):
        """Every basis monomial of the complex on ``side``, degree by degree
        and weight by weight within a degree, each slice in table order."""
        return [
            elem
            for k in range(self.rank + 1)
            for w in range(self.max_weight + 1)
            for elem in monomial_basis_elems(self.variables, self.rank, side, k, w)
        ]

    def table(
        self, row, k_step, operator_tag="", force_capped=False, *, _split=()
    ) -> BettiTable:
        """Betti table of one operator of exterior-degree step ``k_step``.

        ``row(idx, expo)`` is the image of the basis monomial x^expo e_idx (or
        eps_idx) as a sparse row ``{(index tuple, exponent tuple): coefficient}``
        with no zero coefficients, of an operator first order in the
        coefficient; it is asked at most once per basis monomial.  Entry (k, w)
        is the homology at the window of (k, w): ``(w,)`` when the weight
        shifts of the rows are one shift s, ``range(w + 1)`` when they are
        mixed or ``force_capped`` is set.  The operator maps the window of
        (k, w) into that of (k + k_step, w + lift), with lift s, or 0 when
        capped; the shifts are read off the row keys through weight
        ``scan_weight``, where every shift of a first-order operator shows.
        The table's blocks go through ``count`` once, after the shift scan
        and before any rank.

        Then a nonzero square (``_Operator.square_witness``) raises
        ValueError with its witness, before any rank.  The entries are
        ranked by clearing in ``_Operator.entries``, over the blocks
        ``_blocks`` lists: through ``_capped`` for a capped table of one
        shift, and through ``_homogeneous`` for every other table.
        An image with a key outside the expected target raises ValueError.

        ``_split`` is the split of the structure the rows come from, as
        ``rows`` reads it: its factors, each ``(frames, variables)`` by
        position in the product.  ``cohomology_betti``, ``boundary_betti``,
        ``kb_betti`` and ``lichnerowicz_betti`` pass it; with more than one
        factor, the table scans each factor's rows (the product's rows asked
        on the factor's monomials, ``rows.factor_rows``) and counts the
        product's blocks with the union of their shifts.  If that union is
        one shift s, or none, each factor's square is checked, and the
        homogeneous table is the convolution of the factor tables
        (``_homogeneous``), a capped table read off it.  A factor whose square
        is nonzero has its witness read again on the product's rows, so the
        text is the one the table raises without the split.  Mixed shifts
        rank the product's rows, as without a split.
        """
        if k_step not in (1, -1):
            raise ValueError("k_step must be +1 or -1")
        product = _Operator(self.variables, self.rank, row, k_step)
        ops = [
            _Operator(
                [self.variables[mu] for mu in variables],
                len(frames),
                factor_rows(row, frames, variables, self.m),
                k_step,
            )
            for frames, variables in _split
        ] if len(_split) > 1 else [product]
        shifts = set().union(*(op.shifts(self.scan_weight) for op in ops))
        self.count(shifts, force_capped)
        if shifts and max(shifts) > 0:
            raise ValueError(
                "operator raises weight by %d; no finite truncation exists" % max(shifts)
            )
        homogeneous = len(shifts) <= 1
        shift = min(shifts, default=0) if homogeneous else None
        capped = force_capped or not homogeneous
        if not homogeneous:
            ops = [product]
        # each square is read up to the highest slice the table ranks
        top = self.max_weight - (0 if capped else shift)
        if any(op.square_witness(top) for op in ops):
            raise ValueError(
                "operator does not square to zero: %s" % product.square_witness(top)
            )
        if capped and homogeneous:
            entries = self._capped(shift, k_step, ops)
        else:
            entries = self._homogeneous(shift, ops, self.max_weight)
        return BettiTable(
            entries=entries,
            rank=self.rank,
            max_weight=self.max_weight,
            capped=capped,
            shift=None if capped else shift,
            operator_tag=operator_tag,
        )

    def _homogeneous(self, shift, ops, max_weight):
        """Entries at weights 0 to ``max_weight`` of an operator whose
        square vanishes, given as its factors' operators: the convolution of
        the factor tables, each ranked with clearing (one factor's table is
        its own), at every (k, w), in table order.  For one shift the table
        is homogeneous; for mixed shifts (``shift`` None, one operator, the
        product's) it is the capped table of its windows."""
        product = {(0, 0): 1}
        for op in ops:
            out = {}
            factor = op.entries(max_weight, shift)
            for (k1, w1), b1 in product.items():
                for (k2, w2), b2 in factor.items():
                    if b2 and w1 + w2 <= max_weight:
                        key = (k1 + k2, w1 + w2)
                        out[key] = out.get(key, 0) + b1 * b2
            product = out
        return {
            (k, w): product.get((k, w), 0)
            for k in range(self.rank + 1)
            for w in range(max_weight + 1)
        }

    def _capped(self, shift, k_step, ops):
        """Entries of the capped table of an operator of one shift s <= 0
        whose square vanishes, read off its homogeneous table H at weight
        W = ``max_weight`` + s, which ranks the slices up to ``max_weight``.

        With d(k, v) the basis monomials of slice (k, v) and r(k, v) the rank
        out of it, H(k, v) = d(k, v) - r(k, v) - r(k - k_step, v - s).  So the
        rank out of (k, v) is the rank into (k + k_step, v + s):
        r(k, v) = d(k + k_step, v + s) - H(k + k_step, v + s) - r(k + k_step, v + s),
        read down each diagonal from the degree past which no map leaves,
        and 0 when v + s < 0 (at W < 0 no slice maps anywhere and H is
        empty).  The subcomplex of weight at most w keeps every slice v <= w
        and every map between two of them, so its entry is the prefix sum
        C(k, w) = sum over v <= w of d(k, v) - r(k, v) - r(k - k_step, v)."""
        rank, m, max_weight = self.rank, self.m, self.max_weight
        hom = self._homogeneous(shift, ops, max_weight + shift)
        ranks = {}
        for k in range(rank, -1, -1) if k_step == 1 else range(rank + 1):
            k1 = k + k_step
            if 0 <= k1 <= rank:
                for v in range(-shift, max_weight + 1):
                    v1 = v + shift
                    ranks[k, v] = (
                        len(_basis(rank, m, k1, v1)) - hom[k1, v1] - ranks.get((k1, v1), 0)
                    )
        entries = {}
        for k in range(rank + 1):
            total = 0
            for w in range(max_weight + 1):
                total += (
                    len(_basis(rank, m, k, w))
                    - ranks.get((k, w), 0)
                    - ranks.get((k - k_step, w), 0)
                )
                entries[k, w] = total
        return entries


class _Operator:
    """One row function on the degrees 0 to ``rank`` over ``variables``: the
    images of each slice, asked once, the weight shifts they show, a witness
    when its square is nonzero, and its table's entries, ranked by clearing
    in one loop over the blocks ``_blocks`` lists.
    The memo is a plain dict on the operator and no method nests a
    function, so a table leaves no reference cycle for the garbage
    collector."""

    def __init__(self, variables, rank, row, k_step):
        self.variables = tuple(variables)
        self.rank = rank
        self.m = len(self.variables)
        self.row = row
        self.k_step = k_step
        self._images = {}  # (k, w) -> images of the slice's basis monomials

    def images(self, k, w):
        """The images of the basis monomials of degree k and weight w, in
        table order."""
        images = self._images.get((k, w))
        if images is None:
            row = self.row
            images = [row(idx, expo) for idx, expo in _basis(self.rank, self.m, k, w)]
            self._images[k, w] = images
        return images

    def shifts(self, scan_weight):
        """The weight shifts of the rows through weight ``scan_weight``."""
        return {
            sum(expo) - w
            for k in range(self.rank + 1)
            for w in range(scan_weight + 1)
            for image in self.images(k, w)
            for _, expo in image
        }

    def square_witness(self, top):
        """None if the operator squares to zero, exactly, read on the basis
        monomials of weight at most min(2, ``top``), where ``top`` is the
        highest slice a table ranks; else the first of those monomials, in
        table order, whose image's image is nonzero, and that image, as text.

        Every table operator is first order in the coefficient, so its
        square is a differential operator of order at most 2 with polynomial
        coefficients, and such an operator is zero if and only if it is zero
        on the monomials of weight at most 2 times each basis tuple: its
        coefficients are read off those images, lowest weight first.  When
        ``top`` is below 2 the table ranks no slice above ``top``, so the
        square need vanish only there.  An image key of a degree other than
        the next one raises ValueError."""
        rank, m = self.rank, self.m
        image_of = {}  # basis monomial -> its image, over the target slices read
        for k in range(rank + 1):
            k1 = k + self.k_step
            for v in range(min(2, top) + 1):
                for mono, image in zip(_basis(rank, m, k, v), self.images(k, v)):
                    square = {}
                    for key, c in image.items():
                        target = image_of.get(key)
                        if target is None:
                            if len(key[0]) != k1:
                                raise ValueError("operator image leaves the expected slice")
                            v1 = sum(key[1])
                            image_of.update(zip(_basis(rank, m, k1, v1), self.images(k1, v1)))
                            target = image_of[key]
                        for key2, c2 in target.items():
                            square[key2] = square.get(key2, 0) + c * c2
                    if any(square.values()):
                        return "its square sends %s to %s" % (
                            _sparse_text(self.variables, {mono: 1}),
                            _sparse_text(self.variables, square),
                        )
        return None

    def entries(self, max_weight, shift=None):
        """Betti numbers at every (k, w) of degrees 0 to ``rank`` and weights
        0 to ``max_weight``, for rows of the one weight shift ``shift``, or,
        when it is None, of mixed shifts, all nonpositive, as a capped table.

        The map out of each degree is ranked in the eliminations ``_blocks``
        lists, and the rank out of the window of (k, v) is the pivot count
        after the rows of weight v.  Each degree is ranked after the degree
        that maps into it, without the rows at that map's pivot columns.
        Those pivot rows are images, so the map out sends them to zero, the
        square being zero; each is zero left of its leading column, so the
        row at a pivot column is a combination of the rows at later columns,
        and by induction from the last pivot, of the rows left in: the rank
        is unchanged.  Entry (k, w) is the basis monomials of its window
        less the rank out of it and the rank into it, from the window of
        (k - k_step, w - lift)."""
        rank, m, k_step = self.rank, self.m, self.k_step
        blocks = _blocks(max_weight, shift)
        ranks = {}  # (k, v) -> rank out of the window of (k, v)
        # (k, v) -> pivots of the map into slice (k, v), and the column at
        # which the slice starts in that map
        into = {}
        for k in range(rank) if k_step == 1 else range(rank, 0, -1):
            k1 = k + k_step
            for sources, targets in blocks:
                columns = _index_map(rank, m, k1, targets)
                pivots, at = {}, 0
                for v in targets:
                    into[k1, v] = pivots, at
                    at += len(_basis(rank, m, k1, v))
                for v in sources:
                    skip, start = into.pop((k, v), ((), 0))
                    ranks[k, v] = self.block_rank(k, v, columns, skip, start, pivots)
        lift = 0 if shift is None else shift
        entries = {}
        for k in range(rank + 1):
            dim = 0  # basis monomials of the window of (k, w)
            for w in range(max_weight + 1):
                size = len(_basis(rank, m, k, w))
                dim = size if shift is not None else dim + size
                entries[k, w] = dim - ranks.get((k, w), 0) - ranks.get((k - k_step, w - lift), 0)
        return entries

    def block_rank(self, k, v, columns, skip, start, pivots):
        """Rank of the rows of slice (k, v), placed by ``columns`` (basis
        monomial -> column), less those whose position in the columns of
        the map in, where the slice starts at ``start``, is in ``skip``,
        continuing the elimination in ``pivots``."""
        # a zero image adds no rank and is not handed over
        nonzero = [
            image
            for pos, image in enumerate(self.images(k, v), start)
            if image and pos not in skip
        ]
        if not nonzero:
            return len(pivots)
        rows = [[0] * len(columns) for _ in nonzero]
        try:
            for dense, image in zip(rows, nonzero):
                for key, c in image.items():
                    dense[columns[key]] = c
        except KeyError:
            raise ValueError("operator image leaves the expected slice") from None
        return matrix_rank(rows, pivots)


def _sparse_text(variables, sparse):
    """A sparse row ``{(index tuple, exponent tuple): coefficient}`` as text,
    term by term, frames numbered from 1: ``2*z [1,2] + -x [3]``."""
    return " + ".join(
        "%s [%s]" % (Poly(variables, {expo: c}, _checked=True), ",".join(str(i + 1) for i in idx))
        for (idx, expo), c in sorted(sparse.items())
        if c
    )


def betti_table(
    variables, rank, row, k_step, max_weight, operator_tag="", force_capped=False,
    *, _split=(),
) -> BettiTable:
    """The table of ``row`` on ``Complex(variables, rank, max_weight)``; see
    ``Complex.table``.  The four tables below all come through here, each with
    the split kept in a structure's memo (the Poisson tables' on the cotangent
    algebroid); ``betti_table`` called without one ranks the rows whole."""
    return Complex(variables, rank, max_weight).table(
        row, k_step, operator_tag, force_capped, _split=_split
    )


def cohomology_betti(a: LieAlgebroid, max_weight=4) -> BettiTable:
    return betti_table(
        a.variables, a.rank, differential_rows(a), 1, max_weight, "cohomology",
        _split=differential_split(a),
    )


def boundary_betti(conn: TopConnection, max_weight=4, force_capped=False) -> BettiTable:
    """A capped table reads the split too: it comes from the homogeneous
    table, which a product convolves from its factors."""
    a = conn.algebroid
    return betti_table(
        a.variables,
        a.rank,
        boundary_rows(conn),
        -1,
        max_weight,
        "homology",
        force_capped,
        _split=boundary_split(conn),
    )


def kb_betti(pi: PoissonStructure, max_weight=4) -> BettiTable:
    """The operator splits with the cotangent algebroid (``rows``)."""
    return betti_table(
        pi.variables, pi.base_dim, kb_rows(pi), -1, max_weight, "kb-homology",
        _split=differential_split(pi.cotangent()),
    )


def lichnerowicz_betti(pi: PoissonStructure, max_weight=4) -> BettiTable:
    """The bracket with the bivector is the differential of the cotangent
    algebroid, so this is that algebroid's cohomology table, retagged."""
    return replace(
        cohomology_betti(pi.cotangent(), max_weight), operator_tag="poisson-cohomology"
    )


def _mismatches(left, right, left_key, right_key, reverse=False, top_w=None):
    """Slots (k, w) where two tables differ, as records keyed k, w and the names.

    ``right`` is read at degree rank - k when ``reverse`` is set.  Weights run
    up to ``top_w``, by default up to the cap of ``left``.
    """
    top_w = left.max_weight if top_w is None else top_w
    out = []
    for k in range(left.rank + 1):
        for w in range(top_w + 1):
            mine = left.entry(k, w)
            theirs = right.entry(left.rank - k if reverse else k, w)
            if mine != theirs:
                out.append({"k": k, "w": w, left_key: mine, right_key: theirs})
    return out


def duality_check(a: LieAlgebroid, max_weight=4):
    """Compare homology of the trivial flat connection with reversed cohomology."""
    conn0 = TopConnection(a)
    hom = boundary_betti(conn0, max_weight)
    coh = cohomology_betti(a, max_weight)
    mismatches = _mismatches(hom, coh, "homology", "cohomology", reverse=True)
    return {"ok": not mismatches, "homology": hom, "cohomology": coh, "mismatches": mismatches}


# -- star conjugation ------------------------------------------------------


def star_conjugation_check(
    a: LieAlgebroid, vol: Volume, probes=None, max_weight=WALK_WEIGHT
):
    """Check the boundary of the trivial connection against star conjugation.

    The claim: on every element, the boundary equals minus the star of the
    differential of the inverse star.  The boundary side is computed without
    stars, frame-wise: the torsion-free connection with Christoffel data half
    the structure coefficients has the operator ``torsion_free_generator``;
    adding the contraction by its trace form moves that operator to the
    trivial top connection, and the sign of the complementary degree turns
    it into the boundary.  Runs on the supplied probes plus the full monomial
    basis of ``Complex(a.variables, a.rank, max_weight)``.
    """
    n = a.rank
    half = [
        [[a.structure_coeff(i, j, k) / 2 for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    nabla = AConnectionOnA(a, half)
    tau = nabla.induced_top_connection().alpha
    todo = list(probes or []) + Complex(a.variables, n, max_weight).basis_elems(A_SIDE)
    failures = []
    for pos, u in enumerate(todo):
        lhs = torsion_free_generator(nabla, u) + contract_or_zero(tau, u)
        if (n - u.degree) % 2:
            lhs = -lhs
        if u.degree == 0:
            # the conjugated route vanishes identically here: the inverse
            # star of a coefficient is top degree, and its differential has
            # no degree n + 1 target
            residual = lhs
        else:
            rhs = -star(differential(a, star_inv(u, vol)), vol)
            residual = lhs - rhs
        if not residual.is_zero:
            failures.append({"probe": pos + 1, "residual": str(residual)})
    return {"ok": not failures, "count": len(todo), "failures": failures}


# -- Poisson operators -----------------------------------------------------


def koszul_brylinski(pi: PoissonStructure, omega: GradedElem) -> GradedElem:
    """Degree -1 operator on base forms: commutator of bivector contraction with d."""
    if omega.side != DUAL_SIDE:
        raise ValueError("operator acts on side A* base forms")
    t = tangent_algebroid(pi.variables)
    pi_elem = pi.as_elem()
    return contract_or_zero(pi_elem, differential(t, omega)) - differential(
        t, contract_or_zero(pi_elem, omega)
    )


def modular_vector_field(pi: PoissonStructure) -> GradedElem:
    """Vector field measuring how Hamiltonian flows distort the volume form.

    The coefficient on the mu-th coordinate field is the top-form ratio of
    the derivative of the unit volume along the Hamiltonian field of the
    mu-th coordinate.  A constant rescaling of the volume cancels from that
    ratio, so the unit volume is the only one needed.  It is kept on ``pi``.
    """
    return pi.kept("modular field", lambda: _modular_field(pi))


def _modular_field(pi: PoissonStructure) -> GradedElem:
    m = pi.base_dim
    t = tangent_algebroid(pi.variables)
    omega = top_elem(m, pi.variables, DUAL_SIDE)
    full = tuple(range(m))
    comps = {}
    for mu in range(m):
        ham = contract(t.coframe(mu), pi.as_elem())
        lie = differential(t, contract_or_zero(ham, omega))
        comps[(mu,)] = lie.coefficient(full)
    return GradedElem(A_SIDE, 1, m, pi.variables, comps)


def _uniform_sign(pairs):
    """The one sign s with residual == s * target on every probe.

    ``pairs`` holds one ``(residual, target)`` per probe, numbered from 1.  A
    vanishing target needs a vanishing residual; any other target must equal
    the residual up to sign, and the first such probe fixes the sign for the
    rest.  Returns ``(sign, failures)``, each failure a dict with ``probe``,
    ``reason`` and ``residual``; the sign is None when every target vanishes.
    """
    sign = None
    failures = []
    for pos, (residual, target) in enumerate(pairs, 1):
        if target.is_zero:
            reason = None if residual.is_zero else "nonzero where the target vanishes"
        elif residual == target or residual == -target:
            found = 1 if residual == target else -1
            if sign is None:
                sign = found
            reason = None if found == sign else "sign flips across probes"
        else:
            reason = "not proportional to the target"
        if reason:
            failures.append({"probe": pos, "reason": reason, "residual": str(residual)})
    return sign, failures


def modular_relation_check(pi: PoissonStructure, probes=None):
    """Compare the Koszul-Brylinski operator with the flat-volume boundary.

    The difference should be contraction by the modular vector field up to a
    single global sign, read off the probes by ``_uniform_sign``.  A zero
    modular field leaves the sign undetermined and requires the difference
    to vanish identically.  Without ``probes`` the check walks the basis of
    ``Complex(pi.variables, pi.base_dim, WALK_WEIGHT)``.  The modular field
    is computed once, and the report also witnesses that it is closed:
    ``closed_failures`` is empty when its bracket with the bivector vanishes.
    """
    cot = cotangent_algebroid(pi)
    conn0 = TopConnection(cot)
    nu = modular_vector_field(pi)
    closed = lichnerowicz(pi, nu)
    if probes is None:
        probes = Complex(pi.variables, pi.base_dim, WALK_WEIGHT).basis_elems(DUAL_SIDE)
    todo = list(probes)
    sign, failures = _uniform_sign(
        (
            koszul_brylinski(pi, omega)
            - as_side(generating_operator(conn0, as_side(omega, A_SIDE)), DUAL_SIDE),
            contract_or_zero(nu, omega),
        )
        for omega in todo
    )
    return {
        "ok": not failures,
        "sign": sign,
        "modular_field": str(nu),
        "count": len(todo),
        "failures": failures,
        "closed_failures": (
            [] if closed.is_zero else ["bracket with bivector is %s" % closed]
        ),
    }


def unimodular_duality_check(pi: PoissonStructure, max_weight=4):
    """Compare Poisson homology with reverse-degree Poisson cohomology.

    Only meaningful when the modular field vanishes; otherwise the check is
    skipped and the modular field reported.  Both tables are returned either
    way.
    """
    nu = modular_vector_field(pi)
    hom = kb_betti(pi, max_weight)
    coh = lichnerowicz_betti(pi, max_weight)
    skipped = not nu.is_zero
    mismatches = (
        [] if skipped else _mismatches(hom, coh, "homology", "cohomology", reverse=True)
    )
    return {
        "ok": not mismatches,
        "skipped": skipped,
        "modular_field": str(nu),
        "homology": hom,
        "cohomology": coh,
        "mismatches": mismatches,
    }


def anticommutator_defect_check(pi: PoissonStructure, probes, modular_sign=None):
    """Measure the anticommutator of the flat-volume operator with the
    bivector bracket differential against the modular derivative.

    Three comparisons per probe: against the derivation oracle (bracket with
    the operator image of the bivector), against the modular derivative with
    a sign read uniformly off the probes themselves by ``_uniform_sign``,
    and, when ``modular_sign`` is supplied, against the modular derivative
    scaled by that externally recorded sign.
    """
    t = tangent_algebroid(pi.variables)
    conn0 = TopConnection(t)
    nu = modular_vector_field(pi)
    d0_pi = generating_operator(conn0, pi.as_elem())
    oracle_failures = []
    pairs = []
    literal_failures = []
    for pos, u in enumerate(probes, 1):
        first = lichnerowicz(pi, generating_operator(conn0, u))
        second = generating_operator(conn0, lichnerowicz(pi, u))
        defect = first + second
        oracle = schouten(t, d0_pi, u)
        if defect != oracle:
            oracle_failures.append({"probe": pos, "residual": str(defect - oracle)})
        lie_nu = schouten(t, nu, u)
        pairs.append((defect, lie_nu))
        if modular_sign is not None:
            scaled = lie_nu if modular_sign == 1 else -lie_nu
            if defect != scaled:
                literal_failures.append({"probe": pos, "residual": str(defect - scaled)})
    own_sign, own_failures = _uniform_sign(pairs)
    return {
        "oracle_ok": not oracle_failures,
        "own_sign": own_sign,
        "own_ok": not own_failures,
        "literal_ok": modular_sign is not None and not literal_failures,
        "modular_field": str(nu),
        "operator_of_bivector": str(d0_pi),
        "oracle_failures": oracle_failures,
        "own_failures": own_failures,
        "literal_failures": literal_failures,
    }


def homotopy_invariance_check(a: LieAlgebroid, alpha1: GradedElem, alpha2: GradedElem, max_weight=4):
    """Compare capped homology tables of two flat connection forms.

    The forms must both be flat; their difference plays the role of an exact
    perturbation of degree one more than its coefficients.  Tables are
    compared in the stable window, weights up to the cap minus that degree.
    """
    r1 = differential(a, alpha1)
    r2 = differential(a, alpha2)
    if not r1.is_zero or not r2.is_zero:
        return {
            "ok": False,
            "inconclusive": True,
            "reason": "a connection form is not flat",
            "mismatches": [],
        }
    delta = alpha2 - alpha1
    deg_g = delta.max_coeff_degree() + 1 if not delta.is_zero else 0
    window = (0 if a.base_dim == 0 else max_weight) - deg_g
    if window < 0:
        return {
            "ok": False,
            "inconclusive": True,
            "reason": "cap too small for the perturbation degree",
            "mismatches": [],
        }
    try:
        t1 = boundary_betti(TopConnection(a, alpha1), max_weight, force_capped=True)
        t2 = boundary_betti(TopConnection(a, alpha2), max_weight, force_capped=True)
    except ValueError as exc:
        return {
            "ok": False,
            "inconclusive": True,
            "reason": str(exc),
            "mismatches": [],
        }
    mismatches = _mismatches(t1, t2, "first", "second", top_w=min(window, t1.max_weight))
    return {
        "ok": not mismatches,
        "inconclusive": False,
        "window": window,
        "first": t1,
        "second": t2,
        "mismatches": mismatches,
    }
