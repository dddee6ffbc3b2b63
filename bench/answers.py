"""Known answers for the benchmark's Betti tables, derived by hand.

Nothing here imports albv: every expected table is computed from a closed
formula, so a change that breaks exactness shows as a failed operation.
Tables are dicts mapping (k, w) to a dimension, k the exterior degree and w
the coefficient weight, for 0 <= k <= rank and 0 <= w <= max_weight.
"""

from math import comb


def so3_homogeneous(max_weight):
    """Tables of so(3)* = {x,y}=z, {y,z}=x, {z,x}=y, one weight at a time.

    The Lichnerowicz complex of a linear Poisson structure on g* is the
    Chevalley-Eilenberg complex of g with coefficients in S(g).  For
    semisimple g the Whitehead lemmas leave H(g) (x) S(g)^g.  For so(3),
    H(g) sits in degrees 0 and 3 and S(g)^g is generated by the Casimir
    x^2 + y^2 + z^2 of weight 2, so rows k = 0 and k = 3 read 1, 0, 1, 0, ...
    and rows 1 and 2 vanish.  so(3) is unimodular, so the Koszul-Brylinski
    homology and the flat-volume boundary of the cotangent algebroid give
    the same table with k read as the form or multivector degree.
    """
    return {
        (k, w): int(k in (0, 3) and w % 2 == 0)
        for k in range(4)
        for w in range(max_weight + 1)
    }


def so3_capped(max_weight):
    """The capped so(3)* table: the truncated complex of weight <= w.

    The boundary preserves weight, so the truncation splits into the
    homogeneous slices below the cap and each entry is a prefix sum of the
    homogeneous row.
    """
    homogeneous = so3_homogeneous(max_weight)
    return {
        (k, w): sum(homogeneous[(k, v)] for v in range(w + 1))
        for k in range(4)
        for w in range(max_weight + 1)
    }


def tangent3_cohomology(max_weight):
    """de Rham cohomology of polynomial forms on 3-space: the Poincare lemma.

    Only the constants survive, at (k, w) = (0, 0).
    """
    return {(k, w): int((k, w) == (0, 0)) for k in range(4) for w in range(max_weight + 1)}


def _forms(p, w):
    """Dimension of polynomial p-forms on 3-space with coefficient weight w."""
    if not 0 <= p <= 3 or w < 0:
        return 0
    return comb(3, p) * comb(w + 2, 2)


def _exact_forms(p, w):
    """Dimension of exact p-forms of coefficient weight w, for p >= 1.

    d lowers weight by one and the homogeneous de Rham complex is exact
    above weight 0, so the exact p-forms of weight w are the image of the
    (p-1)-forms of weight w + 1, whose dimension is the alternating sum
    C(3,p-1)C(w+3,2) - C(3,p-2)C(w+4,2) + ...
    """
    return sum((-1) ** (j - 1) * _forms(p - j, w + j) for j in range(1, p + 1))


def tangent3_capped(max_weight):
    """Capped homology of the trivial top connection on tangent 3-space.

    The boundary of k-vector fields is the divergence, which the volume form
    turns into d on (3-k)-forms.  In the complex truncated at weight <= w the
    closed p-forms (p >= 1) are the exact ones of weight <= w, and the image
    from below is the exact ones of weight <= w - 1.  The entry is therefore
    [k = 3] (the constants) plus the exact (3-k)-forms of weight exactly w:
    rows 1,3,6,...; 3,8,15,...; 3,6,10,...; 1,1,1,...
    """
    return {
        (k, w): int(k == 3) + (_exact_forms(3 - k, w) if k < 3 else 0)
        for k in range(4)
        for w in range(max_weight + 1)
    }
