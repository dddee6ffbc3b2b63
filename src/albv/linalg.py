"""Exact linear algebra over the rationals.

``rank`` is fraction-free Gaussian elimination over the nonzero entries
only.  Each row becomes a map from column to integer.  A row whose nonzero
entries are all of type ``int`` is taken as it is; any other row (Fractions,
or bools) has its denominators cleared by their least common multiple, which
turns every entry, an integral Fraction too, into an ``int``.  It is then
reduced against the pivot rows found so far, keyed by their leading column:
with a and b the leading entries of the row and of the pivot, divided by
their gcd, the row becomes ``b * row - a * pivot`` (just ``row - a * pivot``
when b is 1), which cancels the leading entry in integers.  Before each step
the row is divided by the gcd of its entries (its content), so it and every
pivot stay primitive and entries grow with the minors of the matrix rather
than with the number of steps.  A row whose leading column has no pivot yet
becomes one; a row that cancels to nothing adds no rank.  The rank is the
number of pivots.  There is no tolerance anywhere; an entry is zero or it is
not.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm

__all__ = ["rank", "identity"]


def rank(rows) -> int:
    """Rank of a matrix given as an iterable of equal-length sequences of ints
    and Fractions."""
    pivots = {}  # leading column -> primitive integer row {column: entry}
    for row in rows:
        values = list(compress(row, row))
        if all(type(x) is int for x in values):
            vec = dict(zip(compress(count(), row), values))
        else:
            scale = lcm(*(x.denominator for x in values))
            vec = {
                col: x.numerator * (scale // x.denominator)
                for col, x in zip(compress(count(), row), values)
            }
        while vec:
            content = gcd(*vec.values())
            if content > 1:
                vec = {col: x // content for col, x in vec.items()}
            lead = min(vec)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = vec
                break
            a, b = vec[lead], pivot[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            if b != 1:
                vec = {col: b * x for col, x in vec.items()}
            for col, y in pivot.items():
                x = vec.get(col, 0) - a * y
                if x:
                    vec[col] = x
                else:
                    del vec[col]
    return len(pivots)


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
