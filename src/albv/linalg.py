"""Exact linear algebra over the rationals.

``rank`` is fraction-free Gaussian elimination over the nonzero entries
only.  Each row's support is read once, with ``compress``, into a map from
column to entry; its first column is the row's leading column.  A row with
one nonzero entry whose column has no pivot yet becomes the pivot
``{column: 1}`` at once, with no gcd and no reduction.  Any other row whose
nonzero entries are all of type ``int`` is taken as it is; the rest
(Fractions, or bools) have their denominators cleared by their least common
multiple, which turns every entry, an integral Fraction too, into an
``int``.  The row is then reduced against the pivot rows found so far,
keyed by their leading column: with a and b the leading entries of the row
and of the pivot, divided by their gcd, the row becomes ``b * row - a *
pivot`` (just ``row - a * pivot`` when b is 1), which cancels the leading
entry in integers.  After each step, and before a row is stored as a pivot,
the row is divided by the gcd of its entries (its content), a division
skipped when that gcd is 1; so every pivot is primitive, and entries grow
with the minors of the matrix rather than with the number of steps.  A row
whose leading column has no pivot yet becomes one; a row that cancels to
nothing, or has no nonzero entry, adds no rank.  The rank is the number of
pivots.  There is no tolerance anywhere; an entry is zero or it is not.

Given a dict ``pivots`` from an earlier call on rows of the same columns,
``rank`` continues that elimination: it reduces the new rows against those
pivots, adds its own to them, and returns the rank of every row handed over
so far.  Fed in groups, the rows give the rank of each prefix of groups, and
the keys of ``pivots`` are the leading columns.  Each pivot row is zero left
of its leading column, so the pivots form a triangle on those columns: the
rows of the matrix restricted to them have full rank.  A Betti table clears
with these columns (see ``homology``); rows fed by weight, into columns
ordered from the highest weight down, lead each pivot at its highest-weight
monomial, the condition under which the clearing of a capped table is exact.
"""

from __future__ import annotations

from itertools import compress, count
from math import gcd, lcm

__all__ = ["rank"]


def _primitive(vec):
    """``vec`` divided by its content."""
    content = gcd(*vec.values())
    if content == 1:
        return vec
    return {col: x // content for col, x in vec.items()}


def rank(rows, pivots=None) -> int:
    """Rank of a matrix given as an iterable of equal-length sequences of ints
    and Fractions; with a dict ``pivots``, the elimination continues from it
    and the running rank is returned."""
    if pivots is None:
        pivots = {}  # leading column -> primitive integer row {column: entry}
    for row in rows:
        vec = {col: row[col] for col in compress(count(), row)}
        if not vec:
            continue
        lead = next(iter(vec))
        if len(vec) == 1 and lead not in pivots:
            pivots[lead] = {lead: 1}
            continue
        if not all(type(x) is int for x in vec.values()):
            scale = lcm(*(x.denominator for x in vec.values()))
            vec = {col: x.numerator * (scale // x.denominator) for col, x in vec.items()}
        while True:
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = _primitive(vec)
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
            if not vec:
                break
            vec = _primitive(vec)
            lead = min(vec)
    return len(pivots)
