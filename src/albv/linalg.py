"""Exact linear algebra over the rationals.

Rank computation uses fraction-free (Bareiss) elimination: rows are first
scaled to integers, after which every intermediate entry stays an exact
integer.  There is no tolerance anywhere; a pivot is nonzero or it is not.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = ["rank", "mat_inv", "mat_transpose", "identity"]


def rank(rows) -> int:
    """Rank of a matrix given as an iterable of rows of rationals."""
    mat = []
    for row in rows:
        row = [Fraction(x) for x in row]
        scale = 1
        for x in row:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        mat.append([int(x * scale) for x in row])
    if not mat or not mat[0]:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    r = 0
    prev = 1
    for col in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if mat[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(r + 1, nrows):
            for j in range(col + 1, ncols):
                mat[i][j] = (mat[r][col] * mat[i][j] - mat[i][col] * mat[r][j]) // prev
            mat[i][col] = 0
        prev = mat[r][col]
        r += 1
        if r == nrows:
            break
    return r


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_transpose(m):
    return [list(col) for col in zip(*m)]


def mat_inv(m):
    """Inverse by Gauss-Jordan elimination; raises on a singular matrix."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    out = identity(n)
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if a[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            raise ValueError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        out[col], out[pivot] = out[pivot], out[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        out[col] = [x * inv for x in out[col]]
        for i in range(n):
            if i == col or a[i][col] == 0:
                continue
            factor = a[i][col]
            a[i] = [x - factor * y for x, y in zip(a[i], a[col])]
            out[i] = [x - factor * y for x, y in zip(out[i], out[col])]
    return out
