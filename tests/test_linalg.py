"""Exact rank against an independent Gauss-Jordan oracle and known answers."""

import random
import sys
from fractions import Fraction
from math import gcd

from albv.linalg import rank


def oracle_rank(rows):
    """Textbook Gauss-Jordan over Fraction: count the pivots of the reduced form."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            f = m[i][col]
            if i != r and f != 0:
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def random_entry(rng, big):
    if rng.random() < 0.5:
        return 0
    num = rng.randint(-(10**30), 10**30) if big else rng.randint(-10, 10)
    return Fraction(num, rng.randint(1, 12))


def random_matrix(rng, nrows, ncols, big=False):
    return [[random_entry(rng, big) for _ in range(ncols)] for _ in range(nrows)]


def test_random_rational_matrices_match_the_oracle():
    rng = random.Random(20240)
    for trial in range(300):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = random_matrix(rng, nrows, ncols, big=trial % 3 == 0)
        if trial % 4 == 0:
            rows.append(list(rng.choice(rows)))  # a duplicate row
        if trial % 5 == 0:
            rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
        rng.shuffle(rows)
        assert rank(rows) == oracle_rank(rows), rows


def test_products_of_known_inner_dimension_match_the_oracle():
    rng = random.Random(7)
    for trial in range(100):
        inner = rng.randint(1, 4)
        nrows, ncols = rng.randint(inner, 9), rng.randint(inner, 9)
        a = random_matrix(rng, nrows, inner, big=trial % 2 == 0)
        b = random_matrix(rng, inner, ncols)
        prod = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
        got = rank(prod)
        assert got <= inner
        assert got == oracle_rank(prod), prod


def test_dense_multi_digit_matrices_match_the_oracle():
    # every entry nonzero, so each row is reduced against every earlier pivot
    rng = random.Random(30)
    full = [[rng.randint(1, 10**6) * rng.choice((-1, 1)) for _ in range(30)] for _ in range(30)]
    a = [[rng.randint(-(10**6), 10**6) for _ in range(25)] for _ in range(30)]
    b = [[rng.randint(-(10**6), 10**6) for _ in range(30)] for _ in range(25)]
    low = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    assert rank(full) == oracle_rank(full) == 30
    assert rank(low) == oracle_rank(low) == 25
    # powers of 1..30: a Vandermonde matrix with entries up to 30**29
    vandermonde = [[i**j for j in range(30)] for i in range(1, 31)]
    assert rank(vandermonde) == 30
    # values of 30 polynomials of degree below 12 at 30 points span 12 dimensions
    assert rank([[sum(c * x**j for j, c in enumerate(row[:12])) for x in range(30)] for row in full]) == 12


def test_known_answers():
    for n in range(6):
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        assert rank(ident) == n
    assert rank([[0] * 4 for _ in range(3)]) == 0
    assert rank([[Fraction(0)] * 3]) == 0
    assert rank([]) == 0
    assert rank([[], [], []]) == 0
    assert rank([1, 2 * i, Fraction(i, 3)] for i in range(5)) == 2
    # one apart in 10**30: equal as floats, independent as rationals
    assert rank([[10**30, 1], [10**30 + 1, 1]]) == 2
    hilbert = [[Fraction(1, i + j + 1) for j in range(7)] for i in range(7)]
    assert rank(hilbert) == 7
    # a one-entry row in a column that already has a pivot is reduced, not
    # placed, and adds rank only if something of it is left
    assert rank([[2, 3], [5, 0]]) == 2
    assert rank([[2, 1, 3], [0, 0, 4], [5, 0, 0]]) == 3
    assert rank([[-3, 0], [2, 0], [True, 0]]) == 1
    assert rank([[Fraction(1, 3), 0], [0, Fraction(-2, 5)], [Fraction(4), 0]]) == 2


def test_bools_and_integral_fractions_match_the_oracle():
    """Rows that are not all of type ``int`` go through the denominator path,
    which must still hand ``gcd`` plain ints: bools, integral Fractions
    (``Fraction(2)``, ``Fraction(4)``) and rows that mix them with ints and
    non-integral Fractions."""
    f = Fraction
    cases = [
        [[True, False, True], [False, True, True], [True, True, False]],
        [[True, True], [True, True]],
        [[f(2), f(4)], [f(4), f(8)], [f(0), f(6)]],
        [[f(2), 4, True], [f(1, 2), 1, False], [f(4), f(8), 2]],
        [[3, f(2), f(1, 3)], [True, f(4), 0], [6, f(4), f(2, 3)]],
    ]
    rng = random.Random(11)
    pool = [0, 0, 1, -3, True, False, f(2), f(4), f(-6), f(1, 2), f(-5, 3)]
    for _ in range(60):
        ncols = rng.randint(1, 6)
        cases.append([[rng.choice(pool) for _ in range(ncols)] for _ in range(rng.randint(1, 6))])
    for rows in cases:
        assert rank(rows) == oracle_rank(rows), rows


def sparse_row(rng, ncols, nonzeros):
    """A row of ``nonzeros`` entries in -3..3 other than 0, the rest zero."""
    row = [0] * ncols
    for col in rng.sample(range(ncols), nonzeros):
        row[col] = rng.choice((-3, -2, -1, 1, 2, 3))
    return row


def test_table_shaped_sparse_matrices_match_the_oracle():
    """The slice matrices of a Betti table are very sparse, with 1 to 3 small
    entries in most rows and many rows of one entry.  A row of one entry
    whose column has no pivot is placed without elimination; one whose
    column has a pivot is reduced like any other.  Random matrices of that
    shape, with repeated and zero rows, some made only of one-entry rows,
    and some passed as a generator, rank as the oracle does."""
    rng = random.Random(2027)
    for trial in range(400):
        nrows, ncols = rng.randint(1, 14), rng.randint(1, 10)
        all_unit = trial % 5 == 0
        rows = []
        for _ in range(nrows):
            nonzeros = 1 if all_unit or rng.random() < 0.4 else rng.randint(1, min(3, ncols))
            rows.append(sparse_row(rng, ncols, nonzeros))
        if trial % 3 == 0:
            rows.append(list(rng.choice(rows)))  # a repeated row
        if trial % 4 == 0:
            rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
        rng.shuffle(rows)
        expected = oracle_rank(rows)
        got = rank(list(row) for row in rows) if trial % 2 else rank(rows)
        assert got == expected, rows
        assert rank(rows[::-1]) == expected, rows


def test_primitive_divides_out_the_content():
    from albv.linalg import _primitive

    assert _primitive({0: 6, 2: -9, 5: 15}) == {0: 2, 2: -3, 5: 5}
    assert _primitive({0: -4, 3: 6}) == {0: -2, 3: 3}
    assert _primitive({1: 4}) == {1: 1}
    vec = {0: 2, 1: 3}
    assert _primitive(vec) is vec


def stored_pivots(rows):
    """The rank of ``rows`` and the pivot rows ``rank`` stored, read off its
    frame as it returns."""
    stored = []

    def local(frame, event, arg):
        if event == "return":
            stored.extend(frame.f_locals["pivots"].values())
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is rank.__code__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        result = rank(rows)
    finally:
        sys.settrace(previous)
    return result, stored


def test_every_stored_pivot_is_primitive():
    """Each fraction-free step scales a row by a leading entry, so the
    reduced rows of a Vandermonde matrix share the factors x_i - x_j and
    those of a Hilbert matrix share cleared denominators; ``rank`` divides
    that content out, and every pivot it stores has entries of gcd 1."""
    points = (2, 5, 9, 14, 20, 27)
    vandermonde = [[x**j for j in range(6)] for x in points]
    hilbert = [[Fraction(1, i + j + 1) for j in range(6)] for i in range(6)]
    for rows in (vandermonde, hilbert):
        result, pivots = stored_pivots(rows)
        assert result == len(pivots) == 6
        assert all(gcd(*pivot.values()) == 1 for pivot in pivots), pivots


def random_table_matrix(rng, trial, nrows, ncols):
    """A random sparse int, rational or bool matrix, by ``trial`` mod 3."""
    kind = trial % 3
    if kind == 0:
        return [sparse_row(rng, ncols, rng.randint(0, min(3, ncols))) for _ in range(nrows)]
    if kind == 1:
        return random_matrix(rng, nrows, ncols, big=trial % 2 == 0)
    return [[rng.random() < 0.4 for _ in range(ncols)] for _ in range(nrows)]


def test_pivots_are_keyed_by_columns_of_full_rank():
    """Given a dict ``pivots``, ``rank`` stores its pivot rows in it, keyed
    by their leading columns: as many columns as the rank, and the rows
    restricted to them keep that rank, since the pivots are zero left of
    their leading columns and so form a triangle there.  A Betti table
    clears with these columns.  Random sparse int, rational and bool
    matrices."""
    rng = random.Random(31)
    for trial in range(300):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rows = random_table_matrix(rng, trial, nrows, ncols)
        expected = oracle_rank(rows)
        pivots = {}
        assert rank(rows, pivots) == expected, rows
        assert len(pivots) == expected and set(pivots) <= set(range(ncols)), (rows, pivots)
        restricted = [[row[col] for col in sorted(pivots)] for row in rows]
        assert oracle_rank(restricted) == expected, (rows, pivots)
    pivots = {}
    assert rank([[0, 2, 4], [0, 1, 2], [3, 0, 1]], pivots) == 2
    assert set(pivots) == {0, 1}


def test_a_continued_elimination_gives_the_prefix_ranks():
    """Rows handed over in groups, each call continuing the elimination in
    the same ``pivots``, return the rank of every row handed over so far:
    after each group, the Gauss-Jordan rank of the rows up to it.  This is
    how a capped table of mixed shifts reads the rank of each weight window
    off one elimination.  Random sparse int, rational and bool matrices cut
    into random groups, empty ones and groups of zero rows included."""
    rng = random.Random(47)
    for trial in range(300):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 9)
        rows = random_table_matrix(rng, trial, nrows, ncols)
        if trial % 4 == 0:
            rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
        cuts = sorted(rng.sample(range(nrows + 2), rng.randint(0, 3)))
        bounds = [0] + [min(cut, len(rows)) for cut in cuts] + [len(rows)]
        pivots = {}
        for start, stop in zip(bounds, bounds[1:]):
            got = rank(rows[start:stop], pivots)
            assert got == len(pivots) == oracle_rank(rows[:stop]), (rows, bounds, stop)
