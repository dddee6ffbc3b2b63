"""Seeded generators for the property suites.

Everything takes an explicit random.Random so runs are reproducible; the
verify command and the test suite both build their streams from a seed.
Coefficients are small integers so residuals stay readable.  Probe
polynomials draw from ``getrandbits`` by the rule of ``Random.randrange``
(``_below``), without its per-call argument handling: every probe is the one
``randrange`` gives for the seed, so reports stay byte-identical.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .calculus import differential
from .exterior import A_SIDE, DUAL_SIDE, GradedElem, basis_tuples
from .poly import Poly

__all__ = [
    "random_poly",
    "random_elem",
    "random_section",
    "random_frame_matrix",
    "random_flat_form",
]


def _below(getrandbits, n):
    """A draw from ``range(n)``, n >= 1, from the bound ``getrandbits`` of a
    ``random.Random``: the same draw, and the same stream afterwards, as
    ``Random.randrange(n)``, whose rule this is (k = n.bit_length() bits,
    drawn again while r >= n), without its argument handling."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def random_poly(rng: random.Random, variables, max_deg=2) -> Poly:
    m = len(variables)
    if m and max_deg < 0:
        raise ValueError("max_deg must be nonnegative, got %d" % max_deg)
    bits = rng.getrandbits
    top = max_deg + 1
    k = top.bit_length()
    terms = {}
    # the draws of randrange(1, 4), randrange(max_deg + 1), randrange(-3, 4);
    # the exponent draws spell out _below, the innermost loop of the probes
    for _ in range(1 + _below(bits, 3)):
        expo = ()
        while m:
            cand = []
            for _ in range(m):
                r = bits(k)
                while r >= top:
                    r = bits(k)
                cand.append(r)
            if sum(cand) <= max_deg:
                expo = tuple(cand)
                break
        coeff = _below(bits, 7) - 3
        if coeff:
            terms[expo] = terms[expo] + coeff if expo in terms else coeff
    return Poly(variables, terms, _checked=True)


def random_elem(rng: random.Random, a, side, degree, max_deg=2) -> GradedElem:
    comps = {}
    for idx in basis_tuples(a.rank, degree):
        if rng.random() < 0.7:
            comps[idx] = random_poly(rng, a.variables, max_deg)
    return GradedElem(side, degree, a.rank, a.variables, comps, _checked=True)


def random_section(rng: random.Random, a, max_deg=2) -> GradedElem:
    return random_elem(rng, a, A_SIDE, 1, max_deg)


def random_frame_matrix(rng: random.Random, n):
    """Invertible rational matrix built from elementary row operations."""
    g = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    scales = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3)]
    for _ in range(2 * n + 2):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            g[i], g[j] = g[j], g[i]
        elif kind == 1:
            c = scales[rng.randrange(len(scales))]
            g[i] = [c * x for x in g[i]]
        elif kind == 2 and i != j:
            c = Fraction(rng.randint(-2, 2))
            g[i] = [x + c * y for x, y in zip(g[i], g[j])]
    return g


def random_flat_form(rng: random.Random, a, max_deg=2) -> GradedElem:
    """A flat connection form: the differential of a random function."""
    g = random_poly(rng, a.variables, max_deg)
    return differential(a, a.scalar(g, DUAL_SIDE))
