"""Seeded generators for the property suites.

Everything takes an explicit random.Random so runs are reproducible; the
verify command and the test suite both build their streams from a seed.
Coefficients are small integers so residuals stay readable.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .calculus import differential
from .exterior import A_SIDE, DUAL_SIDE, GradedElem, basis_tuples
from .linalg import identity
from .poly import Poly

__all__ = [
    "random_poly",
    "random_elem",
    "random_section",
    "random_frame_matrix",
    "random_flat_form",
]


def random_poly(rng: random.Random, variables, max_deg=2) -> Poly:
    m = len(variables)
    terms = {}
    # randrange(a, b + 1) is randint(a, b), one call shorter: same draws
    for _ in range(rng.randrange(1, 4)):
        if m == 0:
            expo = ()
        else:
            expo = None
            while expo is None:
                cand = tuple([rng.randrange(max_deg + 1) for _ in range(m)])
                if sum(cand) <= max_deg:
                    expo = cand
        coeff = rng.randrange(-3, 4)
        if coeff:
            terms[expo] = terms[expo] + coeff if expo in terms else coeff
    return Poly(variables, terms)


def random_elem(rng: random.Random, a, side, degree, max_deg=2) -> GradedElem:
    comps = {}
    for idx in basis_tuples(a.rank, degree):
        if rng.random() < 0.7:
            comps[idx] = random_poly(rng, a.variables, max_deg)
    return GradedElem(side, degree, a.rank, a.variables, comps)


def random_section(rng: random.Random, a, max_deg=2) -> GradedElem:
    return random_elem(rng, a, A_SIDE, 1, max_deg)


def random_frame_matrix(rng: random.Random, n):
    """Invertible rational matrix built from elementary row operations."""
    g = identity(n)
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
