"""Probe draws are pinned to ``random.Random.randrange``.

``randgen`` draws its probe polynomials from ``getrandbits`` by the rule of
``Random.randrange``, without that method's argument handling.  The verify
reports are byte-identical for a seed only while both rules agree, so a
Python whose ``randrange`` drifts fails here, by name, and not only in the
golden reports.
"""

import random

import pytest

from albv.poly import Poly
from albv.randgen import _below, random_poly


@pytest.mark.parametrize("n", range(1, 17))
def test_draws_equal_randrange(n):
    for seed in range(50):
        ours, ref = random.Random(seed), random.Random(seed)
        assert [_below(ours.getrandbits, n) for _ in range(20)] == [
            ref.randrange(n) for _ in range(20)
        ]
        start = seed - 25
        assert [start + _below(ours.getrandbits, n) for _ in range(20)] == [
            ref.randrange(start, start + n) for _ in range(20)
        ]
        assert ours.getstate() == ref.getstate()


def randrange_poly(rng, variables, max_deg):
    """``random_poly`` written with ``randrange``, the reference."""
    m = len(variables)
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        expo = ()
        while m:
            expo = tuple(rng.randrange(max_deg + 1) for _ in range(m))
            if sum(expo) <= max_deg:
                break
        coeff = rng.randrange(-3, 4)
        if coeff:
            terms[expo] = terms.get(expo, 0) + coeff
    return Poly(variables, terms)


@pytest.mark.parametrize("variables", [(), ("x",), ("x", "y"), ("x", "y", "z")])
@pytest.mark.parametrize("max_deg", [0, 1, 2, 3])
def test_random_poly_equals_its_randrange_reference(variables, max_deg):
    for seed in range(50):
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert random_poly(ours, variables, max_deg) == randrange_poly(
                ref, variables, max_deg
            )
        assert ours.getstate() == ref.getstate()


def test_a_negative_degree_bound_is_refused():
    with pytest.raises(ValueError):
        random_poly(random.Random(0), ("x",), -1)
    assert random_poly(random.Random(0), (), -1).is_constant()
