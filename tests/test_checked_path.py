"""Closed operations build through the constructors' checked path.

``Poly`` and ``GradedElem`` validate outside input once, in a direct
constructor call.  Closed operations, whose keys the package built, pass
``_checked=True`` and skip the per-key checks.  Each output here is rebuilt
through the validating path from its own components and terms: the
validating constructor must accept it and build an equal object, with the
same keys in the same order and the same coefficient types; the components
of an element are sorted.
"""

import random
from fractions import Fraction

import pytest

from albv.algebroid import PoissonStructure, cotangent_algebroid
from albv.calculus import differential, schouten
from albv.exterior import (
    A_SIDE,
    DUAL_SIDE,
    GradedElem,
    Volume,
    as_side,
    contract,
    elem_from_terms,
    frame_action,
    pairing,
    star,
    star_inv,
    top_elem,
    wedge,
)
from albv.homology import monomial_basis_elems
from albv.poly import Poly
from albv.randgen import random_elem, random_frame_matrix, random_poly

XYZ = ("x", "y", "z")
SO3 = {(0, 1): "z", (1, 2): "x", (0, 2): "-y"}


def rebuilds(out):
    """Rebuild ``out`` through the validating constructor and compare."""
    if isinstance(out, Poly):
        again = Poly(out.variables, dict(out.terms))
        assert again == out
        assert list(again.terms.items()) == list(out.terms.items())
        assert [type(c) for c in again.terms.values()] == [
            type(c) for c in out.terms.values()
        ]
        return
    assert list(out.components) == sorted(out.components)
    for coeff in out.components.values():
        rebuilds(coeff)
    comps = dict(out.components)
    again = GradedElem(out.side, out.degree, out.rank, out.variables, comps)
    assert again == out
    assert list(again.components) == list(out.components)


def poly_outputs(rng):
    p, q = random_poly(rng, XYZ, 3), random_poly(rng, XYZ, 2)
    half = p * Fraction(1, 2)
    yield from (p, q, p + q, p - q, -p, p * q, half, half * 2, half + half)
    yield from (p / 3, p ** 2, 2 + p, 1 - p, p + Fraction(1, 2))
    yield from (p.partial(mu) for mu in range(len(XYZ)))


def elem_outputs(rng, a):
    u = random_elem(rng, a, A_SIDE, rng.randrange(a.rank + 1))
    v = random_elem(rng, a, A_SIDE, u.degree)
    w = random_elem(rng, a, A_SIDE, rng.randrange(a.rank + 1))
    omega = random_elem(rng, a, DUAL_SIDE, rng.randrange(a.rank + 1))
    p = random_poly(rng, XYZ)
    vol = Volume(Fraction(2, 3), a.rank, XYZ)
    yield from (u, v, w, omega, u + v, u - v, -u, u * 3, u * Fraction(1, 2), u * p)
    yield from (as_side(u, DUAL_SIDE), star(omega, vol), star_inv(u, vol))
    yield from (wedge(u, w), schouten(a, u, w), differential(a, omega))
    if omega.degree <= u.degree:
        yield contract(omega, u)
    yield frame_action(random_frame_matrix(rng, a.rank), a.rank)(omega)
    acc = {}
    for idx, coeff in u.components.items():
        acc[idx] = {expo: c * Fraction(1, 2) for expo, c in coeff.terms.items()}
    yield elem_from_terms(A_SIDE, u.degree, a.rank, XYZ, acc)


def structure_outputs(rng, a):
    """Outputs of the structure's accessors and anchor, of ``pairing`` and of
    ``Poly.constant``, which build through the checked path or are kept on
    the structure."""
    p = random_poly(rng, XYZ)
    x = random_elem(rng, a, A_SIDE, 1)
    u = random_elem(rng, a, A_SIDE, 2)
    theta = random_elem(rng, a, DUAL_SIDE, 2)
    values = (0, 3, Fraction(4, 2), Fraction(-1, 3), "2/5")
    yield from (Poly.constant(c, XYZ) for c in values)
    yield from (a.frame(i) for i in range(a.rank))
    yield from (a.coframe(i) for i in range(a.rank))
    yield from (a.top(), top_elem(a.rank, XYZ, DUAL_SIDE))
    yield top_elem(a.rank, XYZ, coeff=Fraction(2, 3))
    yield from (a.anchor_frame(i, p) for i in range(a.rank))
    yield from (a.anchor_apply(x, p), pairing(theta, u))


def test_closed_operations_pass_the_validating_constructor():
    a = cotangent_algebroid(PoissonStructure(XYZ, SO3))
    seen = nonzero = 0
    for seed in range(20):
        rng = random.Random(seed)
        outputs = list(poly_outputs(rng)) + list(elem_outputs(rng, a))
        for out in outputs + list(structure_outputs(rng, a)):
            rebuilds(out)
            seen += 1
            nonzero += bool(out)
    assert nonzero > seen * 3 // 4


@pytest.mark.parametrize("variables", [(), ("x",), XYZ])
def test_basis_monomials_pass_the_validating_constructor(variables):
    seen = 0
    for side in (A_SIDE, DUAL_SIDE):
        for degree in range(4):
            for weight in range(3):
                for elem in monomial_basis_elems(variables, 3, side, degree, weight):
                    rebuilds(elem)
                    seen += 1
    assert seen == 2 * 8 * {0: 1, 1: 3, 3: 1 + 3 + 6}[len(variables)]


def test_fixed_elements_are_built_once_per_structure():
    a = cotangent_algebroid(PoissonStructure(XYZ, SO3))
    assert a.frame(0) is a.frame(0)
    assert a.coframe(2) is a.coframe(2)
    assert a.top() is a.top()
    assert a.volume(-1) is a.volume(Fraction(-1))
    assert a.frame(0) is not a.frame(1)
    assert a.top() == top_elem(a.rank, XYZ)
    assert a.volume(1) == Volume(1, a.rank, XYZ)
    # what the builders refuse is refused again, not served from the store
    for bad in (-1, a.rank):
        with pytest.raises(ValueError):
            a.frame(bad)
    with pytest.raises(TypeError):
        a.frame(1.0)
    with pytest.raises(TypeError):
        top_elem(a.rank, XYZ, coeff=1.0)
