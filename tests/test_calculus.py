"""Differential, graded bracket, and the dual-structure compatibility check."""

import random

import pytest

from albv.algebroid import (
    PoissonStructure,
    cotangent_algebroid,
    lie_algebra,
    tangent_algebroid,
)
from albv.calculus import (
    bialgebroid_check,
    differential,
    dual_differential,
    lichnerowicz,
    schouten,
    schouten_oracle,
)
from albv.exterior import A_SIDE, DUAL_SIDE, GradedElem, basis_tuples, wedge
from albv.poly import Poly
from albv.randgen import random_elem
from conftest import aff1, counting, heisenberg, sl2


def test_differential_of_functions_uses_the_anchor():
    a = tangent_algebroid(("x", "y"))
    f = a.scalar("x*y", DUAL_SIDE)
    df = differential(a, f)
    assert df == a.poly("y") * a.coframe(0) + a.poly("x") * a.coframe(1)


def test_differential_of_coframe_sections():
    a = aff1()
    assert differential(a, a.coframe(0)).is_zero
    assert differential(a, a.coframe(1)) == -wedge(a.coframe(0), a.coframe(1))

    s = sl2()
    e1, e2, e3 = s.coframe(0), s.coframe(1), s.coframe(2)
    assert differential(s, e1) == -wedge(e2, e3)
    assert differential(s, e2) == -2 * wedge(e1, e2)
    assert differential(s, e3) == 2 * wedge(e1, e3)

    h = heisenberg()
    assert differential(h, h.coframe(2)) == -wedge(h.coframe(0), h.coframe(1))


def test_differential_rejects_multivectors():
    a = tangent_algebroid(("x",))
    with pytest.raises(ValueError, match="side A\\*"):
        differential(a, a.frame(0))


def test_differential_squares_to_zero():
    rng = random.Random(11)
    for a in (tangent_algebroid(("x", "y")), sl2(), heisenberg()):
        for degree in range(a.rank):
            for _ in range(5):
                w = random_elem(rng, a, DUAL_SIDE, degree)
                assert differential(a, differential(a, w)).is_zero


def test_schouten_small_frozen_values():
    a = tangent_algebroid(("x", "y"))
    x = a.poly("x")
    dx, dy = a.frame(0), a.frame(1)
    assert schouten(a, x * dx, dx) == -dx
    assert schouten(a, dx, x * dy) == dy
    assert schouten(a, wedge(dx, dy), a.scalar(x)) == -dy
    functions = schouten(a, a.scalar(x), a.scalar("y"))
    assert functions.is_zero and functions.degree == -1
    assert schouten_oracle(a, a.scalar(x), a.scalar("y")) == functions


def poisson_cotangents():
    """Cotangent structures with a polynomial anchor and polynomial brackets."""
    so3 = PoissonStructure(("x", "y", "z"), {(0, 1): "z", (1, 2): "x", (0, 2): "-y"})
    quadratic = PoissonStructure(("x", "y"), {(0, 1): "x*y"})
    return cotangent_algebroid(so3), cotangent_algebroid(quadratic)


def test_schouten_graded_laws_on_samples():
    rng = random.Random(23)
    for a in (tangent_algebroid(("x", "y")), sl2(), *poisson_cotangents()):
        for _ in range(8):
            du = rng.randrange(0, a.rank + 1)
            dv = rng.randrange(0, a.rank + 1)
            dw = rng.randrange(1, a.rank + 1)
            u = random_elem(rng, a, A_SIDE, du)
            v = random_elem(rng, a, A_SIDE, dv)
            w = random_elem(rng, a, A_SIDE, dw)
            sign = -1 if ((du - 1) * (dv - 1)) % 2 else 1
            assert (schouten(a, u, v) + sign * schouten(a, v, u)).is_zero
            jacobi = (
                schouten(a, u, schouten(a, v, w))
                - schouten(a, schouten(a, u, v), w)
                - sign * schouten(a, v, schouten(a, u, w))
            )
            assert jacobi.is_zero
            dsign = -1 if ((du - 1) * dv) % 2 else 1
            leibniz = (
                schouten(a, u, wedge(v, w))
                - wedge(schouten(a, u, v), w)
                - dsign * wedge(v, schouten(a, u, w))
            )
            assert leibniz.is_zero


def test_schouten_agrees_with_pairing_route():
    rng = random.Random(5)
    for a in (tangent_algebroid(("x", "y")), sl2(), aff1(), *poisson_cotangents()):
        for _ in range(10):
            u = random_elem(rng, a, A_SIDE, rng.randrange(0, a.rank + 1))
            v = random_elem(rng, a, A_SIDE, rng.randrange(0, a.rank + 1))
            assert (schouten(a, u, v) - schouten_oracle(a, u, v)).is_zero


def test_schouten_builds_one_element_per_call(monkeypatch):
    a = poisson_cotangents()[0]
    rng = random.Random(3)
    u = random_elem(rng, a, A_SIDE, 2)
    v = random_elem(rng, a, A_SIDE, 1)
    assert len(u.components) > 1 and len(v.components) > 1
    built = []
    init = GradedElem.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GradedElem, "__init__", counting_init)
    w = schouten(a, u, v)
    assert len(built) == 1 and not w.is_zero


def test_lichnerowicz_operator():
    pi = PoissonStructure(("x", "y"), {(0, 1): "1"})
    a = pi.tangent()
    assert lichnerowicz(pi, a.scalar("x")) == -a.frame(1)
    rng = random.Random(7)
    curved = PoissonStructure(("x", "y"), {(0, 1): "y"})
    b = curved.tangent()
    for degree in range(3):
        for _ in range(4):
            u = random_elem(rng, b, A_SIDE, degree)
            assert lichnerowicz(curved, lichnerowicz(curved, u)).is_zero


def test_dual_differential_retags_sides():
    a_star = lie_algebra(3, {(0, 1): {1: 1}})
    a = sl2()
    image = dual_differential(a_star, a.frame(1))
    assert image.side == A_SIDE
    assert image == -wedge(a.frame(0), a.frame(1))
    assert dual_differential(a_star, a.frame(0)).is_zero


def test_bialgebroid_check_passes_for_bivector_dual():
    pi = PoissonStructure(("x", "y"), {(0, 1): "y"})
    a = pi.tangent()
    result = bialgebroid_check(a, cotangent_algebroid(pi))
    assert result["ok"], result["failures"]


def test_bialgebroid_check_finds_incompatible_pairings():
    a = sl2()
    a_star = lie_algebra(3, {(0, 1): {1: 1}})
    result = bialgebroid_check(a, a_star)
    assert not result["ok"]
    assert [rec["pair"] for rec in result["failures"]] == ["frame (2, 3)"]


@pytest.mark.parametrize("structure", ["sl2", "plane"])
def test_differential_builds_one_poly_per_output_coefficient(monkeypatch, structure):
    """Every summand of an output coefficient is merged into one term dict,
    so a k-form costs one element and one Poly per (k+1)-tuple that gets a
    term, plus the partial derivatives the anchor takes: no running sums.

    Every component of the forms is nonzero, so every target of degree
    k + 1 gets a term, except on sl2 in degree 0, where the anchor is zero.
    """
    a = sl2() if structure == "sl2" else tangent_algebroid(("x", "y"))
    coeff = a.poly("2 + x*y") if a.base_dim else a.poly("2")
    for k in range(a.rank + 1):
        comps = {idx: coeff for idx in basis_tuples(a.rank, k)}
        omega = GradedElem(DUAL_SIDE, k, a.rank, a.variables, comps)
        with counting(monkeypatch, GradedElem) as elems, counting(
            monkeypatch, Poly
        ) as polys, counting(monkeypatch, Poly, "partial") as partials:
            differential(a, omega)
        targets = len(basis_tuples(a.rank, k + 1)) if k or a.base_dim else 0
        assert len(elems) == 1, (structure, k)
        assert len(polys) == targets + len(partials), (structure, k)
