"""Boundary operators, weight-graded dimension tables, and the Poisson checks."""

import random

import pytest

from albv.algebroid import PoissonStructure, lie_algebra, tangent_algebroid
from albv.bv import TopConnection, generating_operator
from albv.calculus import lichnerowicz
from albv.exterior import A_SIDE, DUAL_SIDE, star, wedge
from albv.homology import (
    anticommutator_defect_check,
    betti_table,
    boundary,
    boundary_betti,
    cohomology_betti,
    duality_check,
    homotopy_invariance_check,
    kb_betti,
    koszul_brylinski,
    lichnerowicz_betti,
    lie_algebra_boundary,
    modular_relation_check,
    modular_vector_field,
    monomial_basis_elems,
    star_conjugation_check,
    unimodular_duality_check,
)
from albv.randgen import random_elem
from conftest import aff1, heisenberg, sl2

XY = ("x", "y")


def tuple_of(table, w=0):
    return tuple(table.entry(k, w) for k in range(table.rank + 1))


def test_boundary_frozen_values_on_the_plane():
    a = tangent_algebroid(XY)
    conn = TopConnection(a)
    x = a.poly("x")
    assert boundary(conn, x * a.frame(0)).scalar() == a.poly("1")
    assert boundary(conn, x * wedge(a.frame(0), a.frame(1))) == -a.frame(1)


def test_boundary_squares_to_zero():
    rng = random.Random(3)
    for a in (tangent_algebroid(XY), sl2()):
        conn = TopConnection(a)
        for degree in range(a.rank + 1):
            for _ in range(4):
                u = random_elem(rng, a, A_SIDE, degree)
                assert boundary(conn, boundary(conn, u)).is_zero


def test_lie_algebra_boundary_values():
    a = aff1()
    assert lie_algebra_boundary(a, wedge(a.frame(0), a.frame(1))) == -a.frame(1)
    assert lie_algebra_boundary(a, a.scalar(1)).is_zero

    s = sl2()
    assert lie_algebra_boundary(s, wedge(s.frame(0), s.frame(1))) == -2 * s.frame(1)
    assert lie_algebra_boundary(s, wedge(s.frame(1), s.frame(2))) == -s.frame(0)


def test_lie_algebra_boundary_needs_empty_base():
    a = tangent_algebroid(XY)
    with pytest.raises(ValueError, match="empty base"):
        lie_algebra_boundary(a, a.frame(0))


def test_chain_boundary_matches_operator_for_unimodular_algebra():
    # the trace form of sl2 vanishes, so the pairing adjoint and the
    # volume-based operator agree on the nose
    s = sl2()
    conn = TopConnection(s)
    for degree in range(s.rank + 1):
        for u in monomial_basis_elems((), s.rank, A_SIDE, degree, 0):
            lhs = lie_algebra_boundary(s, u)
            rhs = generating_operator(conn, u)
            assert (lhs - rhs).is_zero


def test_monomial_basis_count():
    elems = monomial_basis_elems(XY, 2, A_SIDE, 1, 2)
    assert len(elems) == 6
    assert all(e.degree == 1 for e in elems)
    # no monomial has negative weight, in one variable as in several
    assert monomial_basis_elems(("x",), 1, A_SIDE, 0, -1) == []
    assert monomial_basis_elems(XY, 2, A_SIDE, 0, -1) == []


def test_cohomology_tables_for_small_algebras():
    assert tuple_of(cohomology_betti(lie_algebra(3, {}))) == (1, 3, 3, 1)
    assert tuple_of(cohomology_betti(aff1())) == (1, 1, 0)
    assert tuple_of(cohomology_betti(sl2())) == (1, 0, 0, 1)
    assert tuple_of(cohomology_betti(heisenberg())) == (1, 2, 2, 1)


def test_cohomology_table_flags_for_empty_base():
    table = cohomology_betti(sl2())
    assert table.max_weight == 0
    assert table.homogeneous and not table.capped
    assert table.shift == 0


def test_boundary_tables_for_small_algebras():
    assert tuple_of(boundary_betti(TopConnection(aff1()))) == (0, 1, 1)
    assert tuple_of(boundary_betti(TopConnection(sl2()))) == (1, 0, 0, 1)
    assert tuple_of(boundary_betti(TopConnection(heisenberg()))) == (1, 2, 2, 1)


def test_polynomial_tangent_tables_are_poincare_trivial():
    # on the line d(f) = f' dx, so only the constants survive in degree 0 and
    # every x^n dx is exact; the boundary sends f e1 to -f', so only the
    # constant multiples of e1 survive and every polynomial is a boundary.
    # The plane is the same in each variable.
    for variables in (("x",), XY):
        a = tangent_algebroid(variables)
        coh = cohomology_betti(a, max_weight=4)
        assert coh.shift == -1 and coh.homogeneous
        hom = boundary_betti(TopConnection(a), max_weight=4)
        assert hom.shift == -1
        for k in range(a.rank + 1):
            for w in range(5):
                assert coh.entry(k, w) == (1 if (k, w) == (0, 0) else 0), variables
                assert hom.entry(k, w) == (1 if (k, w) == (a.rank, 0) else 0), variables


def test_each_weight_window_is_ranked_once(monkeypatch):
    import albv.homology

    calls = []
    rank = albv.homology.matrix_rank

    def counting_rank(rows):
        calls.append(len(rows))
        return rank(rows)

    monkeypatch.setattr(albv.homology, "matrix_rank", counting_rank)
    so3 = PoissonStructure(("x", "y", "z"), {(0, 1): "z", (1, 2): "x", (0, 2): "-y"})
    t3 = TopConnection(tangent_algebroid(("x", "y", "z")))
    for make in (
        lambda: kb_betti(so3, max_weight=3),
        lambda: boundary_betti(t3, max_weight=3, force_capped=True),
    ):
        calls.clear()
        table = make()
        assert len(table.entries) == 16
        assert 0 < len(calls) <= len(table.entries)


def test_duality_reverses_the_degree():
    for a in (aff1(), sl2(), heisenberg(), tangent_algebroid(XY)):
        result = duality_check(a, max_weight=3)
        assert result["ok"], result["mismatches"]


def test_capped_table_of_the_plane():
    table = boundary_betti(TopConnection(tangent_algebroid(XY)), 3, force_capped=True)
    assert table.capped and not table.homogeneous and table.shift is None
    for w in range(4):
        assert table.entry(2, w) == 1
        assert table.entry(1, w) == w + 2
        assert table.entry(0, w) == w + 1


def test_weight_raising_operator_is_refused():
    a = tangent_algebroid(("x",))

    def op(w):
        from albv.calculus import differential

        return a.poly("x^2") * differential(a, w)

    with pytest.raises(ValueError, match="raises weight by 1"):
        betti_table(("x",), 1, DUAL_SIDE, op, 1, 2)


def test_star_conjugation_of_the_boundary():
    for a in (sl2(), tangent_algebroid(XY)):
        result = star_conjugation_check(a, a.volume(1), max_weight=2)
        assert result["ok"], result["failures"]
        assert result["count"] > 0


def test_star_conjugation_is_a_second_route(monkeypatch):
    # a sign flip of star in both bv and homology cancels in any check that
    # restates the boundary through star; the frame-wise route uses no star,
    # so it sees the flip
    import albv.bv
    import albv.homology

    def flipped(elem, vol):
        return -star(elem, vol)

    monkeypatch.setattr(albv.bv, "star", flipped)
    monkeypatch.setattr(albv.homology, "star", flipped)
    for a in (sl2(), tangent_algebroid(XY)):
        result = star_conjugation_check(a, a.volume(1), max_weight=2)
        assert not result["ok"]
        assert result["failures"]


def test_koszul_brylinski_small_values():
    pi = PoissonStructure(XY, {(0, 1): "1"})
    t = pi.tangent()
    omega = t.poly("x") * t.coframe(1)
    image = koszul_brylinski(pi, omega)
    assert image.side == DUAL_SIDE and image.degree == 0
    assert image.scalar() == t.poly("1")
    assert koszul_brylinski(pi, t.poly("x") * t.coframe(0)).is_zero


def test_koszul_brylinski_squares_to_zero():
    pi = PoissonStructure(XY, {(0, 1): "y"})
    t = pi.tangent()
    rng = random.Random(13)
    for degree in range(1, 3):
        for _ in range(5):
            omega = random_elem(rng, t, DUAL_SIDE, degree)
            assert koszul_brylinski(pi, koszul_brylinski(pi, omega)).is_zero


def test_modular_vector_fields():
    linear = PoissonStructure(XY, {(0, 1): "y"})
    nu = modular_vector_field(linear)
    assert nu == linear.tangent().frame(0)
    assert lichnerowicz(linear, nu).is_zero
    flat = PoissonStructure(XY, {(0, 1): "1"})
    assert modular_vector_field(flat).is_zero
    # constant volume rescalings do not move the field
    assert modular_vector_field(linear, vol_coeff=7) == nu


def test_modular_relation_sign_is_uniform():
    linear = PoissonStructure(XY, {(0, 1): "y"})
    result = modular_relation_check(linear)
    assert result["ok"], result["failures"]
    assert result["sign"] == -1
    flat = PoissonStructure(XY, {(0, 1): "1"})
    result = modular_relation_check(flat)
    assert result["ok"]
    assert result["sign"] is None


def test_symplectic_plane_homology_tables():
    pi = PoissonStructure(XY, {(0, 1): "1"})
    hom = kb_betti(pi, max_weight=4)
    coh = lichnerowicz_betti(pi, max_weight=4)
    for k in range(3):
        for w in range(5):
            assert hom.entry(k, w) == (1 if (k, w) == (2, 0) else 0)
            assert coh.entry(k, w) == (1 if (k, w) == (0, 0) else 0)
    result = unimodular_duality_check(pi, max_weight=4)
    assert result["ok"] and not result["skipped"]


def test_unimodular_duality_skips_when_modular_field_survives():
    pi = PoissonStructure(XY, {(0, 1): "y"})
    result = unimodular_duality_check(pi)
    assert result["skipped"]
    assert result["modular_field"] == "(1) e1"


def test_anticommutator_defect_is_the_modular_derivative():
    pi = PoissonStructure(XY, {(0, 1): "y"})
    probes = []
    for k in range(3):
        for w in range(3):
            probes.extend(monomial_basis_elems(XY, 2, A_SIDE, k, w))
    result = anticommutator_defect_check(pi, probes, modular_sign=-1)
    assert result["oracle_ok"], result["oracle_failures"]
    assert result["own_sign"] == 1
    assert result["own_ok"], result["own_failures"]
    assert result["operator_of_bivector"] == "(1) e1"
    assert result["operator_of_bivector"] == result["modular_field"]
    # with the recorded global sign the literal comparison cannot hold
    assert not result["literal_ok"]
    assert result["literal_failures"]


def test_anticommutator_defect_vanishes_for_constant_bivector():
    pi = PoissonStructure(XY, {(0, 1): "1"})
    probes = []
    for k in range(3):
        probes.extend(monomial_basis_elems(XY, 2, A_SIDE, k, 1))
    result = anticommutator_defect_check(pi, probes, modular_sign=-1)
    assert result["oracle_ok"] and result["own_ok"] and result["literal_ok"]
    assert result["own_sign"] is None


def test_homotopy_check_mechanics():
    a = tangent_algebroid(("x",))
    zero = a.zero_elem(DUAL_SIDE, 1)

    same = homotopy_invariance_check(a, zero, zero, max_weight=3)
    assert same["ok"] and not same["inconclusive"]

    b = tangent_algebroid(XY)
    not_flat = homotopy_invariance_check(
        b, b.zero_elem(DUAL_SIDE, 1), b.poly("x") * b.coframe(1)
    )
    assert not_flat["inconclusive"]
    assert "not flat" in not_flat["reason"]

    from albv.calculus import differential

    steep = differential(a, a.scalar("x^5", DUAL_SIDE))
    small_cap = homotopy_invariance_check(a, zero, steep, max_weight=3)
    assert small_cap["inconclusive"]
    assert "cap too small" in small_cap["reason"]


def test_homotopy_check_detects_the_twisted_line_discrepancy():
    # d(x) is flat, but the twisted kernel has no polynomial members, so the
    # capped tables genuinely disagree with the untwisted ones
    a = tangent_algebroid(("x",))
    zero = a.zero_elem(DUAL_SIDE, 1)
    from albv.calculus import differential

    alpha = differential(a, a.scalar("x", DUAL_SIDE))
    result = homotopy_invariance_check(a, zero, alpha, max_weight=4)
    assert not result["inconclusive"]
    assert not result["ok"]
    assert result["first"].entry(1, 0) == 1
    assert result["second"].entry(1, 0) == 0
    assert {"k": 1, "w": 0, "first": 1, "second": 0} in result["mismatches"]


def test_betti_table_serialization():
    table = cohomology_betti(sl2())
    text = table.to_text()
    assert "k=0" in text and "w=0" in text
    data = table.to_json()
    assert len(data["records"]) == 4
    assert {"k": 0, "w": 0, "dim": 1} in data["records"]
