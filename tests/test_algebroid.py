"""Structure checks, brackets, and the bivector-induced constructions."""

import pytest

from albv.algebroid import (
    LieAlgebroid,
    PoissonStructure,
    algebroid_from_differential,
    cotangent_algebroid,
    custom_algebroid,
    lie_algebra,
    tangent_algebroid,
    triangular_dual_algebroid,
)
from albv.exterior import A_SIDE, DUAL_SIDE, frame_change_elem, wedge
from conftest import aff1, heisenberg, sl2


def test_standard_examples_validate():
    for a in (
        tangent_algebroid(("x", "y")),
        tangent_algebroid(("x", "y", "z")),
        aff1(),
        sl2(),
        heisenberg(),
    ):
        report = a.validate()
        assert report.ok, report.lines()


def test_sl2_frame_brackets():
    a = sl2()
    assert a.bracket_frame(0, 1) == 2 * a.frame(1)
    assert a.bracket_frame(0, 2) == -2 * a.frame(2)
    assert a.bracket_frame(1, 2) == a.frame(0)
    assert a.bracket_frame(1, 0) == -2 * a.frame(1)
    assert a.bracket_frame(0, 0).is_zero


def test_jacobi_witness_for_broken_sl2():
    bad = lie_algebra(3, {(0, 1): {0: 1, 1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
    report = bad.validate()
    assert not report.ok
    assert report.anchor_failures == []
    assert report.jacobi_failures == [
        {"i": 1, "j": 2, "k": 3, "residual": "(-2) e3"}
    ]


def test_custom_factory_rejects_incompatible_anchor():
    # anchor images [d/dx, x d/dx] do not commute, but the bracket is zero
    with pytest.raises(ValueError, match="structure checks failed"):
        custom_algebroid(("x",), 2, [["1"], ["x"]], {})


def test_tangent_section_brackets():
    a = tangent_algebroid(("x", "y"))
    x = a.poly("x")
    assert a.bracket_sections(x * a.frame(0), a.frame(0)) == -a.frame(0)
    assert a.bracket_sections(a.frame(0), x * a.frame(1)) == a.frame(1)
    assert a.anchor_apply(x * a.frame(0), a.poly("y")).is_zero
    assert a.anchor_apply(x * a.frame(0), x) == x


def test_frame_change_is_natural():
    a = sl2()
    g = [[1, 1, 0], [0, 1, 0], [2, 0, 1]]
    b = a.frame_change(g)
    assert b.validate().ok
    for i in range(3):
        for j in range(3):
            lhs = b.bracket_sections(
                frame_change_elem(g, a.frame(i)), frame_change_elem(g, a.frame(j))
            )
            rhs = frame_change_elem(g, a.bracket_frame(i, j))
            assert lhs == rhs, (i, j)


def test_poisson_structure_accepts_jacobi_bivector():
    pi = PoissonStructure(("x", "y"), {(0, 1): "y"})
    assert pi.jacobiator().is_zero
    assert pi.matrix_entry(0, 1) == pi.tangent().poly("y")
    assert pi.matrix_entry(1, 0) == -pi.tangent().poly("y")


def test_poisson_bivector_is_built_once():
    pi = PoissonStructure(("x", "y", "z"), {(0, 1): "z", (1, 2): "x", (0, 2): "-y"})
    elem = pi.as_elem()
    assert pi.as_elem() is elem
    assert (elem.side, elem.degree, elem.rank) == (A_SIDE, 2, 3)
    assert elem.components == pi.components


def test_structure_coeff_misses_share_one_zero():
    h = heisenberg()
    zero = h.structure_coeff(0, 0, 0)
    assert zero.is_zero
    assert h.structure_coeff(0, 2, 1) is zero
    assert h.structure_coeff(2, 1, 0) is h.structure_coeff(1, 2, 2) is zero
    assert h.structure_coeff(1, 0, 2) == -h.structure_coeff(0, 1, 2) == -1


def test_poisson_structure_rejects_non_jacobi_bivector():
    with pytest.raises(ValueError, match="does not self-commute"):
        PoissonStructure(("x", "y", "z"), {(0, 1): "1", (1, 2): "y"})


def test_three_term_bivector_with_linear_middle_is_fine():
    # the x-linear variant does satisfy the Jacobi identity
    pi = PoissonStructure(("x", "y", "z"), {(0, 1): "1", (1, 2): "x"})
    assert pi.jacobiator().is_zero


def test_poisson_bracket_values():
    pi = PoissonStructure(("x", "y"), {(0, 1): "y"})
    a = pi.tangent()
    x, y = a.poly("x"), a.poly("y")
    assert pi.poisson_bracket(x, y) == y
    assert pi.poisson_bracket(y, x) == -y
    assert pi.poisson_bracket(x * y, y) == y * y


def test_cotangent_algebroid_of_symplectic_plane():
    pi = PoissonStructure(("x", "y"), {(0, 1): "1"})
    cot = cotangent_algebroid(pi)
    assert cot.structure == {}
    assert cot.anchor_frame(0, cot.poly("y")) == cot.poly("1")
    assert cot.anchor_frame(0, cot.poly("x")).is_zero
    assert cot.anchor_frame(1, cot.poly("x")) == cot.poly("-1")
    assert cot.validate().ok


def test_cotangent_algebroid_of_linear_bivector():
    pi = PoissonStructure(("x", "y"), {(0, 1): "y"})
    cot = cotangent_algebroid(pi)
    assert cot.validate().ok
    assert cot.bracket_frame(0, 1) == cot.frame(1)


def test_cotangent_check_flags_bad_bivector():
    pi = PoissonStructure(("x", "y", "z"), {(0, 1): "1", (1, 2): "y"}, check=False)
    with pytest.raises(ValueError, match="cotangent structure checks failed"):
        cotangent_algebroid(pi)


def test_triangular_dual_matches_cotangent_construction():
    a = tangent_algebroid(("x", "y"))
    r = wedge(a.frame(0), a.frame(1))
    dual = triangular_dual_algebroid(a, r)
    cot = cotangent_algebroid(PoissonStructure(("x", "y"), {(0, 1): "1"}))
    assert dual == cot


def test_triangular_dual_rejects_non_commuting_section():
    a = tangent_algebroid(("x", "y", "z"))
    r = wedge(a.frame(0), a.frame(1)) + a.poly("y") * wedge(a.frame(1), a.frame(2))
    with pytest.raises(ValueError, match="does not self-commute"):
        triangular_dual_algebroid(a, r)


def test_reconstruction_from_differential_data():
    a = aff1()
    d_coframe = [
        a.zero_elem(DUAL_SIDE, 2),
        -wedge(a.coframe(0), a.coframe(1)),
    ]
    rebuilt = algebroid_from_differential((), 2, [], d_coframe)
    assert rebuilt == a


def test_reconstruction_rejects_a_differential_that_does_not_square_to_zero():
    # d of the sl2 coframe with an extra e1 in [e1, e2]: Jacobi fails on (1, 2, 3)
    a = sl2()
    e = a.coframe
    d_coframe = [
        -wedge(e(0), e(1)) - wedge(e(1), e(2)),
        -2 * wedge(e(0), e(1)),
        2 * wedge(e(0), e(2)),
    ]
    with pytest.raises(ValueError) as exc:
        algebroid_from_differential((), 3, [], d_coframe)
    assert str(exc.value).startswith("differential does not square to zero:\n")
    assert "sections (1, 2, 3): residual (-2) e3" in str(exc.value)
    assert algebroid_from_differential((), 3, [], d_coframe, check=False).rank == 3


def test_triangular_dual_reports_failed_dual_structure_checks(monkeypatch):
    # The self-bracket gate stops every non-commuting section first; with it
    # bypassed, the dual structure checks reject the same section.
    import albv.calculus

    a = tangent_algebroid(("x", "y", "z"))
    r = wedge(a.frame(0), a.frame(1)) + a.poly("y") * wedge(a.frame(1), a.frame(2))
    monkeypatch.setattr(
        albv.calculus, "schouten", lambda a, u, v: a.zero_elem(A_SIDE, 3)
    )
    with pytest.raises(ValueError) as exc:
        triangular_dual_algebroid(a, r)
    assert str(exc.value).startswith("dual structure checks failed:\n")
    assert "anchor compatibility: FAILED" in str(exc.value)


def test_structure_key_bounds():
    with pytest.raises(ValueError, match="i < j"):
        LieAlgebroid((), 2, [(), ()], {(1, 0): {0: 1}})
