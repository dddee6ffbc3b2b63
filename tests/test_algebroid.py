"""Structure checks, brackets, and the bivector-induced constructions."""

import random
from fractions import Fraction

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
from albv.exterior import A_SIDE, DUAL_SIDE, frame_action, wedge
from albv.randgen import random_poly
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
    act = frame_action(g, 3)
    for i in range(3):
        for j in range(3):
            lhs = b.bracket_sections(act(a.frame(i)), act(a.frame(j)))
            rhs = act(a.bracket_frame(i, j))
            assert lhs == rhs, (i, j)


def test_poisson_structure_accepts_jacobi_bivector():
    pi = PoissonStructure(("x", "y"), {(0, 1): "y"})
    assert pi.jacobiator().is_zero
    assert pi.components == {(0, 1): pi.tangent().poly("y")}


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


def test_cotangent_checks_pass_exactly_when_the_bivector_self_commutes():
    """The property behind checking the cotangent structure only on a
    nonzero kept self-bracket.  In three variables f d/dx ^ d/dy always
    self-commutes, and a bivector with three random components mostly does
    not, so both outcomes are drawn."""
    xyz = ("x", "y", "z")
    rng = random.Random("cotangent-checks")
    outcomes = []
    for trial in range(24):
        keys = [(0, 1)] if trial % 3 == 0 else [(0, 1), (0, 2), (1, 2)]
        comps = {key: random_poly(rng, xyz, 2) for key in keys}
        pi = PoissonStructure(xyz, comps, check=False)
        commutes = pi.jacobiator().is_zero
        assert pi.jacobiator() is pi.jacobiator()
        assert pi.cotangent().validate().ok == commutes
        if commutes:
            assert cotangent_algebroid(pi) is pi.cotangent()
        else:
            with pytest.raises(ValueError, match="cotangent structure checks failed"):
                cotangent_algebroid(pi)
        outcomes.append(commutes)
    assert all(outcomes[::3])
    assert outcomes.count(False) > len(outcomes) // 2


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
    # bypassed, the dual structure checks reject the same section.  Only the
    # (r, r) bracket is zeroed: the dual differential [r, -] is left intact.
    import albv.calculus

    a = tangent_algebroid(("x", "y", "z"))
    r = wedge(a.frame(0), a.frame(1)) + a.poly("y") * wedge(a.frame(1), a.frame(2))
    schouten = albv.calculus.schouten

    def no_self_bracket(a, u, v):
        if u is r and v is r:
            return a.zero_elem(A_SIDE, 3)
        return schouten(a, u, v)

    monkeypatch.setattr(albv.calculus, "schouten", no_self_bracket)
    with pytest.raises(ValueError) as exc:
        triangular_dual_algebroid(a, r)
    assert str(exc.value).startswith("dual structure checks failed:\n")
    assert "anchor compatibility: FAILED" in str(exc.value)


def test_structure_key_bounds():
    with pytest.raises(ValueError, match="i < j"):
        LieAlgebroid((), 2, [(), ()], {(1, 0): {0: 1}})


def test_structure_dict_entries_refuse_a_frame_index_outside_the_rank():
    """-1 used to land on e2 through negative indexing, and 5 raised an
    IndexError; both are refused by name."""
    for k in (-1, 5):
        with pytest.raises(ValueError, match=r"frame index %d outside 0\.\.1" % k):
            lie_algebra(2, {(0, 1): {k: 1}})
    assert lie_algebra(2, {(0, 1): {1: 1}}) == aff1()


def test_cotangent_of_xy_bivector_by_hand():
    """pi = xy d/dx ^ d/dy, so {x, y} = xy.

    The anchor sends dx to pi(dx, -) = xy d/dy and dy to -xy d/dx, and the
    bracket of exact forms is [df, dg] = d{f, g}, so [dx, dy] = d(xy) =
    y dx + x dy.
    """
    pi = PoissonStructure(("x", "y"), {(0, 1): "x*y"})
    cot = cotangent_algebroid(pi)
    xy, zero = cot.poly("x*y"), cot.zero_poly()
    assert cot.anchor == ((zero, xy), (-xy, zero))
    x, y = cot.poly("x"), cot.poly("y")
    assert cot.bracket_frame(0, 1) == y * cot.frame(0) + x * cot.frame(1)


def test_cotangent_of_so3_dual_by_hand():
    """pi = z d/dx ^ d/dy + x d/dy ^ d/dz + y d/dz ^ d/dx, the Lie-Poisson
    structure of so(3)*.

    The anchor is the component matrix of pi, row mu holding pi^{mu nu}, and
    c_ij^k = d pi^ij / d x_k: [dx, dy] = dz, [dy, dz] = dx, [dz, dx] = dy.
    """
    v = ("x", "y", "z")
    pi = PoissonStructure(v, {(0, 1): "z", (1, 2): "x", (0, 2): "-y"})
    expected = LieAlgebroid(
        v,
        3,
        [["0", "z", "-y"], ["-z", "0", "x"], ["y", "-x", "0"]],
        {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}},
    )
    assert cotangent_algebroid(pi) == expected


def test_triangular_dual_of_aff1_by_hand():
    """aff1 has [e1, e2] = e2, and r = e1 ^ e2.

    On the dual, d eps_k = [r, e_k]: [r, e1] = -[e1, e1 ^ e2] = -e1 ^ e2 and
    [r, e2] = -[e2, e1 ^ e2] = e2 ^ e2 = 0.  With d eps(1, 2) = -eps([1, 2])
    this gives [eps1, eps2] = eps1.
    """
    a = aff1()
    dual = triangular_dual_algebroid(a, wedge(a.frame(0), a.frame(1)))
    assert dual == lie_algebra(2, {(0, 1): {0: 1}})


def test_frame_changes_of_aff1_by_hand():
    """Components transform by g, so the old frame is e_k = sum_l g[l][k] f_l.

    The swap gives e1 = f2, e2 = f1, hence [f1, f2] = [e2, e1] = -f1.  The
    diagonal diag(2, 1) gives e1 = 2 f1, e2 = f2, hence [f1, f2] =
    [e1, e2] / 2 = f2 / 2.
    """
    a = aff1()
    assert a.frame_change([[0, 1], [1, 0]]) == lie_algebra(2, {(0, 1): {0: -1}})
    assert a.frame_change([[2, 0], [0, 1]]) == lie_algebra(2, {(0, 1): {1: "1/2"}})


def test_frame_change_round_trip():
    """Each frame matrix is paired with its inverse, written out by hand."""
    so3 = cotangent_algebroid(
        PoissonStructure(("x", "y", "z"), {(0, 1): "z", (1, 2): "x", (0, 2): "-y"})
    )
    f = Fraction
    frames = {
        2: ([[1, 2], [3, 1]], [[f(-1, 5), f(2, 5)], [f(3, 5), f(-1, 5)]]),
        3: (
            [[1, 2, 0], [0, 1, -1], [3, 0, 1]],
            [
                [f(-1, 5), f(2, 5), f(2, 5)],
                [f(3, 5), f(-1, 5), f(-1, 5)],
                [f(3, 5), f(-6, 5), f(-1, 5)],
            ],
        ),
    }
    for a in (aff1(), sl2(), heisenberg(), tangent_algebroid(("x", "y")), so3):
        g, g_inv = frames[a.rank]
        assert a.frame_change(g).frame_change(g_inv) == a


def test_frame_change_expands_each_minor_once(monkeypatch):
    """A 3 x 3 matrix has C(6, 3) = 20 square minors, counting the empty one
    and the determinant; one frame change expands each at most once,
    however many coordinates and coframe sections it moves."""
    import albv.exterior

    expand = albv.exterior._minor_det
    seen = []

    def counting_expand(minor, mat, rows, cols):
        seen.append((rows, cols))
        return expand(minor, mat, rows, cols)

    monkeypatch.setattr(albv.exterior, "_minor_det", counting_expand)
    so3 = cotangent_algebroid(
        PoissonStructure(("x", "y", "z"), {(0, 1): "z", (1, 2): "x", (0, 2): "-y"})
    )
    g = [[1, 2, 0], [0, 1, -1], [3, 0, 1]]
    g_inv = [
        [Fraction(-1, 5), Fraction(2, 5), Fraction(2, 5)],
        [Fraction(3, 5), Fraction(-1, 5), Fraction(-1, 5)],
        [Fraction(3, 5), Fraction(-6, 5), Fraction(-1, 5)],
    ]
    moved = so3.frame_change(g)
    assert seen and len(seen) == len(set(seen)) <= 20
    assert moved.frame_change(g_inv) == so3


def test_frame_change_refuses_a_matrix_of_the_wrong_size():
    for g in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1]]):
        with pytest.raises(ValueError):
            aff1().frame_change(g)
