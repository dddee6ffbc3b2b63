"""Generating operators, curvature, and connections on the bundle itself."""

import random
from fractions import Fraction

import pytest

from albv.algebroid import tangent_algebroid
from albv.bv import (
    AConnectionOnA,
    TopConnection,
    connection_from_operator,
    curvature,
    divergence,
    generating_operator,
    operator_difference,
    torsion_free_generator,
)
from albv.calculus import differential, schouten
from albv.exterior import (
    A_SIDE,
    DUAL_SIDE,
    GradedElem,
    basis_tuples,
    contract_or_zero,
    frame_action,
    pairing,
    wedge,
)
from albv.randgen import random_elem, random_section
from conftest import counting, sl2

XY = ("x", "y")


def plane():
    return tangent_algebroid(XY)


def curved_connection(a):
    return TopConnection(a, a.poly("x") * a.coframe(1))


def test_operator_frozen_values_on_the_plane():
    a = plane()
    conn = TopConnection(a)
    x = a.poly("x")
    assert generating_operator(conn, x * a.frame(0)).scalar() == -x.partial(0)
    assert generating_operator(conn, x * wedge(a.frame(0), a.frame(1))) == -a.frame(1)
    assert generating_operator(conn, a.top()).is_zero


def test_operator_kills_functions_and_above_top():
    a = plane()
    conn = curved_connection(a)
    f = a.scalar("x*y + 3")
    image = generating_operator(conn, f)
    assert image.is_zero and image.degree == -1
    above = wedge(a.top(), a.frame(0))
    image = generating_operator(conn, above)
    assert image.is_zero and image.degree == 2


def test_connection_form_must_live_on_the_dual():
    a = plane()
    with pytest.raises(ValueError, match="degree-1 side A\\*"):
        TopConnection(a, a.frame(0))
    with pytest.raises(ValueError, match="degree-1 side A\\*"):
        TopConnection(a, wedge(a.coframe(0), a.coframe(1)))


def test_operator_generates_the_bracket():
    rng = random.Random(41)
    cases = [
        (plane(), lambda a: curved_connection(a)),
        (sl2(), lambda a: TopConnection(a)),
    ]
    for a, make in cases:
        conn = make(a)
        for _ in range(10):
            u = random_elem(rng, a, A_SIDE, rng.randrange(0, a.rank + 1))
            v = random_elem(rng, a, A_SIDE, rng.randrange(0, a.rank + 1))
            sign = -1 if u.degree % 2 else 1
            expanded = (
                generating_operator(conn, wedge(u, v))
                - wedge(generating_operator(conn, u), v)
                - sign * wedge(u, generating_operator(conn, v))
            )
            residual = schouten(a, u, v) - sign * expanded
            assert residual.is_zero


def test_square_is_minus_curvature_contraction():
    a = plane()
    conn = curved_connection(a)
    assert curvature(conn) == wedge(a.coframe(0), a.coframe(1))
    twice = generating_operator(conn, generating_operator(conn, a.top()))
    assert twice.scalar() == a.poly("-1")
    rng = random.Random(43)
    r = curvature(conn)
    for degree in range(3):
        for _ in range(4):
            u = random_elem(rng, a, A_SIDE, degree)
            twice = generating_operator(conn, generating_operator(conn, u))
            assert (twice + contract_or_zero(r, u)).is_zero


def test_flat_connection_squares_to_zero():
    a = plane()
    g = a.scalar("x*y", DUAL_SIDE)
    conn = TopConnection(a, differential(a, g))
    assert curvature(conn).is_zero
    rng = random.Random(47)
    for degree in range(3):
        for _ in range(4):
            u = random_elem(rng, a, A_SIDE, degree)
            assert generating_operator(conn, generating_operator(conn, u)).is_zero


def test_contraction_identity_against_differential():
    rng = random.Random(53)
    a = plane()
    conn = curved_connection(a)
    for _ in range(12):
        theta = random_elem(rng, a, DUAL_SIDE, rng.randrange(0, a.rank + 1))
        u = random_elem(rng, a, A_SIDE, rng.randrange(0, a.rank + 1))
        sign = -1 if theta.degree % 2 else 1
        lhs = contract_or_zero(theta, generating_operator(conn, u))
        rhs = (
            sign * generating_operator(conn, contract_or_zero(theta, u))
            + contract_or_zero(differential(a, theta), u)
        )
        assert (lhs - rhs).is_zero


def test_connection_recovered_from_its_operator():
    a = plane()
    conn = curved_connection(a)
    recovered = connection_from_operator(a, conn.operator())
    assert recovered.alpha == conn.alpha
    flat = differential(a, a.scalar("x^2 - y", DUAL_SIDE))
    back = connection_from_operator(a, TopConnection(a, flat).operator())
    assert back.alpha == flat


def test_divergence_identity():
    a = plane()
    conn0 = TopConnection(a)
    assert divergence(conn0, a.poly("x") * a.frame(0)) == a.poly("-1")
    conn = curved_connection(a)
    rng = random.Random(59)
    top = a.top()
    for _ in range(8):
        x = random_section(rng, a)
        lhs = schouten(a, x, top) - pairing(conn.alpha, x) * top
        assert lhs == divergence(conn, x) * top


def test_operator_difference_reads_off_the_form():
    a = plane()
    alpha = a.poly("y") * a.coframe(0)
    rng = random.Random(61)
    probes = [
        random_elem(rng, a, A_SIDE, rng.randrange(0, a.rank + 1)) for _ in range(8)
    ]
    result = operator_difference(
        a, TopConnection(a, alpha).operator(), TopConnection(a).operator(), probes
    )
    assert result["ok"], result["failures"]
    assert result["alpha"] == -alpha


def test_operator_frame_naturality():
    a = plane()
    conn = curved_connection(a)
    g = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    moved = conn.frame_change(g)
    act = frame_action(g, 2)
    rng = random.Random(67)
    for degree in range(1, 3):
        for _ in range(3):
            u = random_elem(rng, a, A_SIDE, degree)
            lhs = act(generating_operator(conn, u))
            rhs = generating_operator(moved, act(u))
            assert (lhs - rhs).is_zero


def test_connection_frame_change_expands_each_minor_once(monkeypatch):
    """The algebroid, the connection form and the elements a naturality
    check moves all share one frame action: each of the 20 square minors
    of a 3 x 3 matrix is expanded at most once, and the action moves the
    connection exactly as its matrix does."""
    import albv.exterior
    from albv.algebroid import PoissonStructure, cotangent_algebroid

    so3 = cotangent_algebroid(
        PoissonStructure(("x", "y", "z"), {(0, 1): "z", (1, 2): "x", (0, 2): "-y"})
    )
    conn = TopConnection(so3, so3.poly("x") * so3.coframe(0) + so3.coframe(2))
    g = [[1, 2, 0], [0, 1, -1], [3, 0, 1]]
    probes = [random_elem(random.Random(5), so3, A_SIDE, k) for k in range(4)]
    by_matrix = conn.frame_change(g)

    expand = albv.exterior._minor_det
    seen = []

    def counting_expand(minor, mat, rows, cols):
        seen.append((rows, cols))
        return expand(minor, mat, rows, cols)

    monkeypatch.setattr(albv.exterior, "_minor_det", counting_expand)
    act = frame_action(g, 3)
    moved = conn.frame_change(act)
    images = [act(u) for u in probes]
    assert seen and len(seen) == len(set(seen)) <= 20
    assert frame_action(act, 3) is act
    assert moved.algebroid == by_matrix.algebroid and moved.alpha == by_matrix.alpha
    assert images == [frame_action(g, 3)(u) for u in probes]


def half_adjoint(a):
    half = Fraction(1, 2)
    gamma = [
        [
            [half * a.structure_coeff(i, j, k) for k in range(a.rank)]
            for j in range(a.rank)
        ]
        for i in range(a.rank)
    ]
    return AConnectionOnA(a, gamma)


def test_half_adjoint_connection_is_torsion_free_with_zero_trace():
    a = sl2()
    conn = half_adjoint(a)
    assert conn.is_torsion_free()
    assert conn.induced_top_connection().alpha.is_zero


def test_connection_data_must_be_n_by_n_by_n():
    """Short data used to raise IndexError and long data was cut silently."""
    a = plane()
    z = ["0", "0"]
    for gamma in (
        [[z, z]],
        [[z, z], [z, z], [z, z]],
        [[z, z, z], [z, z]],
        [[z, z], [z, ["0"]]],
        [[z, z], [z, z + ["0"]]],
    ):
        with pytest.raises(ValueError, match="gamma must be 2 x 2 x 2"):
            AConnectionOnA(a, gamma)
    assert AConnectionOnA(a, [[z, z], [z, z]]).is_torsion_free()


def test_torsion_witnesses():
    a = plane()
    gamma = [[["0", "0"], ["1", "0"]], [["0", "0"], ["0", "0"]]]
    conn = AConnectionOnA(a, gamma)
    assert not conn.is_torsion_free()
    assert conn.torsion_failures() == [{"i": 1, "j": 2, "residual": "(1) e1"}]


def test_covariant_derivative_respects_pairing():
    a = sl2()
    conn = half_adjoint(a)
    rng = random.Random(71)
    for _ in range(6):
        theta = random_elem(rng, a, DUAL_SIDE, 2)
        u = random_elem(rng, a, A_SIDE, 2)
        for i in range(a.rank):
            lhs = a.anchor_frame(i, pairing(theta, u))
            rhs = pairing(conn.derive(i, theta), u) + pairing(theta, conn.derive(i, u))
            assert lhs == rhs


def test_torsion_free_formula_matches_induced_operator():
    for a, conn in ((sl2(), None), (plane(), None)):
        if a.base_dim:
            gamma = [
                [["0"] * a.rank for _ in range(a.rank)] for _ in range(a.rank)
            ]
            conn = AConnectionOnA(a, gamma)
        else:
            conn = half_adjoint(a)
        induced = conn.induced_top_connection()
        for degree in range(a.rank + 1):
            for idx in basis_tuples(a.rank, degree):
                u = a.scalar(1)
                for i in idx:
                    u = wedge(u, a.frame(i))
                lhs = torsion_free_generator(conn, u)
                rhs = generating_operator(induced, u)
                assert (lhs - rhs).is_zero, (a.rank, idx)


def test_a_covariant_derivative_builds_one_element(monkeypatch):
    """``derive`` reads the Christoffel data directly and merges every term
    into one dict per index tuple: one element per call, on either side."""
    a = sl2()
    conn = half_adjoint(a)
    rng = random.Random(5)
    for side in (A_SIDE, DUAL_SIDE):
        for degree in range(a.rank + 1):
            w = random_elem(rng, a, side, degree)
            for i in range(a.rank):
                with counting(monkeypatch, GradedElem) as built:
                    conn.derive(i, w)
                assert len(built) == 1, (side, degree, i)
