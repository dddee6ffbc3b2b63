"""Sign conventions of the graded algebra, frozen as small concrete cases."""

from fractions import Fraction

import pytest

from albv.exterior import (
    A_SIDE,
    DUAL_SIDE,
    GradedElem,
    Volume,
    basis_tuples,
    coframe_elem,
    contract,
    contract_or_zero,
    frame_action,
    frame_elem,
    pairing,
    shuffle_sign,
    sort_with_sign,
    star,
    star_inv,
    top_elem,
    wedge,
)
from albv.poly import Poly, parse_poly
from conftest import counting

XY = ("x", "y")


def elem(side, degree, rank, comps, variables=XY):
    clean = {}
    for idx, text in comps.items():
        clean[idx] = parse_poly(text, variables)
    return GradedElem(side, degree, rank, variables, clean)


def test_shuffle_sign_counts_merge_inversions():
    assert shuffle_sign((0,), (1,)) == 1
    assert shuffle_sign((1,), (0,)) == -1
    assert shuffle_sign((0, 2), (1,)) == -1
    assert shuffle_sign((1, 3), (0, 2)) == -1
    assert shuffle_sign((), (0, 1)) == 1


def test_sort_with_sign():
    assert sort_with_sign((2, 0, 1)) == ((0, 1, 2), 1)
    assert sort_with_sign((1, 0)) == ((0, 1), -1)
    assert sort_with_sign((0, 0)) == ((0, 0), 0)


def test_basis_tuples_order():
    assert basis_tuples(3, 2) == [(0, 1), (0, 2), (1, 2)]
    assert basis_tuples(2, 0) == [()]
    assert basis_tuples(2, 3) == []


def test_wedge_signs_on_frame():
    e0, e1 = frame_elem(0, 2, XY), frame_elem(1, 2, XY)
    assert wedge(e0, e1) == -wedge(e1, e0)
    assert wedge(e0, e0).is_zero
    two_form = wedge(e0, e1)
    assert two_form.coefficient((0, 1)) == Poly.constant(1, XY)


def test_pairing_is_delta_on_increasing_tuples():
    e01 = wedge(frame_elem(0, 3, XY), frame_elem(1, 3, XY))
    eps01 = wedge(coframe_elem(0, 3, XY), coframe_elem(1, 3, XY))
    eps02 = wedge(coframe_elem(0, 3, XY), coframe_elem(2, 3, XY))
    assert pairing(eps01, e01) == Poly.constant(1, XY)
    assert pairing(eps02, e01).is_zero


def test_interior_product_on_a_two_form():
    eps0, eps1 = coframe_elem(0, 2, XY), coframe_elem(1, 2, XY)
    e0, e1 = frame_elem(0, 2, XY), frame_elem(1, 2, XY)
    form = wedge(eps0, eps1)
    assert contract(e0, form) == eps1
    assert contract(e1, form) == -eps0


def test_contraction_is_adjoint_to_wedge():
    # pairing(omega, contract(theta, V)) == pairing(theta ^ omega, V)
    theta = elem(DUAL_SIDE, 1, 3, {(0,): "x", (2,): "1"})
    omega = elem(DUAL_SIDE, 2, 3, {(0, 1): "y", (1, 2): "2"})
    v = elem(A_SIDE, 3, 3, {(0, 1, 2): "x*y - 1"})
    lhs = pairing(omega, contract(theta, v))
    rhs = pairing(wedge(theta, omega), v)
    assert lhs == rhs


def test_contract_overflow_raises_and_or_zero_variant():
    eps01 = wedge(coframe_elem(0, 2, XY), coframe_elem(1, 2, XY))
    e0 = frame_elem(0, 2, XY)
    with pytest.raises(ValueError, match="degree overflow"):
        contract(eps01, e0)
    overflow = contract_or_zero(eps01, e0)
    assert overflow.is_zero
    assert overflow.degree == -1


def test_contraction_by_degree_zero_multiplies():
    f = GradedElem(DUAL_SIDE, 0, 2, XY, {(): parse_poly("x", XY)})
    e0 = frame_elem(0, 2, XY)
    assert contract(f, e0) == elem(A_SIDE, 1, 2, {(0,): "x"})


def test_star_on_plane_frame():
    vol = Volume(Fraction(1), 2, XY)
    eps0, eps1 = coframe_elem(0, 2, XY), coframe_elem(1, 2, XY)
    assert star(eps0, vol) == frame_elem(1, 2, XY)
    assert star(eps1, vol) == -frame_elem(0, 2, XY)
    assert star(wedge(eps0, eps1), vol).scalar() == Poly.constant(1, XY)


def test_star_inv_inverts_star_both_sides():
    vol = Volume(Fraction(3, 2), 3, XY)
    u = elem(A_SIDE, 2, 3, {(0, 1): "x^2", (0, 2): "-1/3"})
    omega = elem(DUAL_SIDE, 1, 3, {(1,): "y"})
    assert star(star_inv(u, vol), vol) == u
    assert star_inv(star(omega, vol), vol) == omega


def test_volume_rejects_zero_coefficient():
    with pytest.raises(ValueError):
        Volume(Fraction(0), 2, XY)


def test_frame_change_permutation_acts_by_determinant_on_top():
    swap = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    top = top_elem(2, XY, A_SIDE)
    assert frame_action(swap, 2)(top) == -top


def test_frame_change_preserves_pairing():
    g = [
        [Fraction(1), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(-1)],
        [Fraction(0), Fraction(0), Fraction(3)],
    ]
    theta = elem(DUAL_SIDE, 2, 3, {(0, 1): "x", (0, 2): "1", (1, 2): "y^2"})
    u = elem(A_SIDE, 2, 3, {(0, 1): "y", (1, 2): "x - 2"})
    act = frame_action(g, 3)
    assert pairing(act(theta), act(u)) == pairing(theta, u)


def test_frame_change_of_forms_known_answers():
    """g = diag(2, 1): components transform by g, so the new coframe is
    theta1 = 2 eps1, theta2 = eps2.  Then eps1 = theta1 / 2, so eps1 maps to
    eps1 / 2 and eps1^eps2 = theta1^theta2 / 2 maps to (1/2) eps1^eps2,
    while e1 maps to 2 e1 and a function is unchanged."""
    g = [[2, 0], [0, 1]]
    half = Fraction(1, 2)
    act = frame_action(g, 2)
    assert act(coframe_elem(0, 2, XY)) == coframe_elem(0, 2, XY) * half
    assert act(coframe_elem(1, 2, XY)) == coframe_elem(1, 2, XY)
    top = top_elem(2, XY, DUAL_SIDE)
    assert act(top) == top * half
    assert act(frame_elem(0, 2, XY)) == frame_elem(0, 2, XY) * 2
    f = elem(DUAL_SIDE, 0, 2, {(): "x*y"})
    assert act(f) == f


def test_frame_change_of_forms_refuses_a_singular_matrix():
    with pytest.raises(ValueError, match="singular matrix"):
        frame_action([[1, 2], [2, 4]], 2)(coframe_elem(0, 2, XY))


def test_max_coeff_degree_is_the_top_coefficient_degree():
    u = elem(A_SIDE, 1, 2, {(0,): "x^2 + 1", (1,): "y"})
    assert u.max_coeff_degree() == 2


def test_addition_across_degrees_raises_even_for_zeros():
    u = elem(A_SIDE, 1, 2, {(1,): "x"})
    for degree in (-1, 0, 3):
        zero = GradedElem.zero(A_SIDE, degree, 2, XY)
        with pytest.raises(ValueError, match="incompatible elements"):
            zero + u
        with pytest.raises(ValueError, match="incompatible elements"):
            u - zero
    assert GradedElem.zero(A_SIDE, 1, 2, XY) + u == u


def test_only_zero_lives_in_negative_degree():
    zero = GradedElem.zero(A_SIDE, -1, 2, XY)
    assert zero.is_zero and zero.degree == -1
    assert basis_tuples(2, -1) == []
    with pytest.raises(ValueError):
        GradedElem(A_SIDE, -1, 2, XY, {(): parse_poly("1", XY)})


def test_non_integral_indices_are_refused():
    """A float index is refused, not truncated into another component's key."""
    with pytest.raises(TypeError):
        GradedElem("A", 1, 2, (), {(0.5,): 1, (0,): 2})


@pytest.mark.parametrize(
    "components, message",
    [
        ({(0,): 1}, "index tuple (0,) has length 1, expected degree 2"),
        ({(0, 1, 2): 1}, "index tuple (0, 1, 2) has length 3, expected degree 2"),
        ({(0, 3): 1}, "index tuple (0, 3) out of range"),
        ({(-1, 1): 1}, "index tuple (-1, 1) out of range"),
        ({(1, 0): 1}, "index tuple (1, 0) is not strictly increasing"),
        ({(1, 1): 1}, "index tuple (1, 1) is not strictly increasing"),
        (
            {(0, 1): Poly.constant(1, ("x",))},
            "variable-list mismatch: ('x',) vs ('x', 'y')",
        ),
    ],
)
def test_the_constructor_refuses_bad_components(components, message):
    """A direct constructor call is the validating path: outside input is
    refused with these messages."""
    with pytest.raises(ValueError) as exc:
        GradedElem(A_SIDE, 2, 3, XY, components)
    assert str(exc.value) == message


def test_a_one_component_element_builds_no_poly(monkeypatch):
    """The constructor keeps the Poly it is given: no zero, no sum."""
    coeff = parse_poly("x*y", XY)
    built = []
    init = Poly.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Poly, "__init__", counting_init)
    u = GradedElem(DUAL_SIDE, 1, 2, XY, {(1,): coeff})
    monkeypatch.undo()
    assert built == []
    assert u.coefficient((1,)) is coeff


def test_above_top_degree_must_be_empty():
    with pytest.raises(ValueError):
        GradedElem(A_SIDE, 3, 2, XY, {(0, 1): parse_poly("1", XY)})
    zero = GradedElem.zero(A_SIDE, 3, 2, XY)
    assert zero.is_zero


def test_a_difference_builds_one_element(monkeypatch):
    """``u - v`` is one element and one Poly per shared index tuple; an
    index tuple of v alone gets its negated coefficient."""
    u = elem(A_SIDE, 1, 3, {(0,): "x", (1,): "y^2"})
    v = elem(A_SIDE, 1, 3, {(1,): "y^2 - x", (2,): "1"})
    with counting(monkeypatch, GradedElem) as elems, counting(monkeypatch, Poly) as polys:
        diff = u - v
    assert len(elems) == 1
    assert len(polys) == 2
    assert diff == elem(A_SIDE, 1, 3, {(0,): "x", (1,): "x", (2,): "-1"})
    assert diff.coefficient((0,)) is u.coefficient((0,))
