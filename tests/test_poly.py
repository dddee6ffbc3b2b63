import time
from fractions import Fraction
from math import comb

import pytest

from albv.algebroid import tangent_algebroid
from albv.exterior import Volume, frame_action
from albv.poly import (
    MAX_NESTING,
    MAX_POWER_DEGREE,
    MAX_POWER_TERMS,
    Poly,
    PolyParseError,
    merge_terms,
    parse_poly,
)
from conftest import counting

XY = ("x", "y")


def test_zero_and_constant_basics():
    z = Poly.zero(XY)
    assert z.is_zero
    assert z.degree() == -1
    c = Poly.constant(Fraction(3, 2), XY)
    assert c.is_constant()
    assert c.constant_value() == Fraction(3, 2)
    assert (c - c).is_zero


def test_coefficients_stay_integers_until_a_division():
    """An integral value is stored as an int, whatever it came in as; only
    a division that leaves the integers stores a Fraction."""
    x = Poly.variable("x", XY)
    for value, stored in ((3, 3), (Fraction(6, 2), 3), ("3", 3), ("6/2", 3), (True, 1)):
        (coeff,) = Poly.constant(value, XY).terms.values()
        assert type(coeff) is int and coeff == stored
    assert [type(c) for c in (x * Fraction(4, 2) + 1).terms.values()] == [int, int]
    half = x / 2
    assert type(half.terms[(1, 0)]) is Fraction
    assert type((half + half).terms[(1, 0)]) is int
    assert parse_poly("y^2 - 1/2*x", XY).terms == {(0, 2): 1, (1, 0): Fraction(-1, 2)}
    with pytest.raises(TypeError):
        Poly.constant(1.5, XY)


def test_arithmetic_matches_expanded_form():
    x = Poly.variable("x", XY)
    y = Poly.variable("y", XY)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1
    assert p.degree() == 2


def test_division_by_constant_only():
    x = Poly.variable("x", XY)
    assert x / 2 == Fraction(1, 2) * x
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(TypeError):
        x / x


def test_partial_derivatives():
    x = Poly.variable("x", XY)
    y = Poly.variable("y", XY)
    p = x**2 * y + 3 * y
    assert p.partial(0) == 2 * x * y
    assert p.partial(1) == x**2 + 3


def test_non_integral_exponents_are_refused():
    """A float exponent is refused, not truncated into another term's key."""
    with pytest.raises(TypeError):
        Poly(("x",), {(1.5,): 1, (1,): 2})


def test_parse_round_trip_through_str():
    samples = [
        "0",
        "1",
        "-3/4",
        "x",
        "y^2 - 1/2*x",
        "x^3*y^2 + 2*x - 7",
        "(x + y)^2 - x^2 - y^2",
    ]
    for text in samples:
        p = parse_poly(text, XY)
        again = parse_poly(str(p), XY)
        assert again == p, text


def test_parse_rejects_garbage():
    for bad in ("x +", "2x", "x^", "(x", "z", "xughh", "1/0"):
        with pytest.raises(PolyParseError):
            parse_poly(bad, XY)


def test_nesting_is_bounded_by_a_parse_error():
    n = MAX_NESTING
    assert parse_poly("(" * n + "x" + ")" * n, XY) == Poly.variable("x", XY)
    assert parse_poly("-" * n + "x", XY) == Poly.variable("x", XY)
    for text in ("(" * (n + 1) + "x" + ")" * (n + 1), "-" * (n + 1) + "x", "-(" * n + "x"):
        with pytest.raises(PolyParseError, match="nesting deeper than %d" % n) as exc:
            parse_poly(text, XY)
        assert exc.value.position == n + 1
    with pytest.raises(PolyParseError, match="nesting"):
        parse_poly("(" * 5000 + "x" + ")" * 5000, XY)


def test_powers_are_bounded_by_a_parse_error():
    """A power b^N is refused, before it is computed, when N * max(deg b, 1)
    exceeds the bound; a constant base counts as degree 1."""
    n = MAX_POWER_DEGREE
    x, y = Poly.variable("x", XY), Poly.variable("y", XY)
    assert parse_poly("x^%d" % n, XY) == x**n
    assert parse_poly("(x*y)^%d" % (n // 2), XY) == (x * y) ** (n // 2)
    assert parse_poly("2^%d" % n, XY) == Poly.constant(2**n, XY)
    for text in ("x^%d" % (n + 1), "(x*y)^%d" % (n // 2 + 1), "2^%d" % (n + 1), "x^100000"):
        with pytest.raises(PolyParseError, match="power bound %d" % n) as exc:
            parse_poly(text, XY)
        assert exc.value.position == text.index("^") + 1


def test_powers_are_bounded_by_their_term_count(monkeypatch):
    """A power b^N is refused, before it is computed, when it could have
    more than ``MAX_POWER_TERMS`` terms: the fewer of C(N + t - 1, t - 1),
    the multisets of N of the t terms of b, and C(N deg b + m, m), the
    monomials of degree at most N deg b in m variables."""
    xyzw = ("x", "y", "z", "w")
    # a linear base of 3 terms: the multiset count is the smaller, and exact
    assert len(parse_poly("(x+y+z)^43", xyzw).terms) == comb(45, 2) <= MAX_POWER_TERMS
    # six terms of degree at most 2 in two variables: the monomial count is
    # the smaller, and exact
    base = "(1+x+y+x*y+x^2+y^2)"
    assert len(parse_poly(base + "^20", XY).terms) == comb(42, 2) <= MAX_POWER_TERMS
    assert len(parse_poly("(x+y)^100", XY).terms) == 101
    power = Poly.__pow__

    def small_powers_only(p, n):
        if n > 2:
            pytest.fail("power computed")
        return power(p, n)

    monkeypatch.setattr(Poly, "__pow__", small_powers_only)
    refused = [
        ("(x+y+z)^44", xyzw, 3, comb(46, 2)),
        ("(x+y+z+w)^50", xyzw, 4, comb(53, 3)),
        (base + "^30", XY, 6, comb(62, 2)),
    ]
    for text, variables, t, bound in refused:
        assert bound > MAX_POWER_TERMS
        with pytest.raises(PolyParseError) as exc:
            parse_poly(text, variables)
        exponent = int(text[text.rindex("^") + 1 :])
        assert str(exc.value) == (
            "exponent %d on a base of %d terms could give %d terms, above the term "
            "bound %d (at position %d)"
            % (exponent, t, bound, MAX_POWER_TERMS, text.rindex("^") + 1)
        )


@pytest.mark.parametrize(
    "terms, message",
    [
        ({(1,): 1}, "exponent tuple (1,) does not match variables ('x', 'y')"),
        ({(1, 0, 0): 1}, "exponent tuple (1, 0, 0) does not match variables ('x', 'y')"),
        ({(1, -1): 1}, "negative exponent in (1, -1)"),
        ({(0, 0): 1, (-2, 3): 1}, "negative exponent in (-2, 3)"),
    ],
)
def test_the_constructor_refuses_bad_exponent_tuples(terms, message):
    """A direct constructor call is the validating path: outside input is
    refused with these messages."""
    with pytest.raises(ValueError) as exc:
        Poly(XY, terms)
    assert str(exc.value) == message


def test_empty_variable_tuple_is_plain_rationals():
    p = parse_poly("3/4 - 2", ())
    assert p.is_constant()
    assert p.constant_value() == Fraction(-5, 4)


def test_variable_list_mismatch_rejected():
    p = Poly.variable("x", XY)
    q = Poly.variable("x", ("x",))
    with pytest.raises(ValueError, match="variable-list mismatch"):
        p + q


def test_a_difference_builds_one_poly(monkeypatch):
    """``p - q`` merges ``-q`` into a copy of p's terms: no negated copy of q."""
    p, q = parse_poly("x^2 + 3*x*y - 1", XY), parse_poly("x^2 - y + 1/2", XY)
    with counting(monkeypatch, Poly) as built:
        diff = p - q
    assert len(built) == 1
    assert diff == parse_poly("3*x*y + y - 3/2", XY)


def test_merge_terms_adds_scaled_products_and_leaves_zeros_to_the_constructor():
    p, q = parse_poly("x + 1", XY), parse_poly("x - 1", XY)
    terms = merge_terms(merge_terms({}, p, 2, q), parse_poly("x^2", XY), -2)
    assert terms == {(2, 0): 0, (1, 0): 0, (0, 0): -2}
    assert Poly(XY, terms) == Poly.constant(-2, XY)
    assert Poly(XY, terms).terms == {(0, 0): -2}


# library entry points that take a number, each with an input it refuses:
# decimals and exponents are not literals of the grammar, and no entry point
# takes a float
REFUSED_NUMBERS = [
    (lambda: Poly.constant("1.5", ()), PolyParseError),
    (lambda: Poly(("x",), {(1,): "2.5"}), PolyParseError),
    (lambda: Poly.constant("1e10000000", ()), PolyParseError),
    (lambda: Poly.constant("1e1000000", ()), PolyParseError),
    (lambda: Poly.constant(0.5, ()), TypeError),
    (lambda: Volume(0.1, 1, ("x",)), TypeError),
    (lambda: tangent_algebroid(("x",)).volume(0.25), TypeError),
    (lambda: frame_action([[0.5]], 1), TypeError),
]


@pytest.mark.parametrize("build, error", REFUSED_NUMBERS)
def test_library_numbers_go_through_the_literal_grammar(build, error):
    start = time.perf_counter()
    with pytest.raises(error):
        build()
    assert time.perf_counter() - start < 1


def test_library_number_strings_keep_their_values():
    assert Poly.constant("2/5", XY).constant_value() == Fraction(2, 5)
    assert Poly(("x",), {(1,): "-3/4"}) == parse_poly("-3/4*x", ("x",))
    assert Volume("-3/4", 1, ("x",)).coeff == Fraction(-3, 4)
    a = tangent_algebroid(("x",))
    assert a.volume("-3/4") is a.volume(Fraction(-3, 4))
    assert frame_action([["1/2"]], 1)(a.frame(0)) == a.frame(0) * Fraction(1, 2)
