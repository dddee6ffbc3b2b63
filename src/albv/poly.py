"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is a sparse map from exponent tuples to rational coefficients,
relative to a fixed ordered tuple of variable names.  A coefficient is stored
as an ``int`` whenever its value is integral and as a ``fractions.Fraction``
only otherwise, so integer data stays in integer arithmetic until a division
leaves it; floats are refused.  Zero coefficients are never stored, and the
stored type is a function of the value, so structural equality is semantic
equality.
An empty variable tuple is allowed; the ring then degenerates to the
rationals themselves (the only exponent tuple is ``()``).

Sums are merged once.  ``merge_terms(terms, p, scale, q)`` adds
``scale * p``, or ``scale * p * q``, into a plain ``{exponent tuple:
coefficient}`` dict, and the caller builds one Poly from the finished dict;
cancelled terms are dropped by the constructor.  Poly arithmetic and the
operators of the other modules share this one merge, so an operator with many
summands builds one Poly per output coefficient, not one per summand.

Input is validated once, where it enters.  A direct ``Poly(variables,
terms)`` call, and so ``parse_poly`` and every file or command-line entry,
checks each exponent tuple (``operator.index`` on each exponent, the width
against the variables, no negative entry) and coerces each coefficient.
Closed operations, whose keys the package built itself, pass the private
keyword ``_checked=True`` instead: Poly arithmetic, ``partial`` and
``constant`` (after coercing its value) here, the operators of ``exterior``
(``pairing`` among them) and ``randgen``, and the anchor images of
``LieAlgebroid``.  That path still drops zero coefficients and stores
integral Fractions as ints, so both paths build the same Poly from the same
terms.

``parse_poly`` reads the one literal grammar of the package; the .albv
reader reads every number in a file with it, the volume coefficient as a
constant over no variables.  Its bounds, ``MAX_NESTING``, ``MAX_DIGITS``,
``MAX_POWER_DEGREE`` and ``MAX_POWER_TERMS``, refuse a literal with a
``PolyParseError`` at its position before anything large is built.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add, index

__all__ = ["Poly", "parse_poly", "PolyParseError", "merge_terms"]


def _coerce(value):
    """The exact value as an int when integral, as a Fraction otherwise; a
    string is read by ``parse_poly`` as a constant, and a float is refused."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        return parse_poly(value, ()).constant_value()
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError("expected an int, Fraction, or rational string, got %r" % (value,))


def merge_terms(terms, p, scale=1, q=None):
    """Add ``scale * p``, or ``scale * p * q`` when ``q`` is given, into the
    ``{exponent tuple: coefficient}`` dict ``terms``; returns ``terms``.

    ``scale`` is an int or Fraction.  A sum that cancels stays in the dict
    as a zero, for the Poly constructor to drop.
    """
    if q is None:
        for expo, coeff in p.terms.items():
            if scale != 1:
                coeff = coeff * scale
            terms[expo] = terms[expo] + coeff if expo in terms else coeff
        return terms
    for e1, c1 in p.terms.items():
        if scale != 1:
            c1 = c1 * scale
        for e2, c2 in q.terms.items():
            expo = tuple(map(add, e1, e2))
            coeff = c1 * c2
            terms[expo] = terms[expo] + coeff if expo in terms else coeff
    return terms


class Poly:
    """A polynomial with exact rational coefficients.

    ``variables`` is the ordered tuple of variable names and ``terms`` maps
    exponent tuples (one entry per variable) to nonzero coefficients, each an
    int when integral and a Fraction otherwise.  A Poly is immutable after
    construction, and coefficient objects are shared between polynomials.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None, *, _checked=False):
        self.variables = tuple(variables)
        clean = {}
        if terms and _checked:
            # a closed operation's keys are exponent tuples of the right width
            # and its coefficients are ints and Fractions: only zeros and
            # integral Fractions need work
            for expo, coeff in terms.items():
                if coeff:
                    if type(coeff) is not int and coeff.denominator == 1:
                        coeff = coeff.numerator
                    clean[expo] = coeff
        elif terms:
            width = len(self.variables)
            # keys are distinct, so each coefficient is kept as given: closed
            # operations merge their terms before they get here
            for expo, coeff in terms.items():
                expo = tuple(map(index, expo))
                if len(expo) != width:
                    raise ValueError(
                        "exponent tuple %r does not match variables %r"
                        % (expo, self.variables)
                    )
                if expo and min(expo) < 0:
                    raise ValueError("negative exponent in %r" % (expo,))
                coeff = _coerce(coeff)
                if coeff != 0:
                    clean[expo] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables)

    @classmethod
    def constant(cls, value, variables):
        value = _coerce(value)
        variables = tuple(variables)
        if value == 0:
            return cls(variables)
        return cls(variables, {(0,) * len(variables): value}, _checked=True)

    @classmethod
    def variable(cls, name, variables):
        variables = tuple(variables)
        if name not in variables:
            raise ValueError("unknown variable %r (have %r)" % (name, variables))
        expo = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {expo: 1})

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        """The value of a constant polynomial, erroring on anything else."""
        if self.is_zero:
            return 0
        if not self.is_constant():
            raise ValueError("polynomial %s is not constant" % self)
        return next(iter(self.terms.values()))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other):
        if self.variables != other.variables:
            raise ValueError(
                "variable-list mismatch: %r vs %r" % (self.variables, other.variables)
            )

    def _merged(self, other, scale):
        """``self + scale * other`` for a Poly or a rational ``other``."""
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other, self.variables)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        terms = merge_terms(dict(self.terms), other, scale)
        return Poly(self.variables, terms, _checked=True)

    def __add__(self, other):
        return self._merged(other, 1)

    __radd__ = __add__

    def __neg__(self):
        terms = {e: -c for e, c in self.terms.items()}
        return Poly(self.variables, terms, _checked=True)

    def __sub__(self, other):
        return self._merged(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(self.variables, merge_terms({}, self, other), _checked=True)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        return Poly(self.variables, merge_terms({}, self, 1, other), _checked=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (Fraction(1) / other)

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = Poly.constant(1, self.variables)
        for _ in range(exponent):
            out = out * self
        return out

    def partial(self, index) -> "Poly":
        """Partial derivative with respect to the index-th variable (0-based)."""
        if not 0 <= index < len(self.variables):
            raise ValueError("derivative index %d out of range" % index)
        terms = {}
        for expo, coeff in self.terms.items():
            k = expo[index]
            if k == 0:
                continue
            new = list(expo)
            new[index] = k - 1
            # lowering one exponent is injective, so no two terms meet
            terms[tuple(new)] = coeff * k
        return Poly(self.variables, terms, _checked=True)

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other, self.variables)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return "Poly(%r, %s)" % (list(self.variables), str(self))

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        # graded order, low degree first, ties broken by the exponent tuple
        for expo in sorted(self.terms, key=lambda e: (sum(e), e)):
            coeff = self.terms[expo]
            factors = []
            for name, power in zip(self.variables, expo):
                if power == 1:
                    factors.append(name)
                elif power > 1:
                    factors.append("%s^%d" % (name, power))
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            sign = "-" if coeff < 0 else "+"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            out += " %s %s" % (sign, body)
        return out


class PolyParseError(ValueError):
    """Raised when a polynomial literal cannot be parsed."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        # ASCII digits only: int() refuses others, such as superscripts
        if "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            if j - i > MAX_DIGITS:
                raise PolyParseError(
                    "integer literal of %d digits exceeds the digit bound %d"
                    % (j - i, MAX_DIGITS),
                    i,
                )
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise PolyParseError("unexpected character %r" % ch, i)
    tokens.append(("end", None, len(text)))
    return tokens


# parentheses and unary signs nested deeper than this are refused with a parse
# error instead of exhausting the interpreter stack
MAX_NESTING = 100

# an integer literal with more digits than this is refused before int() reads
# it: below 640, the least digit limit an interpreter accepts for int(), so
# the same literals are refused whatever that limit is set to.  So is a step
# whose result has a coefficient with a longer numerator or denominator:
# (((9^100)^100)^100)^100 ran for over 20 s, and a value str() cannot print
# could not be written back to a file
MAX_DIGITS = 500
_DIGIT_CAP = 10**MAX_DIGITS

# a power b^N with N * max(deg b, 1) above this is refused before it is
# computed, since its cost grows with N even when b is a constant
MAX_POWER_DEGREE = 100

# a power b^N or a product a*b that could have more terms than this is
# refused before it is computed, since the degree bound alone lets many
# variables through: (x+y+z)^43 has 990 terms, while (x+y+z+w)^50 has 23,426
# and took 2 s, and a product of six factors (x+y+z+w)^15 of 816 terms ran
# for over a minute
MAX_POWER_TERMS = 1000


def _power_term_bound(base, exponent):
    """The most terms ``base ** exponent`` can have.  With t terms in the
    base, the product of N factors picks a multiset of N of them, at most
    C(N + t - 1, t - 1) monomials; with m variables it has degree at most
    N * deg b, at most C(N * deg b + m, m) monomials."""
    t = len(base.terms)
    if t == 0:
        return 1
    m = len(base.variables)
    return min(comb(exponent + t - 1, t - 1), comb(exponent * base.degree() + m, m))


def _product_term_bound(a, b):
    """The most terms ``a * b`` can have: one per pair of terms, and with m
    variables at most C(deg a + deg b + m, m) monomials."""
    if not a.terms or not b.terms:
        return 0
    m = len(a.variables)
    return min(len(a.terms) * len(b.terms), comb(a.degree() + b.degree() + m, m))


class _Parser:
    """Recursive-descent parser for the polynomial literal grammar.

    Grammar: integer literals of ASCII digits, at most ``MAX_DIGITS`` of
    them, and rationals p/q built from them (no decimals or exponents),
    declared variable names, the operators + - * / ^ (with / restricted to
    division by a nonzero constant), and parentheses nested at most
    ``MAX_NESTING`` deep, unary signs included.  A power b^N is refused when
    N * max(deg b, 1) exceeds ``MAX_POWER_DEGREE``; a power or a product is
    refused when it could have more than ``MAX_POWER_TERMS`` terms, and any
    step whose result has a coefficient of more than ``MAX_DIGITS`` digits,
    in numerator or denominator.
    Whitespace is insignificant; there is no implicit multiplication.
    """

    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = tuple(variables)
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise PolyParseError("expected %s, found %r" % (kind, tok[1]), tok[2])
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise PolyParseError("trailing input %r" % tok[1], tok[2])
        return value

    def bounded(self, value, where):
        """``value``, unless a coefficient's numerator or denominator has
        more than ``MAX_DIGITS`` digits: every step then works on bounded
        numbers, and ``str(value)`` is a literal the grammar reads back."""
        for c in value.terms.values():
            if max(abs(c.numerator), c.denominator) >= _DIGIT_CAP:
                raise PolyParseError(
                    "a coefficient has more than %d digits, above the digit bound"
                    % MAX_DIGITS,
                    where,
                )
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, where = self.take()
            right = self.term()
            value = self.bounded(value + right if op == "+" else value - right, where)
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, where = self.take()
            right = self.factor()
            if op == "*":
                bound = _product_term_bound(value, right)
                if bound > MAX_POWER_TERMS:
                    raise PolyParseError(
                        "product of %d and %d terms could give %d terms, "
                        "above the term bound %d"
                        % (len(value.terms), len(right.terms), bound, MAX_POWER_TERMS),
                        where,
                    )
                value = self.bounded(value * right, where)
            else:
                if not right.is_constant() or right.is_zero:
                    raise PolyParseError(
                        "division is only allowed by a nonzero constant", where
                    )
                value = self.bounded(value / right.constant_value(), where)
        return value

    def factor(self):
        # every recursion of the grammar passes through here
        kind, _, where = self.peek()
        if self.depth > MAX_NESTING:
            raise PolyParseError("nesting deeper than %d levels" % MAX_NESTING, where)
        self.depth += 1
        try:
            if kind in ("-", "+"):
                self.take()
                value = self.factor()
                return -value if kind == "-" else value
            return self.power()
        finally:
            self.depth -= 1

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            _, exponent, where = self.take("int")
            if exponent * max(base.degree(), 1) > MAX_POWER_DEGREE:
                raise PolyParseError(
                    "exponent %d on a base of degree %d exceeds the power bound %d"
                    % (exponent, base.degree(), MAX_POWER_DEGREE),
                    where,
                )
            bound = _power_term_bound(base, exponent)
            if bound > MAX_POWER_TERMS:
                raise PolyParseError(
                    "exponent %d on a base of %d terms could give %d terms, "
                    "above the term bound %d"
                    % (exponent, len(base.terms), bound, MAX_POWER_TERMS),
                    where,
                )
            return self.bounded(base ** exponent, where)
        return base

    def atom(self):
        kind, value, where = self.peek()
        if kind == "int":
            self.take()
            return Poly.constant(value, self.variables)
        if kind == "name":
            self.take()
            if value not in self.variables:
                raise PolyParseError(
                    "unknown variable %r (declared: %s)"
                    % (value, ", ".join(self.variables) or "none"),
                    where,
                )
            return Poly.variable(value, self.variables)
        if kind == "(":
            self.take()
            inner = self.expr()
            self.take(")")
            return inner
        raise PolyParseError("expected a number, variable, or '('", where)


def parse_poly(text, variables) -> Poly:
    """Parse a polynomial literal such as ``"y^2 - 1/2*x"``."""
    return _Parser(_tokenize(text), variables).parse()
