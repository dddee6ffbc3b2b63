"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is a sparse map from exponent tuples to ``fractions.Fraction``
coefficients, relative to a fixed ordered tuple of variable names.  Zero
coefficients are never stored, so structural equality is semantic equality.
An empty variable tuple is allowed; the ring then degenerates to the
rationals themselves (the only exponent tuple is ``()``).
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["Poly", "parse_poly", "PolyParseError"]


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError("expected an int, Fraction, or rational string, got %r" % (value,))


class Poly:
    """A polynomial with exact rational coefficients.

    ``variables`` is the ordered tuple of variable names and ``terms`` maps
    exponent tuples (one entry per variable) to nonzero Fractions.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        clean = {}
        if terms:
            width = len(self.variables)
            for expo, coeff in terms.items():
                expo = tuple(int(e) for e in expo)
                if len(expo) != width:
                    raise ValueError(
                        "exponent tuple %r does not match variables %r"
                        % (expo, self.variables)
                    )
                if any(e < 0 for e in expo):
                    raise ValueError("negative exponent in %r" % (expo,))
                coeff = _coerce(coeff)
                if coeff != 0:
                    clean[expo] = clean.get(expo, Fraction(0)) + coeff
                    if clean[expo] == 0:
                        del clean[expo]
        self.terms = dict(sorted(clean.items()))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables)

    @classmethod
    def constant(cls, value, variables):
        value = _coerce(value)
        if value == 0:
            return cls(variables)
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def variable(cls, name, variables):
        variables = tuple(variables)
        if name not in variables:
            raise ValueError("unknown variable %r (have %r)" % (name, variables))
        expo = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {expo: Fraction(1)})

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, erroring on anything else."""
        if self.is_zero:
            return Fraction(0)
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

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other, self.variables)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            terms[expo] = terms.get(expo, Fraction(0)) + coeff
        return Poly(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other, self.variables)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly(self.variables)
            return Poly(
                self.variables, {e: c * other for e, c in self.terms.items()}
            )
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                terms[expo] = terms.get(expo, Fraction(0)) + c1 * c2
        return Poly(self.variables, terms)

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
            new = tuple(new)
            terms[new] = terms.get(new, Fraction(0)) + coeff * k
        return Poly(self.variables, terms)

    def homogeneous_parts(self):
        """Split into total-degree homogeneous pieces, as {degree: Poly}."""
        buckets = {}
        for expo, coeff in self.terms.items():
            buckets.setdefault(sum(expo), {})[expo] = coeff
        return {d: Poly(self.variables, t) for d, t in sorted(buckets.items())}

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
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
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


class _Parser:
    """Recursive-descent parser for the polynomial literal grammar.

    Grammar: integer and rational (p/q) literals, declared variable names,
    the operators + - * / ^ (with / restricted to division by a nonzero
    constant), and parentheses.  Whitespace is insignificant; there is no
    implicit multiplication.
    """

    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = tuple(variables)

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

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            right = self.term()
            value = value + right if op == "+" else value - right
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, where = self.take()
            right = self.factor()
            if op == "*":
                value = value * right
            else:
                if not right.is_constant() or right.is_zero:
                    raise PolyParseError(
                        "division is only allowed by a nonzero constant", where
                    )
                value = value / right.constant_value()
        return value

    def factor(self):
        if self.peek()[0] == "-":
            self.take()
            return -self.factor()
        if self.peek()[0] == "+":
            self.take()
            return self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            _, _, where = self.take()
            tok = self.take("int")
            return base ** tok[1]
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
