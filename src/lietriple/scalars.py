"""Exact scalar tower: Q, Q(i), and the rational-function field Q(i)(t).

Everything here is immutable and exact.  Rationals are ``fractions.Fraction``;
Gaussian rationals are pairs of fractions; rational functions are reduced
fractions of univariate polynomials over the Gaussian rationals with a monic
denominator.  Canonical forms are restored eagerly after every operation, so
equality is plain component comparison and limits at t = 0 can be read off the
reduced denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from .errors import ParseError, PoleAtPoint, PoleAtZero

__all__ = [
    "GaussianRational",
    "Polynomial",
    "RationalFunction",
    "QI_ZERO",
    "QI_ONE",
    "QI_I",
    "limit_at_zero",
    "evaluate_at",
    "parse_scalar",
    "parse_rational_function",
    "scalar_str",
    "rational_function_str",
    "frac_sqrt",
    "gaussian_sqrt",
]


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


_ZERO_FRACTION = Fraction(0)


def _make_gaussian(re, im):
    """Internal fast constructor; both components must already be Fractions."""
    z = object.__new__(GaussianRational)
    object.__setattr__(z, "re", re)
    object.__setattr__(z, "im", im)
    return z


class GaussianRational:
    """An element re + im*i of Q(i), with Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def of(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(_as_fraction(x))

    @property
    def is_rational(self) -> bool:
        return self.im == 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # Agrees with Fraction/int hashing on the rational subfield.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __neg__(self):
        return _make_gaussian(-self.re, -self.im)

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return _make_gaussian(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return _make_gaussian(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            return _make_gaussian(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return _make_gaussian(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            a, b, c, d = self.re, self.im, other.re, other.im
            if not b and not d:  # the common all-real case
                return _make_gaussian(a * c, _ZERO_FRACTION)
            return _make_gaussian(a * c - b * d, a * d + b * c)
        if isinstance(other, (int, Fraction)):
            return _make_gaussian(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return GaussianRational.of(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = QI_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self):
        return f"GaussianRational({scalar_str(self)!r})"

    def __str__(self):
        return scalar_str(self)


QI_ZERO = GaussianRational(0)
QI_ONE = GaussianRational(1)
QI_I = GaussianRational(0, 1)


class Polynomial:
    """Univariate polynomial in t over Q(i); coefficient tuple, ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [GaussianRational.of(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def of(x) -> "Polynomial":
        if isinstance(x, Polynomial):
            return x
        return Polynomial([GaussianRational.of(x)])

    @staticmethod
    def variable() -> "Polynomial":
        return Polynomial([QI_ZERO, QI_ONE])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    @property
    def lead(self) -> GaussianRational:
        return self.coeffs[-1] if self.coeffs else QI_ZERO

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self == Polynomial.of(other)
        return NotImplemented

    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else QI_ZERO)
        return hash(self.coeffs)

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Polynomial.of(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Polynomial(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Polynomial.of(other) if not isinstance(other, Polynomial) else -other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Polynomial.of(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self or not other:
            return Polynomial()
        out = [QI_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for ka, ca in enumerate(self.coeffs):
            if not ca:
                continue
            for kb, cb in enumerate(other.coeffs):
                if cb:
                    out[ka + kb] = out[ka + kb] + ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = Polynomial.of(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial(), self
        quo = [QI_ZERO] * (dq + 1)
        inv_lead = other.lead.inverse()
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            if top:
                f = top * inv_lead
                quo[k] = f
                for j, c in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - f * c
        return Polynomial(quo), Polynomial(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Polynomial":
        if not self:
            return self
        inv = self.lead.inverse()
        return Polynomial([c * inv for c in self.coeffs])

    def __call__(self, x) -> GaussianRational:
        x = GaussianRational.of(x)
        acc = QI_ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"Polynomial({_poly_str(self)!r})"


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while b:
        a, b = b, a % b
    return a.monic()


_POLY_ONE = Polynomial([QI_ONE])


def _cancel(num, den):
    """num and den divided by a common divisor that leaves them coprime.

    Both must have positive degree.  A denominator c*t^k only shares powers of
    t with the numerator, so shifting coefficients replaces the gcd there.
    """
    if any(den.coeffs[:-1]):
        g = poly_gcd(num, den)
        return (num // g, den // g) if g.degree > 0 else (num, den)
    shift = min(den.degree, next(k for k, c in enumerate(num.coeffs) if c))
    if not shift:
        return num, den
    return Polynomial(num.coeffs[shift:]), Polynomial(den.coeffs[shift:])


class RationalFunction:
    """Element of Q(i)(t): reduced num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_POLY_ONE):
        num = Polynomial.of(num) if not isinstance(num, Polynomial) else num
        den = Polynomial.of(den) if not isinstance(den, Polynomial) else den
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            den = _POLY_ONE
        else:
            if num.degree > 0 and den.degree > 0:
                num, den = _cancel(num, den)
            lead = den.lead
            if lead != 1:
                inv = lead.inverse()
                num = Polynomial([c * inv for c in num.coeffs])
                den = Polynomial([c * inv for c in den.coeffs])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def of(x) -> "RationalFunction":
        if isinstance(x, RationalFunction):
            return x
        return RationalFunction(Polynomial.of(x))

    @staticmethod
    def variable() -> "RationalFunction":
        return RationalFunction(Polynomial.variable())

    @property
    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def constant_value(self) -> GaussianRational:
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return self.num.coeffs[0] if self.num else QI_ZERO

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.is_constant and self.constant_value() == other
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.is_constant:
            return hash(self.constant_value())
        return hash((self.num.coeffs, self.den.coeffs))

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __add__(self, other):
        other = RationalFunction.of(other) if not isinstance(other, RationalFunction) else other
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = RationalFunction.of(other) if not isinstance(other, RationalFunction) else other
        return RationalFunction(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = RationalFunction.of(other) if not isinstance(other, RationalFunction) else other
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        return RationalFunction(self.den, self.num)

    def __truediv__(self, other):
        other = RationalFunction.of(other) if not isinstance(other, RationalFunction) else other
        return self * other.inverse()

    def __rtruediv__(self, other):
        return RationalFunction.of(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = RationalFunction.of(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def limit_at_zero(self) -> GaussianRational:
        d0 = self.den(QI_ZERO)
        if not d0:
            raise PoleAtZero(f"pole at t=0: {self}")
        return self.num(QI_ZERO) / d0

    def evaluate_at(self, t0) -> GaussianRational:
        t0 = GaussianRational.of(t0)
        d = self.den(t0)
        if not d:
            raise PoleAtPoint(f"pole at t={t0}: {self}")
        return self.num(t0) / d

    def __repr__(self):
        return f"RationalFunction({rational_function_str(self)!r})"

    def __str__(self):
        return rational_function_str(self)


def limit_at_zero(f: RationalFunction) -> GaussianRational:
    return RationalFunction.of(f).limit_at_zero()


def evaluate_at(f: RationalFunction, t0) -> GaussianRational:
    return RationalFunction.of(f).evaluate_at(t0)


# ---------------------------------------------------------------------------
# square roots (exact, or None when no root exists in the field)


def frac_sqrt(x: Fraction):
    """Exact square root of a non-negative rational, or None."""
    x = _as_fraction(x)
    if x < 0:
        return None
    pn, pd = isqrt(x.numerator), isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def gaussian_sqrt(z: GaussianRational):
    """Exact square root of z in Q(i), or None when z is not a square there."""
    z = GaussianRational.of(z)
    a, b = z.re, z.im
    if b == 0:
        r = frac_sqrt(a)
        if r is not None:
            return GaussianRational(r)
        r = frac_sqrt(-a)
        if r is not None:
            return GaussianRational(0, r)
        return None
    s = frac_sqrt(a * a + b * b)
    if s is None:
        return None
    c = frac_sqrt((a + s) / 2)
    if c is None or c == 0:
        return None
    d = b / (2 * c)
    return GaussianRational(c, d)


# ---------------------------------------------------------------------------
# printing

def _frac_str(x: Fraction) -> str:
    return str(x)  # "p/q" or "p"


def scalar_str(z: GaussianRational) -> str:
    """Canonical text form: "p/q", "r/s*i", or "p/q+r/s*i"."""
    z = GaussianRational.of(z)
    if z.im == 0:
        return _frac_str(z.re)
    if z.im == 1:
        im = "i"
    elif z.im == -1:
        im = "-i"
    else:
        im = f"{_frac_str(z.im)}*i"
    if z.re == 0:
        return im
    sign = "+" if z.im > 0 else ""
    return f"{_frac_str(z.re)}{sign}{im}"


def _coeff_str(c: GaussianRational, with_monomial: bool):
    """Render one coefficient; returns (sign, body) with body suitable for 'body*t^k'."""
    if c.im == 0:
        sign = "-" if c.re < 0 else "+"
        mag = abs(c.re)
        if with_monomial and mag == 1:
            return sign, ""
        return sign, _frac_str(mag)
    if c.re == 0:
        sign = "-" if c.im < 0 else "+"
        mag = abs(c.im)
        body = "i" if mag == 1 else f"{_frac_str(mag)}*i"
        return sign, body
    return "+", f"({scalar_str(c)})"


def _poly_str(p: Polynomial) -> str:
    if not p:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if not c:
            continue
        sign, body = _coeff_str(c, with_monomial=k > 0)
        if k == 0:
            mono = ""
        elif k == 1:
            mono = "t"
        else:
            mono = f"t^{k}"
        if mono and body:
            term = f"{body}*{mono}"
        else:
            term = body or mono or "1"
        if not parts:
            parts.append(term if sign == "+" else f"-{term}")
        else:
            parts.append(f"{sign}{term}" if sign == "-" else f"+{term}")
    return "".join(parts)


def _coeff_den_lcm(p: Polynomial) -> int:
    return lcm(1, *(f.denominator for c in p.coeffs for f in (c.re, c.im)))


def rational_function_str(f: RationalFunction) -> str:
    """Text form "(num)/(den)" with Gaussian-integer coefficients; "num" if den = 1."""
    f = RationalFunction.of(f)
    scale = lcm(_coeff_den_lcm(f.num), _coeff_den_lcm(f.den))
    num = f.num * scale
    den = f.den * scale
    if den.degree == 0 and den.coeffs[0] == 1:
        return _poly_str(num)
    return f"({_poly_str(num)})/({_poly_str(den)})"


# ---------------------------------------------------------------------------
# parsing: one small expression grammar covers scalars and rational functions

_TOKEN_CHARS = set("+-*/^()")


def _tokenize(text: str):
    tokens = []
    k = 0
    while k < len(text):
        ch = text[k]
        if ch.isspace():
            k += 1
        elif ch in _TOKEN_CHARS:
            tokens.append(ch)
            k += 1
        elif ch.isdigit():
            j = k
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(int(text[k:j]))
            k = j
        elif ch in ("i", "t"):
            tokens.append(ch)
            k += 1
        else:
            raise ParseError(f"unexpected character {ch!r} in {text!r}")
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self) -> RationalFunction:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self) -> RationalFunction:
        node = self.power()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.power()
            if op == "*":
                node = node * rhs
            else:
                if not rhs:
                    raise ParseError("division by zero in expression")
                node = node / rhs
        return node

    def power(self) -> RationalFunction:
        base = self.atom()
        while self.peek() == "^":
            self.take()
            neg = False
            if self.peek() == "-":
                self.take()
                neg = True
            e = self.take()
            if not isinstance(e, int):
                raise ParseError("exponent must be an integer")
            base = base ** (-e if neg else e)
        return base

    def atom(self) -> RationalFunction:
        tok = self.take()
        if tok == "-":
            return -self.power()
        if tok == "+":
            return self.power()
        if tok == "(":
            node = self.expr()
            if self.take() != ")":
                raise ParseError("unbalanced parenthesis")
            return node
        if isinstance(tok, int):
            return RationalFunction.of(tok)
        if tok == "i":
            return RationalFunction.of(QI_I)
        if tok == "t":
            return RationalFunction.variable()
        raise ParseError(f"unexpected token {tok!r}")


def parse_rational_function(text: str) -> RationalFunction:
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    if parser.peek() is not None:
        raise ParseError(f"trailing input in {text!r}")
    return node


def parse_scalar(text: str) -> GaussianRational:
    node = parse_rational_function(text)
    if not node.is_constant:
        raise ParseError(f"expected a constant scalar, got {text!r}")
    return node.constant_value()
