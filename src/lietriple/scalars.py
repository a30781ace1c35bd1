"""Exact scalar tower: Q, Q(i), and the rational-function field Q(i)(t).

Everything here is immutable and exact.  Rationals are ``fractions.Fraction``;
a Gaussian rational (a + b*i)/d is a reduced triple of Python integers;
rational functions are reduced fractions of univariate polynomials over the
Gaussian rationals with a monic denominator.  Canonical forms are restored
eagerly after every operation, so equality is plain component comparison and
limits at t = 0 can be read off the reduced denominator.  ``parse_scalar``
and ``parse_rational_function`` share one memo of the last 1024 distinct
strings read, keyed by field; a refused string is not stored.  A string in a
form ``scalar_str`` prints (``p/q``, ``p/q+r/s*i``, ``-i``, ...) is read by one
regular expression, and any other string by the expression grammar.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm
from sys import hash_info

from .errors import ParseError, PoleAtPoint, PoleAtZero

__all__ = [
    "GaussianRational",
    "Polynomial",
    "RationalFunction",
    "QI_ZERO",
    "QI_ONE",
    "QI_I",
    "field_of",
    "coerce",
    "parse_scalar",
    "parse_rational_function",
    "scalar_str",
    "rational_function_str",
    "gaussian_roots",
    "gaussian_integers",
]


def _ratio(x):
    """(numerator, denominator) of an int or Fraction, in lowest terms."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _power(base, k, out):
    """out * base^k for k >= 0 by repeated squaring, squaring no further than k needs."""
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


class GaussianRational:
    """An element (a + b*i)/d of Q(i), stored as integers with d > 0, gcd(a, b, d) = 1.

    The triple ``_t = (a, b, d)`` is canonical, so equality compares integers.
    ``re`` and ``im`` are the Fraction components a/d and b/d.
    """

    __slots__ = ("_t",)

    def __init__(self, re=0, im=0):
        a, q = _ratio(re)
        b, s = _ratio(im)
        d = lcm(q, s)  # re and im are in lowest terms, so this leaves gcd(a, b, d) = 1
        _set_t(self, (a * (d // q), b * (d // s), d))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._t[0], self._t[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self._t[1], self._t[2])

    @staticmethod
    def of(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        p, q = _ratio(x)
        return _make(p, 0, q)

    @property
    def is_rational(self) -> bool:
        return self._t[1] == 0

    def conjugate(self) -> "GaussianRational":
        a, b, d = self._t
        return _make(a, -b, d)

    def norm(self) -> Fraction:
        a, b, d = self._t
        return Fraction(a * a + b * b, d * d)

    def __bool__(self):
        a, b, _ = self._t
        return a != 0 or b != 0

    def __eq__(self, other):
        if isinstance(other, int):
            a, b, d = self._t
            return b == 0 and d == 1 and a == other
        if isinstance(other, GaussianRational):
            return self._t == other._t
        if isinstance(other, Fraction):
            return self._t == (other.numerator, 0, other.denominator)
        return NotImplemented

    def __ne__(self, other):
        if isinstance(other, int):
            a, b, d = self._t
            return b != 0 or d != 1 or a != other
        if isinstance(other, GaussianRational):
            return self._t != other._t
        if isinstance(other, Fraction):
            return self._t != (other.numerator, 0, other.denominator)
        return NotImplemented

    def __hash__(self):
        a, b, d = self._t
        if b:
            return hash(self._t)
        if d == 1:
            return hash(a)
        # hash(Fraction(a, d)) without building the Fraction: Python's numeric
        # hash of a/d is |a| / d modulo the hash prime, or inf if the prime divides d.
        if d % _HASH_MODULUS:
            h = hash(hash(abs(a)) * pow(d, -1, _HASH_MODULUS))
        else:
            h = _HASH_INF
        if a < 0:
            h = -h
        return -2 if h == -1 else h

    def __neg__(self):
        a, b, d = self._t
        return _make(-a, -b, d)

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            a2, b2, d2 = other._t
        elif isinstance(other, int):
            a, b, d = self._t
            return _make(a + other * d, b, d)
        elif isinstance(other, Fraction):
            a2, b2, d2 = other.numerator, 0, other.denominator
        else:
            return NotImplemented
        a1, b1, d1 = self._t
        return _add(a1, b1, d1, a2, b2, d2)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            a2, b2, d2 = other._t
        elif isinstance(other, int):
            a, b, d = self._t
            return _make(a - other * d, b, d)
        elif isinstance(other, Fraction):
            a2, b2, d2 = other.numerator, 0, other.denominator
        else:
            return NotImplemented
        a1, b1, d1 = self._t
        return _add(a1, b1, d1, -a2, -b2, d2)

    def __rsub__(self, other):
        a, b, d = self._t
        if isinstance(other, int):
            return _make(other * d - a, -b, d)
        if isinstance(other, Fraction):
            return _add(-a, -b, d, other.numerator, 0, other.denominator)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            a2, b2, d2 = other._t
        elif isinstance(other, int):
            a, b, d = self._t
            g = gcd(other, d)
            other //= g
            return _make(a * other, b * other, d // g)
        elif isinstance(other, Fraction):
            a2, b2, d2 = other.numerator, 0, other.denominator
        else:
            return NotImplemented
        a1, b1, d1 = self._t
        if b1 or b2:
            a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
        else:
            a, b = a1 * a2, 0
        d = d1 * d2
        if d != 1:  # the full gcd: (1+i)/2 * (1-i) = 2/2 cancels past any cross gcd
            g = gcd(a, b, d)
            if g != 1:
                a, b, d = a // g, b // g, d // g
        z = _new(GaussianRational)
        _set_t(z, (a, b, d))
        return z

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        return _div(1, 0, 1, *self._t)

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            return _div(*self._t, *other._t)
        if isinstance(other, (int, Fraction)):
            p, q = _ratio(other)
            return _div(*self._t, p, 0, q)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = _ratio(other)
            return _div(p, 0, q, *self._t)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self, k, QI_ONE)

    def __repr__(self):
        return f"GaussianRational({scalar_str(self)!r})"

    def __str__(self):
        return scalar_str(self)


# The hot constructors fill the one slot through its descriptor, which
# bypasses the immutability guard in __setattr__.
_set_t = GaussianRational._t.__set__
_new = object.__new__
_HASH_MODULUS = hash_info.modulus
_HASH_INF = hash_info.inf


def _make(a, b, d):
    """(a + b*i)/d from a triple that is already canonical."""
    z = _new(GaussianRational)
    _set_t(z, (a, b, d))
    return z


def _reduced(a, b, d):
    """(a + b*i)/d for any nonzero d: divide out gcd(a, b, d) and make d positive."""
    g = gcd(a, b, d)
    if d < 0:
        g = -g
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _make(a, b, d)


def _add(a1, b1, d1, a2, b2, d2):
    """Sum of two canonical triples (Henrici: only gcd(d1, d2) can cancel)."""
    if d1 == 1 and d2 == 1:
        t = (a1 + a2, b1 + b2, 1)
    else:
        g = gcd(d1, d2)
        if g == 1:
            t = (a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)
        else:
            s, u = d1 // g, d2 // g
            a, b = a1 * u + a2 * s, b1 * u + b2 * s
            g = gcd(a, b, g)
            t = (a // g, b // g, s * (d2 // g))
    z = _new(GaussianRational)
    _set_t(z, t)
    return z


def _div(a1, b1, d1, a2, b2, d2):
    """Quotient of two canonical triples: multiply through by d2 times the conjugate."""
    if b2:
        n = a2 * a2 + b2 * b2
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, d1 * n)
    if not a2:
        raise ZeroDivisionError("division by zero")
    return _reduced(a1 * d2, b1 * d2, d1 * a2)


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

    def __reduce__(self):
        return Polynomial, (self.coeffs,)

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
        if isinstance(other, Polynomial) and len(other.coeffs) == 1:
            other = other.coeffs[0]
        if isinstance(other, (int, Fraction, GaussianRational)):  # the lead times c is not 0
            return _polynomial(tuple(x * other for x in self.coeffs)) if other else Polynomial()
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
        return _polynomial(tuple(out))

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


def _polynomial(coeffs):
    """A Polynomial from a tuple of GaussianRationals whose last one is nonzero."""
    out = _new(Polynomial)
    object.__setattr__(out, "coeffs", coeffs)
    return out


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while b:
        a, b = b, a % b
    return a.monic()


_POLY_ONE = Polynomial([QI_ONE])


def _cancel(num, den):
    """num and den divided by a common divisor that leaves them coprime.

    Powers of t cancel by shifting coefficients; the rest of den, den / t^k,
    is tried as a divisor of num before any gcd.
    """
    low, k = (next(e for e, c in enumerate(p.coeffs) if c) for p in (num, den))
    common = min(low, k)
    num, rest = _polynomial(num.coeffs[common:]), _polynomial(den.coeffs[k:])
    if rest.degree > 0:
        quotient, remainder = divmod(num, rest)
        if not remainder:
            num, rest = quotient, _POLY_ONE
        else:  # t is prime to num once k > common, so the gcd with rest is the gcd
            g = poly_gcd(rest, remainder)
            if g.degree > 0:
                num, rest = num // g, rest // g
    return num, _polynomial((QI_ZERO,) * (k - common) + rest.coeffs)


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

    def __reduce__(self):
        return RationalFunction, (self.num, self.den)

    @staticmethod
    def of(x) -> "RationalFunction":
        if isinstance(x, RationalFunction):
            return x
        return _reduced_function(Polynomial.of(x), _POLY_ONE)

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

    # a constant c keeps lowest terms: num + c*den and c*num are prime to den

    def __neg__(self):
        return _reduced_function(-self.num, self.den)

    def __add__(self, other):
        if not isinstance(other, RationalFunction):
            return _reduced_function(self.num + self.den * other, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, RationalFunction):
            return _reduced_function(self.num - self.den * other, self.den)
        return RationalFunction(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return _reduced_function(self.num * other, self.den) if other else RationalFunction.zero
        other = RationalFunction.of(other) if not isinstance(other, RationalFunction) else other
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        inv = self.num.lead.inverse()  # den/num is in lowest terms once num is monic
        return _reduced_function(self.den * inv, self.num * inv)

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
        # num and den are coprime and den is monic, and so are their powers
        return _reduced_function(_power(self.num, k, _POLY_ONE), _power(self.den, k, _POLY_ONE))

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


def _reduced_function(num, den):
    """num/den from a numerator and a monic denominator already in lowest terms."""
    out = _new(RationalFunction)
    object.__setattr__(out, "num", num)
    object.__setattr__(out, "den", den)
    return out


# Each scalar class is its own field: ``of`` coerces into it, and ``zero`` and
# ``one`` are its constants.
GaussianRational.zero, GaussianRational.one = QI_ZERO, QI_ONE
RationalFunction.zero, RationalFunction.one = RationalFunction.of(0), RationalFunction.of(1)
_VARIABLE = RationalFunction.variable()


def field_of(x):
    """The field a scalar lives in: Q(i)(t) for a rational function, Q(i) otherwise."""
    return RationalFunction if isinstance(x, RationalFunction) else GaussianRational


def coerce(x):
    """A field element unchanged; anything else through ``GaussianRational.of``,
    which refuses floats."""
    if isinstance(x, (GaussianRational, RationalFunction)):
        return x
    return GaussianRational.of(x)


def gaussian_integers(values):
    """(D, [(a, b)]) with D*z = a + b*i for each value z and D the lcm of the
    denominators, in one pass; None if a value is not a GaussianRational."""
    scale, triples = 1, []
    for z in values:
        if z.__class__ is not GaussianRational:
            return None
        t = z._t
        triples.append(t)
        if scale % t[2]:
            scale = lcm(scale, t[2])
    if scale == 1:
        return 1, [(a, b) for a, b, _ in triples]
    return scale, [(a * (scale // d), b * (scale // d)) for a, b, d in triples]


# ---------------------------------------------------------------------------
# roots in Q(i): Hensel lifting at an inert prime, then rational reconstruction
# (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 5 and 15)


def _inert_primes():
    """Primes p = 3 (mod 4) in increasing order; Z[i]/(p) is the field F_{p^2}."""
    p = 3
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 4


def _eval_mod(coeffs, u, v, m):
    """f(u + v*i) in Z[i]/(m), for ascending Gaussian-integer pairs (a, b)."""
    re = im = 0
    for a, b in reversed(coeffs):
        re, im = (re * u - im * v + a) % m, (re * v + im * u + b) % m
    return re, im


def _rational_reconstruction(u, m, bound):
    """The first fraction n/d = u (mod m) with |n| <= bound on the Euclidean remainders.

    A fraction in lowest terms with n/d = u (mod m), |n| <= bound and
    0 < d <= m / (bound + 1) is always this one.
    """
    r0, r1, t0, t1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return Fraction(r1, t1)


def gaussian_roots(f: Polynomial):
    """The distinct roots in Q(i) of a nonzero polynomial over Q(i).

    Over Z[i] a root alpha/beta in lowest terms has beta | lead and
    alpha | constant (Gauss's lemma), which bounds the parts of
    alpha*conj(beta)/N(beta).  The simple roots of the square-free part modulo
    an inert prime are lifted and reconstructed after every step, keeping only
    candidates that are exact roots.  Distinct roots have distinct residues, so
    lifting stops once every residue gives its own root, and otherwise goes
    past that bound: an empty result proves that there is no root in Q(i).
    """
    if not f:
        raise ValueError("every scalar is a root of the zero polynomial")
    shift = next(k for k, c in enumerate(f.coeffs) if c)
    roots = [QI_ZERO] if shift else []
    f = Polynomial(f.coeffs[shift:])
    if f.degree < 1:
        return roots
    g = poly_gcd(f, Polynomial([k * c for k, c in enumerate(f.coeffs)][1:]))
    if g.degree > 0:
        f = f // g
    _, coeffs = gaussian_integers(f.coeffs)
    deriv = [(k * a, k * b) for k, (a, b) in enumerate(coeffs)][1:]
    (a0, b0), (an, bn) = coeffs[0], coeffs[-1]
    lead_norm = an * an + bn * bn
    bound = isqrt((a0 * a0 + b0 * b0) * lead_norm) + 1  # |alpha| |beta|
    for p in _inert_primes():
        if an % p or bn % p:  # the lead stays a unit, so every denominator does
            residues = [(u, v) for u in range(p) for v in range(p)
                        if _eval_mod(coeffs, u, v, p) == (0, 0)]
            # then each root in Q(i) reduces to a simple residue of its own
            if all(_eval_mod(deriv, u, v, p) != (0, 0) for u, v in residues):
                break
    m = p
    while True:
        final, found = m > 2 * bound * lead_norm, []
        for u, v in residues:  # a root's denominators divide N(beta), so N(lead)
            z = GaussianRational(_rational_reconstruction(u, m, bound),
                                 _rational_reconstruction(v, m, bound))
            if not lead_norm % z._t[2] and not f(z):
                found.append(z)
            elif not final:
                break
        if final or len(set(found)) == len(residues):
            return roots + found
        m *= m
        lifted = []
        for u, v in residues:  # Newton step u + v*i -= f / f'
            fa, fb = _eval_mod(coeffs, u, v, m)
            da, db = _eval_mod(deriv, u, v, m)
            inv = pow(da * da + db * db, -1, m)
            lifted.append(((u - (fa * da + fb * db) * inv) % m,
                           (v - (fb * da - fa * db) * inv) % m))
        residues = lifted


# ---------------------------------------------------------------------------
# printing

def _ratio_str(n: int, d: int) -> str:
    """n/d in lowest terms, printed as Fraction prints it: "p/q" or "p"."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def scalar_str(z: GaussianRational) -> str:
    """Canonical text form: "p/q", "r/s*i", or "p/q+r/s*i"."""
    a, b, d = GaussianRational.of(z)._t
    if b == 0:
        return _ratio_str(a, d)
    if b == d:
        im = "i"
    elif b == -d:
        im = "-i"
    else:
        im = f"{_ratio_str(b, d)}*i"
    if a == 0:
        return im
    sign = "+" if b > 0 else ""
    return f"{_ratio_str(a, d)}{sign}{im}"


def _coeff_str(c: GaussianRational, with_monomial: bool):
    """Render one coefficient; returns (sign, body) with body suitable for 'body*t^k'."""
    a, b, d = c._t
    if a and b:
        return "+", f"({scalar_str(c)})"
    n = b or a
    sign = "-" if n < 0 else "+"
    mag = "" if abs(n) == d else _ratio_str(abs(n), d)
    if b:
        return sign, f"{mag}*i" if mag else "i"
    return sign, mag if mag or with_monomial else "1"


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


def rational_function_str(f: RationalFunction) -> str:
    """Text form "(num)/(den)" with Gaussian-integer coefficients; "num" if den = 1."""
    f = RationalFunction.of(f)
    scale, _ = gaussian_integers(f.num.coeffs + f.den.coeffs)
    num, den = f.num * scale, f.den * scale
    if den.degree == 0 and den.coeffs[0] == 1:
        return _poly_str(num)
    return f"({_poly_str(num)})/({_poly_str(den)})"


# ---------------------------------------------------------------------------
# parsing: one small expression grammar covers scalars and rational functions

_TOKEN = re.compile(r"\d+|\S")  # a run of decimal digits, or one character
_SYMBOLS = frozenset("+-*/^()it")
_MAX_NESTING = 100  # parentheses; each level takes four frames of recursion

# Largest |e| * size(base) that "^" computes, the size being the base's
# coefficient bits plus its degree; this bounds nested powers too.  A product
# of polynomials costs about the square of their degree, so the degree of
# every result before cancellation, deg num + deg den, has a bound of its own:
# |e| * (deg num + deg den) for "^", and likewise for "+", "-", "*" and "/".
MAX_POWER_SIZE = 1024
MAX_POWER_DEGREE = 32


def _bound_degree(a, b, op: str):
    """Refuse a op b when its degree before cancellation exceeds MAX_POWER_DEGREE."""
    if a.__class__ is b.__class__ is GaussianRational:  # constants have degree at most 0
        return
    # a constant z counts as z/1, and 0 has degree -1
    (a_num, a_den), (b_num, b_den) = ((x.num.degree, x.den.degree) if isinstance(
        x, RationalFunction) else (0 if x else -1, 0) for x in (a, b))
    top = max(a_num + b_den, b_num + a_den) if op in "+-" else a_num + b_num
    if top + a_den + b_den > MAX_POWER_DEGREE:
        raise ParseError(f"'{op}' exceeds degree {MAX_POWER_DEGREE} before cancellation")


def _power_size(base):
    """(size, degree) of a base of "^"; a constant z counts as z/1 (0 has degree -1)."""
    if isinstance(base, RationalFunction):
        coeffs, degree = base.num.coeffs + base.den.coeffs, base.num.degree + base.den.degree
    else:
        coeffs, degree = (base, QI_ONE), 0 if base else -1
    bits = max(max(abs(a).bit_length(), abs(b).bit_length()) + d.bit_length()
               for a, b, d in (c._t for c in coeffs))
    return bits + degree, degree


def _tokenize(text: str):
    """The tokens of text, last first, above a None that marks the end: the parser pops them."""
    tokens = []
    for tok in _TOKEN.findall(text):
        if tok in _SYMBOLS:
            tokens.append(tok)
        elif tok.isdecimal():
            try:
                tokens.append(int(tok))
            except ValueError:  # past the interpreter's limit on digits
                raise ParseError(f"integer literal of {len(tok)} digits is too long") from None
        else:
            raise ParseError(f"unexpected character {tok!r} in {text!r}")
    return [None, *reversed(tokens)]


class _Parser:
    """One grammar; constants stay in Q(i), and ``t`` is admitted when ``field``
    is RationalFunction.  No operator divides two rational functions: a
    quotient is a product by the inverse, which needs no gcd."""

    def __init__(self, text: str, field):
        self.text = text
        self.tokens = _tokenize(text)
        self.field = field
        self.depth = 0

    def parse(self):
        node = self.expr()
        if self.tokens.pop() is not None:
            raise ParseError(f"trailing input in {self.text!r}")
        return node

    def expr(self):
        tokens = self.tokens
        node = self.term()
        while tokens[-1] in ("+", "-"):
            op = tokens.pop()
            rhs = self.term()
            _bound_degree(node, rhs, op)
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self):
        tokens = self.tokens
        node = self.power()
        while tokens[-1] in ("*", "/"):
            op = tokens.pop()
            rhs = self.power()
            _bound_degree(node, rhs, op)
            if op == "*":
                node = node * rhs
            elif not rhs:
                raise ParseError("division by zero in expression")
            else:
                node = node / rhs if node.__class__ is rhs.__class__ is GaussianRational \
                    else node * rhs.inverse()
        return node

    def power(self):
        """Unary signs, then an atom and its exponents: a sign applies to the power."""
        tokens = self.tokens
        neg = False
        while tokens[-1] in ("+", "-"):
            neg ^= tokens.pop() == "-"
        base = self.atom()
        while tokens[-1] == "^":
            tokens.pop()
            inverse = tokens[-1] == "-"
            if inverse:
                tokens.pop()
            e = tokens.pop()
            if not isinstance(e, int):
                raise ParseError("exponent must be an integer")
            size, degree = _power_size(base)
            if e * size > MAX_POWER_SIZE or e * degree > MAX_POWER_DEGREE:
                raise ParseError(f"power too large: exponent {e} on a base of size {size} "
                                 f"and degree {degree} exceeds {MAX_POWER_SIZE} in size "
                                 f"or {MAX_POWER_DEGREE} in degree")
            if inverse and not base:
                raise ParseError("division by zero in expression")
            base = base ** (-e if inverse else e)
        return -base if neg else base

    def atom(self):
        tok = self.tokens.pop()
        if tok.__class__ is int:
            return GaussianRational.of(tok)
        if tok == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested more than {_MAX_NESTING} deep")
            self.depth += 1
            node = self.expr()
            if self.tokens.pop() != ")":
                raise ParseError("unbalanced parenthesis")
            self.depth -= 1
            return node
        if tok == "i":
            return QI_I
        if tok == "t":
            if self.field is GaussianRational:
                raise ParseError(f"expected a constant scalar, got {self.text!r}")
            return _VARIABLE
        if tok is None:
            raise ParseError(f"input ended where an operand was expected in {self.text!r}")
        raise ParseError(f"unexpected token {tok!r}")


# The texts scalar_str prints, in ASCII digits: p or p/q, then nothing, +-i or +-r[/s]*i;
# or i, -i and [-]r[/s]*i alone.  The groups are p, q, the sign of i, r, s and i.
_NUMERAL = re.compile(r"(?:(-?[0-9]+)(?:/([0-9]+))?)?"
                      r"(?:((?(1)[+-]|-?))(?:([0-9]+)(?:/([0-9]+))?\*)?(i))?")


def _numeral(text: str):
    """The value of a text in a form scalar_str prints, or None: every other text, a zero
    denominator and a literal past the interpreter's limit on digits go to the grammar,
    which reads or refuses them with its own message."""
    match = _NUMERAL.fullmatch(text)
    if match is None:
        return None
    p, q, sign, r, s, i = match.groups()
    try:
        a, d1 = int(p or 0), int(q or 1)
        b, d2 = (int(sign + (r or "1")), int(s or 1)) if i else (0, 1)
    except ValueError:
        return None
    if (p is None and i is None) or not (d1 and d2):  # the empty text, or a division by 0
        return None
    return _reduced(a * d2, b * d1, d1 * d2)


_parsed: dict = {}  # (text, field) -> value, in the order the texts were first read
_MAX_PARSED = 1024  # every distinct string a process reads would otherwise stay held
_MAX_HELD_TEXT = 256  # characters; a longer text is parsed on every read, never held


def _read(text: str, field):
    """The value of text in field, parsed once while it stays among the last _MAX_PARSED
    texts read: by ``_numeral`` when it takes the text, else by the grammar.  A refused
    text, or one longer than _MAX_HELD_TEXT, is not stored, so it is parsed on every read;
    a value is immutable, so every reader can share it."""
    key = (text, field)
    value = _parsed.get(key)
    if value is None:
        value = _numeral(text)
        value = field.of(_Parser(text, field).parse() if value is None else value)
        if len(text) > _MAX_HELD_TEXT:
            return value
        if len(_parsed) >= _MAX_PARSED:  # the first read goes first
            del _parsed[next(iter(_parsed))]
        _parsed[key] = value
    return value


def parse_rational_function(text: str) -> RationalFunction:
    """An element of Q(i)(t) written in the variable t and the unit i."""
    return _read(text, RationalFunction)


def parse_scalar(text: str) -> GaussianRational:
    """An element of Q(i), parsed without leaving Q(i); the variable t is refused."""
    return _read(text, GaussianRational)
