"""Exact scalar tower: arithmetic, limits, parsing, canonical forms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lietriple.errors import ParseError, PoleAtPoint, PoleAtZero
from lietriple.scalars import (
    GaussianRational,
    Polynomial,
    QI_I,
    QI_ONE,
    QI_ZERO,
    RationalFunction,
    evaluate_at,
    frac_sqrt,
    gaussian_sqrt,
    limit_at_zero,
    parse_rational_function,
    parse_scalar,
    rational_function_str,
    scalar_str,
)

T = RationalFunction.variable()


fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=12)
gaussians_st = st.builds(GaussianRational, fractions_st, fractions_st)


class TestFieldArithmetic:
    def test_fraction_add(self):
        assert GaussianRational(Fraction(1, 2)) + Fraction(1, 3) == Fraction(5, 6)

    def test_i_squared(self):
        assert QI_I * QI_I == -1

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            1 / QI_ZERO

    def test_unary_ops(self):
        assert -GaussianRational(2, 3) == GaussianRational(-2, -3)
        assert 1 / GaussianRational(0, 2) == GaussianRational(0, Fraction(-1, 2))

    @given(a=gaussians_st, b=gaussians_st, c=gaussians_st)
    @settings(max_examples=60, deadline=None)
    def test_field_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == QI_ZERO
        if a:
            assert a * a.inverse() == QI_ONE

    @given(a=gaussians_st)
    @settings(max_examples=40, deadline=None)
    def test_conjugation_involution(self, a):
        assert a.conjugate().conjugate() == a
        assert a * a.conjugate() == GaussianRational(a.norm())


class TestLimits:
    def test_cancel_then_evaluate(self):
        f = (T * T + 3 * T) / T
        assert limit_at_zero(f) == 3

    def test_pole(self):
        with pytest.raises(PoleAtZero):
            limit_at_zero(1 / T)

    def test_higher_order_cancellation(self):
        assert limit_at_zero(T ** 3 / T) == 0

    @given(st.integers(-8, 8), st.integers(-8, 8), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_limit_multiplicative(self, a, b, k, m):
        f = (a + T ** k) / (1 + T)
        g = (b + T) / (2 + T ** m)
        assert limit_at_zero(f * g) == limit_at_zero(f) * limit_at_zero(g)


class TestEvaluateAt:
    def test_at_half(self):
        assert evaluate_at(1 / (2 * T), Fraction(1, 2)) == 1

    def test_at_i(self):
        assert evaluate_at(T, QI_I) == QI_I

    def test_pole_at_point(self):
        with pytest.raises(PoleAtPoint):
            evaluate_at(1 / (T - 1), 1)


class TestCanonicalForm:
    def test_same_function_two_ways(self):
        f = (T ** 2 + 3 * T) / T
        g = T + 3
        assert f == g
        assert hash(f) == hash(g)
        assert f.den.degree == 0

    def test_denominator_monic(self):
        f = 1 / (2 * T - 1)
        assert f.den.lead == 1
        assert f.num.coeffs[0] == Fraction(1, 2)

    @given(st.integers(-6, 6), st.integers(1, 5), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_common_factor_reduces(self, a, b, k):
        common = (T + a) ** k
        f = (b * common) / ((T - 7) * common)
        assert f == RationalFunction.of(b) / (T - 7)

    def test_zero_normalizes(self):
        f = RationalFunction(Polynomial(), Polynomial([2, 1]))
        assert not f
        assert f.den == Polynomial.of(1)


class TestParsingPrinting:
    @pytest.mark.parametrize("text,value", [
        ("5/6", GaussianRational(Fraction(5, 6))),
        ("1/2+1/3*i", GaussianRational(Fraction(1, 2), Fraction(1, 3))),
        ("-i", GaussianRational(0, -1)),
        ("3", GaussianRational(3)),
        ("2*i", GaussianRational(0, 2)),
        ("1/2-1/3*i", GaussianRational(Fraction(1, 2), Fraction(-1, 3))),
    ])
    def test_scalar_round_trip(self, text, value):
        assert parse_scalar(text) == value
        assert parse_scalar(scalar_str(value)) == value

    @pytest.mark.parametrize("text", [
        "(t^2+3*t)/(t)", "1/(2*t)", "t^-1", "(1-t)/(1+t)", "-1/(4*t^4)",
        "t/3", "(-i)*t", "(1+2*i)*t^2-3", "0",
    ])
    def test_rf_round_trip(self, text):
        f = parse_rational_function(text)
        assert parse_rational_function(rational_function_str(f)) == f

    def test_reject_garbage(self):
        for bad in ("1 +", "x", "t^t", "(1", "2**3"):
            with pytest.raises(ParseError):
                parse_rational_function(bad)

    def test_scalar_rejects_t(self):
        with pytest.raises(ParseError):
            parse_scalar("t+1")


class TestSquareRoots:
    @given(fractions_st)
    @settings(max_examples=40, deadline=None)
    def test_frac_sqrt_of_square(self, x):
        r = frac_sqrt(x * x)
        assert r is not None and r * r == x * x

    @given(gaussians_st)
    @settings(max_examples=40, deadline=None)
    def test_gaussian_sqrt_of_square(self, z):
        r = gaussian_sqrt(z * z)
        assert r is not None and r * r == z * z

    def test_non_square(self):
        assert frac_sqrt(Fraction(2)) is None
        assert gaussian_sqrt(GaussianRational(2)) is None
        assert gaussian_sqrt(GaussianRational(0, 2)) == GaussianRational(1, 1)


class TestPolynomialRing:
    @given(st.lists(st.integers(-5, 5), max_size=5),
           st.lists(st.integers(-5, 5), max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_divmod_invariant(self, a, b):
        pa, pb = Polynomial(a), Polynomial(b)
        if not pb:
            return
        q, r = divmod(pa, pb)
        assert q * pb + r == pa
        assert r.degree < pb.degree
