"""parse_rational_function against RationalFunction arithmetic.

The parser keeps constants in Q(i) until a ``t`` appears and never divides
two rational functions; the reference below builds the same expressions with
the operators of ``RationalFunction``.  Every text gives the reference's value,
or a ParseError where the reference divides by zero.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lietriple.errors import ParseError
from lietriple.scalars import QI_I, RationalFunction, parse_rational_function

T = RationalFunction.variable()
I = RationalFunction.of(QI_I)


@pytest.mark.parametrize("text,value", [
    ("(1)/t^1", 1 / T),
    ("-1/(4*t^3)", -RationalFunction.of(1) / (4 * T ** 3)),
    ("(-36/19)/t^2", RationalFunction.of(-36) / 19 / T ** 2),
    ("(1/t)*(t)", RationalFunction.of(1)),
    ("(-1*i)/t^1", -I / T),
    ("0", RationalFunction.zero),
    ("(1)*(-i)", -I),
    ("(3/t)*(-2/(5*t^2))", RationalFunction.of(-6) / (5 * T ** 3)),
    ("(1-t)/(1+t)", (1 - T) / (1 + T)),
    ("1/(2*t)-1/(2*t)", RationalFunction.zero),
    ("(t^2+3*t)/(t)", T + 3),
    ("(1+i*t)^-2*(1+i*t)^2", RationalFunction.of(1)),
])
def test_witness_token_shapes(text, value):
    parsed = parse_rational_function(text)
    assert type(parsed) is RationalFunction
    assert parsed == value and (parsed.num, parsed.den) == (value.num, value.den)


def leaf():
    return st.one_of(
        st.integers(0, 60).map(lambda k: (str(k), RationalFunction.of(k))),
        st.just(("i", I)),
        st.just(("t", T)),
    )


def binary(parts):
    (left, a), op, (right, b) = parts
    if None in (a, b):
        value = None
    elif op == "/":
        value = None if not b else a / b
    else:
        value = {"+": a + b, "-": a - b, "*": a * b}[op]
    return f"({left}){op}({right})", value


def power(parts):
    (text, a), e = parts
    value = None if a is None or (e < 0 and not a) else a ** e
    return f"({text})^{e}", value


def compound(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(binary),
        children.map(lambda c: (f"-({c[0]})", None if c[1] is None else -c[1])),
        st.tuples(children, st.integers(-3, 3)).map(power),
    )


expressions = st.recursive(leaf(), compound, max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(expressions)
def test_generated_expressions_agree_with_rational_function_arithmetic(pair):
    text, value = pair
    try:
        parsed = parse_rational_function(text)
    except ParseError as error:
        if "division by zero" not in str(error):  # a size bound the reference does not model
            assume(False)
        assert value is None, text
        return
    assert value is not None and parsed == value, text


@pytest.mark.parametrize("text", [
    "1+1/t^32", "1/t^32-1", "2*(t^20*t^13)", "(1/t^17)/(1/t^16)", "i*(t^16)/(t^17)",
])
def test_constants_count_in_the_degree_bound(text):
    # a constant operand has degree 0 over 1, as the rational function it equals
    with pytest.raises(ParseError, match="degree"):
        parse_rational_function(text)


@pytest.mark.parametrize("text", ["1/0", "t/(t-t)", "(2*i-i-i)^-1", "1/(1/t-1/t)"])
def test_division_by_zero_is_refused(text):
    with pytest.raises(ParseError, match="division by zero"):
        parse_rational_function(text)
