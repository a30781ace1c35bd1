"""parse_scalar parses in Q(i) alone; parsing in Q(i)(t) and taking the constant is the reference.

Every text either gives the same Gaussian rational on both paths or is a
ParseError on both: the grammar, the size bound on "^" and the refusals agree.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ExactRandom
from lietriple import catalog, scalars
from lietriple.core import lts_to_dict
from lietriple.errors import ParseError
from lietriple.scalars import (GaussianRational, _numeral, parse_rational_function, parse_scalar,
                               scalar_str)


def reference(text):
    return parse_rational_function(text).constant_value()


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError:
        return ParseError


def assert_agrees(text):
    got = outcome(parse_scalar, text)
    assert got == outcome(reference, text), text
    assert got is ParseError or isinstance(got, GaussianRational)
    return got


atoms = st.one_of(st.integers(0, 12).map(str), st.integers(0, 10 ** 40).map(str),
                  st.just("i"))


def compound(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map("".join),
        children.map("({})".format),
        children.map("-{}".format),
        st.tuples(children, st.integers(-40, 1100)).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(atoms, st.integers(-12, 600)).map(lambda t: f"{t[0]}^{t[1]}"),
    )


expressions = st.recursive(atoms, compound, max_leaves=10)


@settings(max_examples=400, deadline=None)
@given(expressions)
@example("i*i+1")
@example("2^600")
@example("(1+i)^700")
def test_seeded_expressions_agree_with_the_reference(text):
    assert_agrees(text)


@pytest.mark.parametrize("text,value", [
    ("i", GaussianRational(0, 1)),
    ("i^2", GaussianRational(-1)),
    ("(2^70+1)/3^30", GaussianRational(2 ** 70 + 1) / 3 ** 30),
    ("-(1+i)^-3", -GaussianRational(1, 1) ** -3),
    ("0^1000", GaussianRational(0)),  # the zero base has size 1, as 0/1 does in Q(i)(t)
    ("0^0", GaussianRational(1)),
    ("2^341", GaussianRational(2 ** 341)),  # 341 * 3 bits, just inside MAX_POWER_SIZE
    ("((2^5)^10)^5", GaussianRational(2 ** 250)),
])
def test_values(text, value):
    assert assert_agrees(text) == value


@pytest.mark.parametrize("text", [
    "2^342", "0^1100", "(2^64)^64", "i^600", "(1/3)^400",  # past MAX_POWER_SIZE
    "0^-1", "(1-1)^-2", "1/0", "1/(i*i+1)",  # division by zero
    "1 +", "(1", "2**3", "x", "i^i",  # malformed
])
def test_refusals(text):
    assert assert_agrees(text) is ParseError


@pytest.mark.parametrize("text", ["t", "t/t", "t-t", "(1+t)^0", "1+i*t"])
def test_scalars_refuse_the_variable(text):
    parse_rational_function(text)  # a rational function, constant or not
    with pytest.raises(ParseError, match=re.escape(f"expected a constant scalar, got '{text}'")):
        parse_scalar(text)


FAMILY = [("T4,6", GaussianRational(lam)) for lam in (2, -3)] + \
    [("T4,6", GaussianRational(1, 2))]
CATALOG = [(name, None) for name, entry in catalog.ENTRIES.items() if not entry.family] + FAMILY


@pytest.mark.parametrize("name,lam", CATALOG)
def test_document_values_of_dense_conjugates(name, lam):
    system = catalog.instantiate(name, lam)
    rng = ExactRandom(sum(map(ord, name)) + 11)
    doc = lts_to_dict(system.change_basis(rng.invertible(system.dim, height=7)))
    for text in (text for entry in doc["products"] for text in entry["value"].values()):
        assert assert_agrees(text) is not ParseError


@pytest.mark.parametrize("text", ["", " ", "1+", "(2*", "-", "2*(1+"])
def test_an_input_that_ends_early_says_so(text):
    # the parser ran out of tokens where an operand belongs
    for parse in (parse_scalar, parse_rational_function):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"input ended where an operand was expected in {text!r}"


# -- the texts scalar_str prints are read without the grammar ---------------------

parts = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-10 ** 30, 10 ** 30),
                  st.fractions(max_denominator=10 ** 20))


@settings(max_examples=300, deadline=None)
@given(real=parts, imag=parts)
@example(real=0, imag=1)
@example(real=0, imag=-1)
@example(real=Fraction(-1, 2), imag=-1)
def test_printed_scalars_are_read_without_the_grammar(real, imag):
    z = GaussianRational(real, imag)
    text = scalar_str(z)

    def grammar(*args):
        raise AssertionError(f"the grammar read {text!r}")

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(scalars, "_parsed", {})
        monkeypatch.setattr(scalars, "_Parser", grammar)
        assert parse_scalar(text) == z
        assert parse_rational_function(text).constant_value() == z
    assert _numeral(text)._t == z._t


LONG_LITERAL = "7" * 5_000


@pytest.mark.parametrize("text,value", [
    ("3i", "trailing input in '3i'"),
    ("1+2i", "trailing input in '1+2i'"),
    ("1/0", "division by zero in expression"),
    ("1/0*i", "division by zero in expression"),
    ("+3", GaussianRational(3)),
    (" 1", GaussianRational(1)),
    ("\u0661", GaussianRational(1)),  # ARABIC-INDIC DIGIT ONE: not an ASCII digit
    ("1/2*3", GaussianRational(Fraction(3, 2))),
    ("2^3", GaussianRational(8)),
    ("i+1", GaussianRational(1, 1)),
    (LONG_LITERAL, "integer literal of 5000 digits is too long"),
    ("1/" + LONG_LITERAL, "integer literal of 5000 digits is too long"),
    ("", "input ended where an operand was expected in ''"),
])
def test_other_texts_go_to_the_grammar(monkeypatch, text, value):
    monkeypatch.setattr(scalars, "_parsed", {})
    assert _numeral(text) is None
    if isinstance(value, str):
        with pytest.raises(ParseError) as info:
            parse_scalar(text)
        assert str(info.value) == value
    else:
        assert parse_scalar(text) == value
