"""Witness bases over Z[i][t]: the cleared rows of A and (A^T)^-1 against Q(i)(t).

``ParametrizedBasis`` clears each row of A(t) and of g = (A^T)^-1 to a
Gaussian-integer polynomial row with its own denominator
(``packed._cleared_basis``): g is read off the Cartan form
diag(t^u) g0 diag(t^v) when the basis has one, and comes from
``linalg.mat_inverse`` over Q(i)(t) otherwise.  The reference inverts A^T by
cofactors over Q(i)(t) and runs the conjugation kernel there
(``reference_transported_rows``); the two must give the same rows, the same
verdicts and the same refusal of a singular basis.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import general_path_witness, reference_determinant, reference_transported_rows
from lietriple import catalog
from lietriple import degeneration as dg
from lietriple.core import direct_sum
from lietriple.errors import SingularBasis, SingularMatrix
from lietriple.linalg import mat_inverse
from lietriple.scalars import QI_I, GaussianRational, RationalFunction

G = GaussianRational
T = RationalFunction.variable()
SINGULAR = re.escape("parametrized basis is singular over Q(i)(t)")


def test_rows_of_g_that_the_determinant_divides_carry_none_of_it():
    # g = diag(1/(1+t), 1, t^2): only its first row needs the factor 1+t of det M
    basis = dg.ParametrizedBasis([[1 + T, 0, 0], [0, 1, 0], [0, 0, 1 / T ** 2]])
    assert [rest.degree for *_, rest in basis._cleared[3]] == [1, 0, 0]
    system = catalog.instantiate("T3,2")
    assert dg._transported_rows(system, basis) == reference_transported_rows(system, basis)


def test_the_empty_basis_is_invertible():
    assert dg.ParametrizedBasis([]).dim == 0


# ---------------------------------------------------------------------------
# property test: square bases over Q(i)(t), n = 1..5

big = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 12))
small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
LAURENT = [T ** k for k in range(-3, 4)]
RATIONAL = [1 / (1 + T), (1 + QI_I * T) ** 3, (1 + QI_I * T) ** -2, T / (1 - T) ** 2,
            (T + G(1, 3)) / (T ** 2 + 2)]


def entries(height, rational):
    """c t^k with c of the given height, or, when ``rational``, c f with a small c
    and f in RATIONAL."""
    def times(heights, shapes):
        return st.builds(lambda re, im, f: G(re, im) * f, heights, heights, st.sampled_from(shapes))
    laurent = times(height, LAURENT)
    return (st.one_of(laurent, times(small, RATIONAL)) if rational else laurent).filter(bool)


@st.composite
def bases(draw, n):
    """A square matrix of one of four shapes: diagonal, triangular, monomial, general.

    A general matrix has n <= 3 and small coefficients, and entries outside
    Laurent monomials come with n <= 3, so that the reference elimination over
    Q(i)(t) stays fast; the others also take large coefficients."""
    shape = draw(st.sampled_from(["diagonal", "lower", "upper", "monomial"]
                                 + ["general"] * (n <= 3)))
    zero = RationalFunction.zero
    entry = entries(small if shape == "general" else st.one_of(small, big), rational=n <= 3)
    if shape == "general":
        return [[draw(st.one_of(entry, st.just(zero))) for _ in range(n)] for _ in range(n)]
    rows = [[zero] * n for _ in range(n)]
    order = draw(st.permutations(range(n))) if shape == "monomial" else range(n)
    for i, j in enumerate(order):
        rows[i][j] = draw(entry)
    for i in range(n):
        for j in range(n):
            if (shape == "lower" and j < i) or (shape == "upper" and j > i):
                rows[i][j] = draw(st.one_of(entry, st.just(zero)))
    return rows


# (source, target) with catalog ends, and a source of dimension 5 for rows only
ENDS = {1: ("T1,1", "T1,1"), 2: ("T2,1", "T2,1"), 3: ("T3,2", "T3,1"), 4: ("T4,8", "T4,4")}
FIVE = direct_sum(catalog.instantiate("T4,7"), catalog.instantiate("T1,1"))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_cleared_inverse_agrees_with_q_i_t_elimination(data):
    n = data.draw(st.integers(1, 5))
    rows = data.draw(bases(n))
    try:
        mat_inverse([list(column) for column in zip(*rows)])
    except SingularMatrix:
        with pytest.raises(SingularBasis, match=SINGULAR):
            dg.ParametrizedBasis(rows)
        return
    basis = dg.ParametrizedBasis(rows)
    systems = [FIVE] if n == 5 else [catalog.instantiate(name) for name in ENDS[n]]
    for system in systems:
        assert dg._transported_rows(system, basis) == reference_transported_rows(system, basis)
    if n < 5:
        witness = dg.DegenerationWitness(*ENDS[n], basis)
        problems = dg.verify_degeneration(witness).problems
        general = general_path_witness(witness)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dg, "_transported_rows", reference_transported_rows)
            assert problems == dg.verify_degeneration(general).problems


@pytest.mark.parametrize("rows", [
    [[0]],
    [[T, 1], [T * T, T]],
    [[1 / (1 + T), T], [1, T + T * T]],
    [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
    [[T, 0, 1], [0, QI_I, 0], [T * QI_I, 0, QI_I]],
])
def test_singular_bases_are_refused_with_the_same_message(rows):
    assert not reference_determinant([[RationalFunction.of(x) for x in row] for row in rows])
    with pytest.raises(SingularBasis, match=SINGULAR):
        dg.ParametrizedBasis(rows)
