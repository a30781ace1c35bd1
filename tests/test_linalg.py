"""Exact linear algebra cross-checked against the fraction-free oracle."""

from fractions import Fraction

import pytest

from conftest import ExactRandom, oracle_rank
from lietriple import linalg
from lietriple.errors import SingularMatrix
from lietriple.linalg import (
    Subspace,
    determinant,
    identity_matrix,
    mat_inverse,
    mat_mul,
    nullspace,
    rank,
    rref,
)
from lietriple.scalars import GaussianRational, RationalFunction


def test_rref_canonical():
    rows, pivots = rref([[2, 4], [1, 2]])
    assert pivots == [0]
    assert rows[0] == [1, 2]
    assert all(x == 0 for x in rows[1])


def test_rank_matches_oracle_randomized():
    rng = ExactRandom(5)
    for _ in range(30):
        n = rng.rng.randint(1, 5)
        m = rng.rng.randint(1, 6)
        rows = [[rng.gaussian(4) for _ in range(m)] for _ in range(n)]
        assert rank(rows) == oracle_rank(rows)


def test_nullspace_is_kernel():
    rng = ExactRandom(9)
    for _ in range(20):
        n, m = rng.rng.randint(1, 4), rng.rng.randint(2, 5)
        rows = [[rng.gaussian(3) for _ in range(m)] for _ in range(n)]
        basis = nullspace(rows, m)
        for vec in basis:
            for row in rows:
                assert sum((a * b for a, b in zip(row, vec)), start=GaussianRational(0)) == 0
        assert len(basis) == m - oracle_rank(rows)


P = 998244353  # the prime of the modular path


def full_rref_nullspace(rows, ncols):
    """Kernel basis from the reduced echelon form of every row, made canonical."""
    reduced, pivots = rref([row for row in rows if any(x != 0 for x in row)])
    zero = next((x - x for row in rows for x in row), GaussianRational(0))
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[fc] = zero + 1
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return [row for row in rref(basis)[0] if any(x != 0 for x in row)]


def tall_system(rng, nrows, ncols, rank, scalar):
    """nrows random combinations of ``rank`` random generators, shuffled."""
    generators = [[scalar() for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        coefficients = [scalar() for _ in generators]
        rows.append([sum(c * g[col] for c, g in zip(coefficients, generators))
                     for col in range(ncols)])
    rng.rng.shuffle(rows)
    return rows


def test_nullspace_of_tall_rank_deficient_systems_matches_full_elimination():
    # rows >> cols and rank < cols: the modular path keeps at most rank rows and
    # must check every other row before it answers
    rng = ExactRandom(17)
    for _ in range(12):
        ncols = rng.rng.randint(3, 10)
        rank_ = rng.rng.randint(1, ncols - 1)
        rows = tall_system(rng, rng.rng.randint(3 * ncols, 6 * ncols), ncols, rank_,
                           lambda: rng.gaussian(4))
        basis = nullspace(rows, ncols)
        assert basis == full_rref_nullspace(rows, ncols)
        assert len(basis) == ncols - oracle_rank(rows)


def test_nullspace_of_full_rank_tall_system_is_zero():
    rng = ExactRandom(19)
    rows = [[rng.gaussian(3) for _ in range(5)] for _ in range(40)]
    assert oracle_rank(rows) == 5
    assert nullspace(rows, 5) == [] == full_rref_nullspace(rows, 5)


def test_unlucky_prime_falls_back_to_full_elimination():
    # [p, 0, 0] vanishes mod p, so the rows independent mod p span only e2 and
    # their kernel holds e1; the exact check against [p, 0, 0] must reject it
    g = GaussianRational
    rows = [[g(P), g(0), g(0)], [g(0), g(1), g(0)], [g(0), g(2), g(0)],
            [g(0), g(P), g(0)], [g(2 * P, P), g(0), g(0)]]
    expected = [[g(0), g(0), g(1)]]
    assert full_rref_nullspace(rows, 3) == expected
    assert nullspace(rows, 3) == expected
    # an unlucky row among generic ones: rank 2 mod p, rank 3 over Q(i)
    rows = [[g(1), g(1), g(0), g(0)], [g(2), g(2), g(0), g(0)],
            [g(0), g(1), g(P + 1), g(0)], [g(1), g(2), g(P + 1), g(0)]]
    rows.append([g(1), g(1), g(P), g(0)])
    assert full_rref_nullspace(rows, 4) == [[g(0), g(0), g(0), g(1)]]
    assert nullspace(rows, 4) == [[g(0), g(0), g(0), g(1)]]


def test_denominator_divisible_by_the_prime_takes_the_full_path():
    g = GaussianRational
    rows = [[g(1) / P, g(1), g(0)], [g(2) / P, g(2), g(0)], [g(0), g(0, 1) / (3 * P), g(1)]]
    assert linalg._cleared_rows(rows[:1]) is None
    assert nullspace(rows, 3) == full_rref_nullspace(rows, 3)
    assert len(nullspace(rows, 3)) == 1


def test_other_fields_keep_full_elimination():
    rng = ExactRandom(23)
    ints = tall_system(rng, 20, 5, 3, lambda: rng.rng.randint(-5, 5))
    assert nullspace(ints, 5) == full_rref_nullspace(ints, 5)
    assert len(nullspace(ints, 5)) == 2
    fractions = tall_system(rng, 20, 5, 2, lambda: Fraction(rng.rng.randint(-5, 5), rng.rng.randint(1, 4)))
    assert nullspace(fractions, 5) == full_rref_nullspace(fractions, 5)
    assert len(nullspace(fractions, 5)) == 3
    t = RationalFunction.variable()
    one, zero = RationalFunction.of(1), RationalFunction.of(0)
    rows = [[t, one, zero], [t * t, t, zero], [one, one / t, zero], [zero, zero, zero]]
    basis = nullspace(rows, 3)
    assert basis == full_rref_nullspace(rows, 3)
    assert len(basis) == 2 and {type(x) for row in basis for x in row} == {RationalFunction}


def test_inverse_and_determinant():
    rng = ExactRandom(11)
    for _ in range(15):
        n = rng.rng.randint(1, 4)
        g = rng.invertible(n, height=5)
        inv = mat_inverse(g)
        prod = mat_mul(g, inv)
        assert prod == identity_matrix(n)
        assert determinant(g) * determinant(inv) == 1


def test_inverse_holds_field_elements_only():
    # the identity block of the augmented matrix takes the entries' own type
    g = ExactRandom(13).invertible(4, height=5)
    assert {type(x) for row in mat_inverse(g) for x in row} == {GaussianRational}
    t = RationalFunction.variable()
    diagonal = [t, 1, t * t, t]  # the basis of the T4,8 -> T4,3 witness
    a = [[RationalFunction.of(diagonal[i] if i == j else 0) for j in range(4)] for i in range(4)]
    assert {type(x) for row in mat_inverse(a) for x in row} == {RationalFunction}
    assert mat_inverse([]) == []


def test_nullspace_holds_field_elements_only():
    # the basis vectors take the rows' own zero and one, or Q(i)'s without rows
    assert {type(x) for row in nullspace([], 3) for x in row} == {GaussianRational}
    rows = [[GaussianRational(1), GaussianRational(0, 1), GaussianRational(0)]]
    assert {type(x) for row in nullspace(rows, 3) for x in row} == {GaussianRational}
    t = RationalFunction.variable()
    rows = [[t, RationalFunction.of(0), RationalFunction.of(1)]]
    assert {type(x) for row in nullspace(rows, 3) for x in row} == {RationalFunction}


def test_int_input_gives_exact_field_elements():
    # an int pivot is inverted in Q(i); 1.0 == 1, so value checks alone would pass on floats
    exact = {int, GaussianRational}
    a = [[2, 4, 1], [1, 3, 5], [4, 1, 2]]
    reduced, pivots = rref(a)
    assert pivots == [0, 1, 2] and {type(x) for row in reduced for x in row} <= exact
    assert {type(x) for row in rref([[2, 4], [1, 2]])[0] for x in row} <= exact
    det = determinant(a)
    assert det == 63 and type(det) in exact
    assert type(determinant([[1, 2], [2, 4]])) in exact
    inv = mat_inverse(a)
    assert mat_mul(a, inv) == identity_matrix(3)
    assert {type(x) for row in inv for x in row} <= exact
    basis = nullspace([[1, 2, 3], [2, 4, 7]], 3)
    assert basis == [[1, Fraction(-1, 2), 0]]
    assert {type(x) for row in basis for x in row} <= exact
    assert {type(x) for row in identity_matrix(4) for x in row} == {GaussianRational}


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrix):
        mat_inverse([[1, 2], [2, 4]])
    assert determinant([[1, 2], [2, 4]]) == 0


class TestSubspace:
    def test_canonical_equality(self):
        a = Subspace(3, [[1, 1, 0], [0, 0, 1]])
        b = Subspace(3, [[2, 2, 2], [0, 0, 5]])
        assert a == b and a.dim == 2

    def test_contains(self):
        s = Subspace(3, [[1, 0, 1]])
        assert s.contains([Fraction(2), Fraction(0), Fraction(2)])
        assert not s.contains([1, 1, 0])
        assert s.contains([0, 0, 0])

    def test_zero_and_full(self):
        z = Subspace(4)
        assert z.dim == 0 and z.contains([0, 0, 0, 0])
        full = Subspace(2, [[1, 0], [0, 1]])
        assert full.dim == 2 and full.contains([3, 5])
