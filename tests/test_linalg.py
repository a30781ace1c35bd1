"""Exact linear algebra cross-checked against the fraction-free oracle."""

import importlib
import json
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (T32_EXTENSIONS, ExactRandom, full_rref_nullspace, oracle_rank,
                      reference_determinant, reference_rref, sparse_rows)
from lietriple import catalog, linalg
from lietriple import degeneration as dg
from lietriple.cohomology import (Cocycle, cocycle_space, cohomology, delta_indices,
                                  extension_rows)
from lietriple.core import _axiom_residuals, direct_sum, lts_from_dict, lts_to_dict
from lietriple.errors import SingularMatrix
from lietriple.extension import ExtensionSpec, extend, in_ts
from lietriple.linalg import (
    Subspace,
    identity_matrix,
    mat_inverse,
    mat_mul,
    nullspace,
    rank,
    rref,
)
from lietriple.scalars import QI_ONE, QI_ZERO, GaussianRational, RationalFunction

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_rref_canonical():
    rows, pivots = rref([[2, 4], [1, 2]])
    assert pivots == [0] and len(rows) == 2
    assert rows[0] == [1, 2]
    assert all(x == 0 for x in rows[1])


def test_rank_matches_oracle_randomized():
    rng = ExactRandom(5)
    for _ in range(30):
        n = rng.rng.randint(1, 5)
        m = rng.rng.randint(1, 6)
        rows = [[rng.gaussian(4) for _ in range(m)] for _ in range(n)]
        assert rank(sparse_rows(rows)) == oracle_rank(rows)


def test_nullspace_is_kernel():
    rng = ExactRandom(9)
    for _ in range(20):
        n, m = rng.rng.randint(1, 4), rng.rng.randint(2, 5)
        rows = [[rng.gaussian(3) for _ in range(m)] for _ in range(n)]
        basis = nullspace(sparse_rows(rows), m)
        for vec in basis:
            for row in rows:
                assert sum((a * b for a, b in zip(row, vec)), start=GaussianRational(0)) == 0
        assert len(basis) == m - oracle_rank(rows)


P = 998244353  # a large prime, as a denominator
T = RationalFunction.variable()


def sparse_nullspace(rows, ncols):
    """nullspace with ``linalg.rref`` made to raise: the kernel takes no dense path."""
    with mock.patch.object(linalg, "rref", side_effect=AssertionError("nullspace called rref")):
        return nullspace(rows, ncols)


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
    # rows >> cols and rank < cols: most rows reduce to zero against the pivot rows
    rng = ExactRandom(17)
    for _ in range(12):
        ncols = rng.rng.randint(3, 10)
        rank_ = rng.rng.randint(1, ncols - 1)
        rows = tall_system(rng, rng.rng.randint(3 * ncols, 6 * ncols), ncols, rank_,
                           lambda: rng.gaussian(4))
        basis = nullspace(sparse_rows(rows), ncols)
        assert basis == full_rref_nullspace(rows, ncols)
        assert len(basis) == ncols - oracle_rank(rows)


def test_nullspace_of_full_rank_tall_system_is_zero():
    rng = ExactRandom(19)
    rows = [[rng.gaussian(3) for _ in range(5)] for _ in range(40)]
    assert oracle_rank(rows) == 5
    assert nullspace(sparse_rows(rows), 5) == [] == full_rref_nullspace(rows, 5)


small_gaussians = st.builds(lambda a, b, d: GaussianRational(a, b) / d,
                            st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4))


@st.composite
def sparse_systems(draw):
    """(ncols, sparse Q(i) rows), an entry sometimes over the large prime P."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), small_gaussians, max_size=ncols),
                         max_size=8))
    if rows and draw(st.booleans()):  # a combination row keeps the rank below the count
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows.append({c: a.get(c, QI_ZERO) + 2 * b.get(c, QI_ZERO) for c in {*a, *b}})
    if rows and draw(st.booleans()):  # the same row again, its keys in the reverse order
        rows.append(dict(reversed(draw(st.sampled_from(rows)).items())))
    if draw(st.booleans()):
        rows.append({})
    nonzero = [(r, c) for r, row in enumerate(rows) for c, x in row.items() if x]
    if nonzero and draw(st.booleans()):
        r, c = draw(st.sampled_from(nonzero))
        rows[r] = {**rows[r], c: rows[r][c] / P}
    return ncols, draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(sparse_systems())
def test_sparse_rows_match_dense_elimination(system):
    ncols, rows = system
    dense = [[row.get(c, QI_ZERO) for c in range(ncols)] for row in rows]
    basis = sparse_nullspace(rows, ncols)
    assert basis == full_rref_nullspace(dense, ncols)
    assert reference_rref(basis)[0] == basis  # canonical as read: reduced echelon form already
    assert len(basis) == ncols - oracle_rank(dense)
    keyed = [{(c % 2, -c): x for c, x in row.items()} for row in rows]  # sortable, not 0..ncols-1
    assert rank(keyed) == oracle_rank(dense)


small_functions = st.builds(lambda a, b, c: (a + b * T) / (1 + c * T),
                            small_gaussians, small_gaussians, st.integers(0, 2)).filter(bool)


@st.composite
def function_systems(draw):
    """(ncols, sparse Q(i)(t) rows), some of them combinations of the others over Q(i)(t)."""
    ncols = draw(st.integers(1, 4))
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), small_functions,
                                         min_size=1, max_size=ncols), min_size=1, max_size=4))
    if rows and draw(st.booleans()):
        a, b, f = draw(st.sampled_from(rows)), draw(st.sampled_from(rows)), draw(small_functions)
        rows.append({c: a.get(c, 0) + f * b.get(c, 0) for c in {*a, *b}})
    return ncols, draw(st.permutations(rows))


@settings(max_examples=60, deadline=None)
@given(function_systems())
def test_rational_function_rows_match_dense_elimination(system):
    ncols, rows = system
    dense = [[RationalFunction.of(row.get(c, 0)) for c in range(ncols)] for row in rows]
    basis = sparse_nullspace(rows, ncols)
    assert basis == full_rref_nullspace(dense, ncols)
    assert reference_rref(basis)[0] == basis
    assert len(basis) == ncols - oracle_rank(dense)
    assert {type(x) for vec in basis for x in vec} <= {RationalFunction}


def test_dense_conjugate_cocycles_match_full_elimination():
    # every (B2)/(B3) equation of a dense conjugate is long, so elimination fills in
    system = direct_sum(catalog.instantiate("T4,9"), catalog.instantiate("T1,1")).change_basis(
        ExactRandom(2).invertible(5, height=2))
    n, ncols = system.dim, len(delta_indices(system.dim))
    units = [Cocycle(system, {t: 1}) for t in delta_indices(n)]
    equations = [[cell.get(n + c, QI_ZERO) for c in range(ncols)]
                 for _, _, cell in _axiom_residuals(extension_rows(system, units))]
    full = full_rref_nullspace(equations, ncols)
    assert cocycle_space(system).coordinates == full
    assert cohomology(system)[0] == len(full) - system.derived().dim  # dim B^3 = dim [T,T,T]


def test_other_fields_keep_full_elimination():
    rng = ExactRandom(23)
    ints = tall_system(rng, 20, 5, 3, lambda: rng.rng.randint(-5, 5))
    assert sparse_nullspace(sparse_rows(ints), 5) == full_rref_nullspace(ints, 5)
    assert len(sparse_nullspace(sparse_rows(ints), 5)) == 2
    fractions = tall_system(rng, 20, 5, 2, lambda: Fraction(rng.rng.randint(-5, 5), rng.rng.randint(1, 4)))
    assert sparse_nullspace(sparse_rows(fractions), 5) == full_rref_nullspace(fractions, 5)
    assert len(sparse_nullspace(sparse_rows(fractions), 5)) == 3
    t = RationalFunction.variable()
    one, zero = RationalFunction.of(1), RationalFunction.of(0)
    rows = [[t, one, zero], [t * t, t, zero], [one, one / t, zero], [zero, zero, zero]]
    basis = sparse_nullspace(sparse_rows(rows), 3)
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
        assert reference_determinant(g) * reference_determinant(inv) == 1


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
    assert {type(x) for row in nullspace(sparse_rows(rows), 3) for x in row} == {GaussianRational}
    t = RationalFunction.variable()
    rows = [[t, RationalFunction.of(0), RationalFunction.of(1)]]
    assert {type(x) for row in nullspace(sparse_rows(rows), 3) for x in row} == {RationalFunction}
    # one RationalFunction entry puts the kernel in Q(i)(t), wherever it stands
    for rows in ([{0: QI_ONE, 1: t, 2: QI_ZERO}], [{0: t, 1: 1}], [{0: QI_ONE, 1: QI_ONE, 2: t}]):
        basis = nullspace(rows, 3)
        assert len(basis) == 2 and {type(x) for row in basis for x in row} == {RationalFunction}


def test_int_input_gives_exact_field_elements():
    # an int pivot is inverted in Q(i); 1.0 == 1, so value checks alone would pass on floats
    exact = {int, GaussianRational}
    a = [[2, 4, 1], [1, 3, 5], [4, 1, 2]]
    reduced, pivots = rref(a)
    assert pivots == [0, 1, 2] and {type(x) for row in reduced for x in row} <= exact
    assert {type(x) for row in rref([[2, 4], [1, 2]])[0] for x in row} <= exact
    inv = mat_inverse(a)
    assert mat_mul(a, inv) == identity_matrix(3)
    assert {type(x) for row in inv for x in row} <= exact
    basis = nullspace(sparse_rows([[1, 2, 3], [2, 4, 7]]), 3)
    assert basis == [[1, Fraction(-1, 2), 0]]
    assert {type(x) for row in basis for x in row} <= exact
    assert {type(x) for row in identity_matrix(4) for x in row} == {GaussianRational}


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrix):
        mat_inverse([[1, 2], [2, 4]])


class TestSubspace:
    def test_canonical_equality(self):
        a = Subspace(3, [[1, 1, 0], [0, 0, 1]])
        b = Subspace(3, [[2, 2, 2], [0, 0, 5]])
        assert a == b and a.dim == 2

    def test_a_basis_prefix_spans_a_different_subspace(self):
        line, plane = Subspace(3, [[1, 0, 0]]), Subspace(3, [[1, 0, 0], [0, 1, 0]])
        assert line.basis == plane.basis[:1]
        assert line != plane and plane != line

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


def test_equations_reach_linalg_as_sparse_rows(monkeypatch):
    # every caller hands nullspace and rank the {column: value} rows it builds, zeros dropped
    handed = []

    def recording(function):
        def wrapper(rows, *args):
            rows = list(rows)
            handed.append((function.__name__, rows))
            return function(rows, *args)
        return wrapper

    for name in ("core", "cohomology", "degeneration", "extension", "catalog"):
        module = importlib.import_module(f"lietriple.{name}")
        for function in (nullspace, rank):
            if hasattr(module, function.__name__):
                monkeypatch.setattr(module, function.__name__, recording(function))
    dense = lts_from_dict(json.loads((GOLDEN / "input_t4_9_dense.json").read_text()))
    assert catalog.classify(dense).name == "T4,9"
    base = lts_from_dict(lts_to_dict(catalog.instantiate("T3,2")))  # nothing memoized yet
    spec = ExtensionSpec(base, [Cocycle(base, T32_EXTENSIONS["T4,9"])])
    assert extend(spec).flattening_ranks() and in_ts(spec)
    assert dg.table3_separating_set(1).basis()
    assert {name for name, _ in handed} == {"nullspace", "rank"}
    for name, rows in handed:
        for row in rows:
            assert isinstance(row, dict) and all(row.values()), (name, row)
