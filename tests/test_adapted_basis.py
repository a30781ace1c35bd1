"""Z^3 and Der computed in a basis adapted to Ann(T) and the series, and mapped back.

The references solve the equations of the system as it is written, never in
another basis, by ``full_rref_nullspace``: the (B2)/(B3) equations of the
axiom residuals, and the derivation equations written out from the
definition D[x, y, z] = [Dx, y, z] + [x, Dy, z] + [x, y, Dz].
"""

import itertools

import pytest

from conftest import ExactRandom, full_rref_nullspace, oracle_rank
from lietriple import catalog
from lietriple.cohomology import Cocycle, cocycle_space, delta_indices, extension_rows
from lietriple.core import Lts, _axiom_residuals, direct_sum
from lietriple.linalg import Subspace
from lietriple.scalars import QI_ZERO, GaussianRational, RationalFunction

SYSTEMS = [(name, None) for name, entry in catalog.ENTRIES.items() if not entry.family]
SYSTEMS += [("T4,6", GaussianRational(2)), ("T4,6", GaussianRational(1, 1))]
SUMS = [("T4,9", "T1,1"), ("T3,2", "T2,1")]


def reference_cocycles(system):
    """Z^3 of the system as written, from the (B2)/(B3) equations by full elimination."""
    n, idx = system.dim, delta_indices(system.dim)
    units = [Cocycle(system, {t: 1}) for t in idx]
    equations = [[cell.get(n + c, QI_ZERO) for c in range(len(idx))]
                 for _, _, cell in _axiom_residuals(extension_rows(system, units))]
    return full_rref_nullspace(equations, len(idx))


def reference_derivations(system):
    """Der(T) with D e_b = sum_a D_ab e_a, from the definition on basis vectors."""
    n, c = system.dim, system.constant
    rows = []
    for i, j, k, p in itertools.product(range(1, n + 1), repeat=4):
        row = [QI_ZERO] * (n * n)
        for a in range(1, n + 1):
            row[(p - 1) * n + a - 1] += c(i, j, k, a)
            row[(a - 1) * n + i - 1] -= c(a, j, k, p)
            row[(a - 1) * n + j - 1] -= c(i, a, k, p)
            row[(a - 1) * n + k - 1] -= c(i, j, a, p)
        rows.append(row)
    return [[vec[a * n:(a + 1) * n] for a in range(n)] for vec in full_rref_nullspace(rows, n * n)]


def dense_conjugate(system, seed):
    """The system in a random basis of height 2 with a non-real entry."""
    rng = ExactRandom(seed)
    while True:
        g = rng.invertible(system.dim, height=2)
        if any(not x.is_rational for row in g for x in row):
            return system.change_basis(g)


def fresh(system):
    """A copy of the system with nothing memoized."""
    return Lts.from_rows(system.dim, system.rows())


@pytest.fixture
def change_basis_calls(monkeypatch):
    """The systems ``Lts.change_basis`` is called on, from here on."""
    calls, original = [], Lts.change_basis

    def counting(self, g):
        calls.append(self)
        return original(self, g)

    monkeypatch.setattr(Lts, "change_basis", counting)
    return calls


def test_dense_conjugates_take_the_adapted_path(change_basis_calls):
    dense = dense_conjugate(direct_sum(catalog.instantiate("T4,9"), catalog.instantiate("T1,1")), 3)
    change_basis_calls.clear()
    assert dense.adapted_basis() is not None
    cocycle_space(dense), dense.derivations()
    assert change_basis_calls == [dense]  # one change, shared by Z^3 and Der


def test_tables_sums_and_family_members_keep_their_basis(change_basis_calls):
    t = RationalFunction.variable()
    systems = [catalog.instantiate(name, lam) for name, lam in SYSTEMS]
    systems += [direct_sum(*map(catalog.instantiate, names)) for names in SUMS]
    systems += [direct_sum(catalog.instantiate("T3,2"), catalog.instantiate("T1,1")),
                catalog.instantiate("T4,6", t)]
    change_basis_calls.clear()
    for system in map(fresh, systems):
        assert system.adapted_basis() is None
        cocycle_space(system), system.derivations()
    assert change_basis_calls == []


@pytest.mark.parametrize("name, lam", SYSTEMS)
def test_conjugates_of_the_catalog_match_the_reference(name, lam):
    for seed in (5, 6):
        dense = dense_conjugate(catalog.instantiate(name, lam), seed)
        assert cocycle_space(dense).coordinates == reference_cocycles(dense)
        der = reference_derivations(dense)
        assert dense.derivations() == (len(der), der)


@pytest.mark.parametrize("summands", SUMS)
def test_conjugates_in_dimension_5_match_the_reference(summands):
    dense = dense_conjugate(direct_sum(*map(catalog.instantiate, summands)), 7)
    assert dense.adapted_basis() is not None
    assert cocycle_space(dense).coordinates == reference_cocycles(dense)
    der = reference_derivations(dense)
    assert dense.derivations() == (len(der), der)


@pytest.mark.parametrize("name, lam", SYSTEMS + [(summands, None) for summands in SUMS])
def test_adapted_basis_is_invertible_through_the_annihilator(name, lam):
    system = (direct_sum(*map(catalog.instantiate, name)) if isinstance(name, tuple)
              else catalog.instantiate(name, lam))
    dense = dense_conjugate(system, 11)
    basis = dense.adapted_basis()
    if basis is None:  # only a system with no product at all keeps a dense basis
        assert not dense.rows()
        return
    assert oracle_rank(basis) == dense.dim
    ann = dense.annihilator()
    assert Subspace(dense.dim, [v for v in basis if ann.contains(v)]) == ann
