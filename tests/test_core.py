"""Structure-constant systems: completion, axioms, invariants, transforms."""

import copy
import json
import pickle
import time
from fractions import Fraction

import pytest

from conftest import (
    ExactRandom,
    basis_vector,
    lts_eval,
    oracle_annihilator_dim,
    oracle_derived_dim,
)
from lietriple import catalog
from lietriple.cohomology import Cocycle, coboundary_space, cocycle_space
from lietriple.core import (
    MAX_DIM,
    Lts,
    complete_table,
    direct_sum,
    lts_from_dict,
    lts_from_lie,
    lts_to_dict,
)
from lietriple.extension import ExtensionSpec, extension_annihilator
from lietriple.errors import (
    AxiomViolation,
    InconsistentTable,
    MalformedInput,
    NotALieAlgebra,
    SingularMatrix,
)
from lietriple.linalg import Subspace, rank
from lietriple.scalars import GaussianRational, QI_ZERO, RationalFunction


def _zero_tensor(n):
    return [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]


class TestCompleteTable:
    def test_t32_entries(self):
        system = complete_table(3, {(1, 2, 1): [0, 0, 1]})
        assert system.constant(1, 2, 1, 3) == 1
        assert system.constant(2, 1, 1, 3) == -1
        others = [(i, j, k, p) for i in range(1, 4) for j in range(1, 4)
                  for k in range(1, 4) for p in range(1, 4)
                  if (i, j, k, p) not in ((1, 2, 1, 3), (2, 1, 1, 3))]
        assert all(system.constant(*idx) == 0 for idx in others)

    def test_t45_cyclic_forcing(self):
        # Oracle: with [e2,e3,e1] = e4 and [e3,e1,e2] = e4 given, the cyclic
        # identity on (1,2,3) determines the remaining unknown of the class.
        given = {(2, 3, 1): GaussianRational(1), (3, 1, 2): GaussianRational(1)}
        unknown = (1, 2, 3)
        forced = -sum(given.values(), start=QI_ZERO)
        assert forced == -2

        system = catalog.instantiate("T4,5")
        vec = system.product(*unknown)
        assert vec == [0, 0, 0, forced]

    def test_empty_table_is_abelian(self):
        system = complete_table(2, {})
        assert all(x == 0 for *_ignore, x in
                   ((i, j, k, p, system.constant(i, j, k, p))
                    for i in (1, 2) for j in (1, 2) for k in (1, 2) for p in (1, 2)))

    def test_conflicting_generators(self):
        with pytest.raises(InconsistentTable):
            complete_table(3, {(1, 2, 1): [0, 0, 1], (2, 1, 1): [0, 0, 1]})

    def test_document_with_a_repeated_product(self):
        product = {"args": [1, 2, 1], "value": {"3": "1"}}
        doc = {"dim": 3, "products": [product, {"args": [1, 2, 1], "value": {"3": "2"}}]}
        with pytest.raises(InconsistentTable, match=r"conflicting values for \[e1,e2,e1\]"):
            lts_from_dict(doc)
        doc["products"][1] = dict(product)
        assert lts_from_dict(doc) == catalog.instantiate("T3,2")

    def test_diagonal_generator_rejected(self):
        with pytest.raises(InconsistentTable):
            complete_table(3, {(1, 1, 2): [0, 0, 1]})

    def test_axiom_violation_surfaces(self):
        # a lone product whose cyclic partners stay undetermined fails (A2)
        with pytest.raises(AxiomViolation) as exc:
            complete_table(4, {(1, 2, 3): [0, 0, 0, 1]})
        assert exc.value.identity == "A2"


class TestCheckAxioms:
    def test_all_catalog_entries_pass(self):
        for name, entry in catalog.ENTRIES.items():
            if entry.family:
                continue
            assert catalog.instantiate(name).check_axioms().ok

    def test_a1_violation(self):
        tensor = _zero_tensor(3)
        tensor[0][1][0][2] = 1
        tensor[1][0][0][2] = 1  # wrong sign
        report = Lts(tensor).check_axioms()
        assert not report.ok and report.identity == "A1"
        assert report.indices == (1, 2, 1)

    def test_a2_violation(self):
        tensor = _zero_tensor(4)
        tensor[0][1][2][3] = 1
        tensor[1][0][2][3] = -1
        system = Lts(tensor)
        # direct evaluation of the cyclic sum: equals e4, not zero
        cyc = [a + b + c for a, b, c in zip(system.product(1, 2, 3),
                                            system.product(2, 3, 1),
                                            system.product(3, 1, 2))]
        assert cyc == [0, 0, 0, 1]
        report = system.check_axioms()
        assert not report.ok and report.identity == "A2" and report.indices == (1, 2, 3)


class TestEval:
    def test_t32_basis_product(self, t32):
        assert lts_eval(t32, basis_vector(3, 1), basis_vector(3, 2), basis_vector(3, 1)) == \
            basis_vector(3, 3)

    def test_alternating_in_first_two(self):
        rng = ExactRandom(2)
        for name in ("T3,2", "T4,5", "T4,8"):
            system = catalog.instantiate(name)
            x = rng.vector(system.dim, 5)
            z = rng.vector(system.dim, 5)
            assert all(v == 0 for v in lts_eval(system, x, x, z))

    def test_family_product(self):
        lam = GaussianRational(Fraction(7, 3))
        system = catalog.instantiate("T4,6", lam)
        out = lts_eval(system, basis_vector(4, 2), basis_vector(4, 3), basis_vector(4, 1))
        assert out == [0, 0, 0, lam]


class TestAnnihilator:
    def test_t32(self, t32):
        ann = t32.annihilator()
        assert ann.dim == 1 and ann.contains(basis_vector(3, 3))
        assert ann.dim == oracle_annihilator_dim(t32)

    def test_t43(self):
        system = catalog.instantiate("T4,3")
        ann = system.annihilator()
        assert ann.dim == 2
        assert ann.contains(basis_vector(4, 3)) and ann.contains(basis_vector(4, 4))
        assert ann.dim == oracle_annihilator_dim(system)

    def test_abelian_is_whole_space(self):
        system = catalog.instantiate("T4,1")
        assert system.annihilator().dim == 4


class TestDerived:
    def test_t47(self):
        system = catalog.instantiate("T4,7")
        derived = system.derived()
        assert derived.dim == 2 == oracle_derived_dim(system)
        assert derived == Subspace(4, [basis_vector(4, 3), basis_vector(4, 4)])

    def test_family_generic(self):
        system = catalog.instantiate("T4,6", GaussianRational(5))
        derived = system.derived()
        assert derived.dim == 1 == oracle_derived_dim(system)
        assert derived.contains(basis_vector(4, 4))

    def test_abelian(self, t31):
        assert t31.derived().dim == 0

    def test_perfect_system_is_its_own_derived_space(self):
        # [T,T,T] = T for sl2: the nilpotency series stops at its first step
        system = lts_from_lie(_sl2_bracket())
        assert system.derived() == system.nilpotency().series[0]
        assert system.derived().dim == 3 == oracle_derived_dim(system)

    def test_dimension_zero(self):
        system = Lts.from_rows(0, {})
        assert system.derived().dim == 0 and system.nilpotency().index == 0

    @pytest.mark.parametrize("name", list(catalog.ENTRIES))
    def test_first_step_of_the_series_is_the_span_of_the_products(self, name):
        system = catalog.instantiate(name, GaussianRational(3) if name == "T4,6" else None)
        products = [[row.get(p, QI_ZERO) for p in range(system.dim)]
                    for (i, j, _k), row in system.rows().items() if i < j]
        assert system.derived() == Subspace(system.dim, products)


class TestNilpotency:
    def test_t49_series(self):
        report = catalog.instantiate("T4,9").nilpotency()
        assert report.is_nilpotent and report.index == 3
        assert report.series_dims == (4, 2, 1, 0)

    def test_abelian_index_one(self, t21):
        report = t21.nilpotency()
        assert report.is_nilpotent and report.index == 1

    def test_sl2_not_nilpotent(self):
        system = lts_from_lie(_sl2_bracket())
        report = system.nilpotency()
        assert not report.is_nilpotent and report.index is None
        assert report.series_dims[-1] == 3  # stabilizes at the full space


def _sl2_bracket():
    # basis (e, f, h): [e,f] = h, [h,e] = 2e, [h,f] = -2f
    z = [0, 0, 0]
    b = [[list(z) for _ in range(3)] for _ in range(3)]
    b[0][1] = [0, 0, 1]
    b[1][0] = [0, 0, -1]
    b[2][0] = [2, 0, 0]
    b[0][2] = [-2, 0, 0]
    b[2][1] = [0, -2, 0]
    b[1][2] = [0, 2, 0]
    return b


class TestDerivations:
    @pytest.mark.parametrize("name,expected", [
        ("T4,7", 5), ("T4,1", 16), ("T4,3", 8), ("T4,4", 7),
    ])
    def test_fixed_entries(self, name, expected):
        dim, basis = catalog.instantiate(name).derivations()
        assert dim == expected and len(basis) == dim

    def test_family_branches(self):
        assert catalog.instantiate("T4,6", GaussianRational(1)).derivations()[0] == 8
        assert catalog.instantiate("T4,6", GaussianRational(2)).derivations()[0] == 6

    def test_basis_satisfies_leibniz(self):
        system = catalog.instantiate("T4,8")
        _, basis = system.derivations()
        n = system.dim
        for mat in basis:
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    for k in range(1, n + 1):
                        prod = system.product(i, j, k)
                        lhs = [sum((mat[a][b] * prod[b] for b in range(n)),
                                   start=QI_ZERO) for a in range(n)]
                        col = lambda c: [mat[a][c - 1] for a in range(n)]
                        rhs = lts_eval(system, col(i), basis_vector(n, j), basis_vector(n, k))
                        rhs = [r + s for r, s in zip(rhs, lts_eval(
                            system, basis_vector(n, i), col(j), basis_vector(n, k)))]
                        rhs = [r + s for r, s in zip(rhs, lts_eval(
                            system, basis_vector(n, i), basis_vector(n, j), col(k)))]
                        assert lhs == rhs


class TestFieldElementsOnly:
    @pytest.mark.parametrize("name", ["T4,7", "T4,9", "T3,2", "T4,1", "T1,1"])
    def test_invariant_entries_are_gaussian_rationals(self, name):
        # T4,7's annihilator basis used to end in a Python int from nullspace's seed vector
        system = catalog.instantiate(name)
        ann = [x for row in system.annihilator().basis for x in row]
        series = [x for space in system.nilpotency().series for row in space.basis for x in row]
        der = [x for mat in system.derivations()[1] for row in mat for x in row]
        assert series and der
        for entries in (ann, series, der):
            assert {type(x) for x in entries} <= {GaussianRational}

    def test_extension_annihilator_entries_are_gaussian_rationals(self):
        # the V part of the formula used to carry a Python int 1
        t31 = catalog.instantiate("T3,1")
        spec = ExtensionSpec(t31, [Cocycle(t31, {(1, 2, 1): 1})])
        entries = [x for row in extension_annihilator(spec).basis for x in row]
        assert {type(x) for x in entries} == {GaussianRational}

    def test_float_constant_is_refused(self):
        # a float used to be stored as it was, and the axioms checked in floats
        tensor = _zero_tensor(3)
        tensor[0][1][0][2], tensor[1][0][0][2] = 0.5, -0.5
        with pytest.raises(TypeError, match="cannot interpret 0.5"):
            Lts(tensor)

    def test_float_basis_change_is_refused(self, t32):
        with pytest.raises(TypeError, match="cannot interpret 0.5"):
            t32.change_basis([[1, 0, 0], [0, 1, 0], [0, 0, 0.5]])


class TestOrbitDimension:
    def test_t47(self):
        assert catalog.instantiate("T4,7").orbit_dimension() == 11

    def test_t42_formula_vs_figure(self):
        # the derivation formula gives 16 - 9 = 7; the published diagram
        # places the node in stratum 5 -- both values are carried as data
        system = catalog.instantiate("T4,2")
        assert system.orbit_dimension() == 7
        assert catalog.ENTRIES["T4,2"].figure_stratum == 5

    def test_abelian_fixed_point(self):
        assert catalog.instantiate("T4,1").orbit_dimension() == 0


class TestChangeBasis:
    def test_identity(self, t32):
        eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert t32.change_basis(eye) == t32

    def test_sigma3_sends_family_to_inverse_parameter(self):
        lam = GaussianRational(2)
        target, g = catalog.family_isomorphism(3, lam)
        assert target == GaussianRational(Fraction(1, 2))
        moved = catalog.instantiate("T4,6", lam).change_basis(g)
        assert moved == catalog.instantiate("T4,6", target)

    def test_diagonal_scaling(self):
        # conjugation by t*Id is cubic in g^{-1} and linear in g: constants
        # scale by t^{-2} (here 1/4 at t = 2)
        system = catalog.instantiate("T4,2")
        g = [[2 if i == j else 0 for j in range(4)] for i in range(4)]
        moved = system.change_basis(g)
        assert moved.constant(1, 2, 1, 3) == Fraction(1, 4)

    def test_singular_matrix(self, t32):
        with pytest.raises(SingularMatrix):
            t32.change_basis([[1, 0, 0], [1, 0, 0], [0, 0, 1]])


class TestDirectSum:
    def test_t32_plus_point_is_t42(self, t32):
        assert direct_sum(t32, catalog.instantiate("T1,1")) == catalog.instantiate("T4,2")

    def test_abelian_sum(self, t21):
        assert direct_sum(t21, catalog.instantiate("T1,1")) == catalog.instantiate("T3,1")

    def test_zero_dim_identity(self, t32):
        empty = Lts([])
        assert direct_sum(empty, t32) == t32


class TestLtsFromLie:
    def test_heisenberg_collapses_to_abelian(self):
        z = [0, 0, 0]
        b = [[list(z) for _ in range(3)] for _ in range(3)]
        b[0][1] = [0, 0, 1]
        b[1][0] = [0, 0, -1]
        assert lts_from_lie(b) == catalog.instantiate("T3,1")

    def test_abelian_lie_algebra(self):
        z = [0, 0]
        b = [[list(z) for _ in range(2)] for _ in range(2)]
        assert lts_from_lie(b) == catalog.instantiate("T2,1")

    def test_sl2_product(self):
        system = lts_from_lie(_sl2_bracket())
        # [[e,f],e] = [h,e] = 2e
        assert system.product(1, 2, 1) == [2, 0, 0]

    def test_jacobi_checked(self):
        # [e1,e2] = e3 and [e1,e3] = e1 break Jacobi on (e1,e2,e3)
        z = [0, 0, 0]
        b = [[list(z) for _ in range(3)] for _ in range(3)]
        b[0][1] = [0, 0, 1]
        b[1][0] = [0, 0, -1]
        b[0][2] = [1, 0, 0]
        b[2][0] = [-1, 0, 0]
        with pytest.raises(NotALieAlgebra, match=r"^Jacobi identity fails at \(1,2,3\)$"):
            lts_from_lie(b)

    def test_antisymmetry_checked(self):
        z = [0, 0]
        b = [[list(z) for _ in range(2)] for _ in range(2)]
        b[0][1] = [1, 0]
        with pytest.raises(NotALieAlgebra):
            lts_from_lie(b)


class TestFingerprint:
    def test_t48_components(self):
        fp = catalog.instantiate("T4,8").fingerprint()
        assert (fp.dim, fp.dim_derived, fp.dim_der) == (4, 2, 6)
        # the derived oracle pins the annihilator at one dimension (= the
        # extension coordinate; the radical meets the base annihilator in 0)
        assert fp.dim_ann == 1 == oracle_annihilator_dim(catalog.instantiate("T4,8"))

    def test_t43_t44_differ_in_derivations(self):
        a = catalog.instantiate("T4,3").fingerprint()
        b = catalog.instantiate("T4,4").fingerprint()
        assert (a.dim_der, b.dim_der) == (8, 7)
        assert a != b

    def test_invariant_under_basis_change(self):
        rng = ExactRandom(17)
        system = catalog.instantiate("T4,9")
        moved = system.change_basis(rng.unimodularish(4))
        assert moved.fingerprint() == system.fingerprint()


class TestFlatteningRanks:
    @staticmethod
    def full_ranks(system):
        """(L, X, Z) from the full tables, every (i, j) and every (i, j, p) read."""
        tables = ({}, {}, {})
        for i, j, k, p, val in system.nonzero_entries():
            tables[0].setdefault((i, j), {})[(k, p)] = val
            tables[1].setdefault(i, {})[(j, k, p)] = val
            tables[2].setdefault(k, {})[(i, j, p)] = val
        return tuple(rank(table.values()) for table in tables)

    @pytest.mark.parametrize("rows", [
        {(0, 1, 0): {2: 1}},                                  # no mirror row
        {(0, 1, 0): {2: 1}, (1, 0, 0): {2: 1}},               # a mirror of the wrong sign
        {(0, 0, 1): {2: 1}, (1, 2, 0): {0: 1}, (2, 1, 0): {0: -1}},  # a row at i = j
        {(0, 1, 2): {0: 1}, (1, 0, 2): {0: -1}, (1, 0, 1): {2: 1}},  # a mirror missing
    ])
    def test_rows_that_break_a1_have_the_ranks_of_the_full_tables(self, rows):
        system = Lts.from_rows(3, rows)
        assert not system._satisfies_a1()
        assert system.flattening_ranks() == self.full_ranks(system)

    @pytest.mark.parametrize("name,lam", [(name, None) for name, entry in catalog.ENTRIES.items()
                                          if not entry.family] + [("T4,6", 2)])
    def test_catalog_systems_have_the_ranks_of_the_full_tables(self, name, lam):
        system = catalog.instantiate(name, lam)
        moved = system.change_basis(ExactRandom(7).unimodularish(system.dim))
        for s in (system, moved):
            assert s.flattening_ranks() == self.full_ranks(s)


class TestMemo:
    @staticmethod
    def invariants(system):
        """Every memoized invariant, with the cochain spaces by their bases."""
        return (system.check_axioms(), system.annihilator(), system.derived(),
                system.nilpotency(), system.derivations(), system.flattening_ranks(),
                system.fingerprint(),
                cocycle_space(system).coordinates, coboundary_space(system).coordinates,
                catalog.family_cocycle_matrix(system), catalog._t31_pq(system),
                catalog._name_and_xi(system))

    @pytest.mark.parametrize("copier", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_copies_keep_their_invariants(self, copier):
        system = Lts.from_rows(4, catalog.instantiate("T4,6", 2).rows())
        before = self.invariants(system)
        copied = copier(system)
        assert copied == system and copied is not system
        assert copied._cache.keys() == system._cache.keys()
        assert self.invariants(copied) == before

    def test_computed_once(self):
        system = Lts.from_rows(4, catalog.instantiate("T4,5").rows())
        first = self.invariants(system)
        assert all(a is b for a, b in zip(self.invariants(system), first))


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name,lam", [("T3,2", None), ("T4,5", None),
                                          ("T4,6", "2"), ("T4,8", None)])
    def test_round_trip(self, name, lam):
        system = catalog.instantiate(name, None if lam is None else GaussianRational(int(lam)))
        doc = lts_to_dict(system)
        again = lts_from_dict(json.loads(json.dumps(doc)))
        assert again == system

    def test_q_i_t_system_refused(self):
        # a document is declared over Q or Q(i)
        with pytest.raises(MalformedInput) as info:
            lts_to_dict(catalog.instantiate("T4,6", RationalFunction.variable()))
        assert info.value.field == "field" and "Q(i)(t)" in str(info.value)

    def test_field_restriction(self):
        # the declared field decides: i is refused in a document over Q
        doc = {"dim": 3, "field": "Q",
               "products": [{"args": [1, 2, 1], "value": {"3": "2*i"}}]}
        with pytest.raises(MalformedInput) as info:
            lts_from_dict(doc)
        assert info.value.field == "field" and "'2*i'" in str(info.value)
        doc["products"][0]["value"]["3"] = "i^2"  # a rational value written with i
        assert lts_from_dict(doc).product(1, 2, 1) == [0, 0, -1]
        doc["field"] = "Q(i)"
        doc["products"][0]["value"]["3"] = "2*i"
        assert lts_from_dict(doc).product(1, 2, 1) == [0, 0, GaussianRational(0, 2)]

    @pytest.mark.parametrize("text", ["t/t", "0^-1", "(1-1)^-2"])
    def test_values_outside_the_field_are_malformed_products(self, text):
        doc = {"dim": 3, "products": [{"args": [1, 2, 1], "value": {"3": text}}]}
        with pytest.raises(MalformedInput) as info:
            lts_from_dict(doc)
        assert info.value.field == "products"

    @pytest.mark.parametrize("value", [{"3": "1", "03": "5"}, {"03": "5", "3": "1"},
                                       {"3": "1", " 3": "1"}])
    def test_a_coordinate_named_twice_is_refused(self, value):
        # "3" and "03" both name e3; which value won used to depend on the key order
        doc = {"dim": 3, "products": [{"args": [1, 2, 1], "value": value}]}
        with pytest.raises(MalformedInput) as info:
            lts_from_dict(doc)
        assert info.value.field == "products" and "named twice" in str(info.value)

    def test_boolean_dim_rejected(self):
        with pytest.raises(MalformedInput):
            lts_from_dict({"dim": True, "products": []})

    def test_large_empty_document_loads(self):
        # loading reads the listed products only; the empty table costs next to nothing
        start = time.monotonic()
        system = lts_from_dict({"dim": 12, "products": []})
        assert time.monotonic() - start < 10
        assert system.dim == 12 and system.check_axioms().ok
        assert not any(True for _ in system.nonzero_entries())

    def test_dim_cap(self):
        assert lts_from_dict({"dim": MAX_DIM, "products": []}).dim == MAX_DIM
        with pytest.raises(MalformedInput):
            lts_from_dict({"dim": MAX_DIM + 1, "products": []})
        with pytest.raises(MalformedInput):
            lts_from_dict({"dim": 100000, "products": []})

    def test_schema_errors(self):
        with pytest.raises(MalformedInput):
            lts_from_dict({"products": []})
        with pytest.raises(MalformedInput):
            lts_from_dict({"dim": 2, "products": [{"args": [1, 2], "value": {}}]})
        with pytest.raises(MalformedInput):
            lts_from_dict({"dim": 2, "products": [{"args": ["1", 2, 1], "value": {}}]})
        with pytest.raises(MalformedInput):
            lts_from_dict({"dim": 2, "products": 5})


class TestRandomizedIdentities:
    def test_trilinear_identities_on_random_vectors(self):
        rng = ExactRandom(23)
        systems = [catalog.instantiate(n) for n in ("T3,2", "T4,5", "T4,7")]
        systems.append(catalog.instantiate("T4,6", GaussianRational(3)))
        for _ in range(50):
            system = rng.rng.choice(systems)
            n = system.dim
            x, y, z, u, v = (rng.vector(n, 4) for _ in range(5))
            assert all(a + b == 0 for a, b in zip(lts_eval(system, x, y, z),
                                                  lts_eval(system, y, x, z)))
            cyc = [a + b + c for a, b, c in zip(lts_eval(system, x, y, z),
                                                lts_eval(system, y, z, x),
                                                lts_eval(system, z, x, y))]
            assert all(w == 0 for w in cyc)
            lhs = lts_eval(system, u, v, lts_eval(system, x, y, z))
            rhs1 = lts_eval(system, lts_eval(system, u, v, x), y, z)
            rhs2 = lts_eval(system, x, lts_eval(system, u, v, y), z)
            rhs3 = lts_eval(system, x, y, lts_eval(system, u, v, z))
            assert all(a == b + c + d for a, b, c, d in zip(lhs, rhs1, rhs2, rhs3))

    def test_subspace_dims_invariant_under_basis_change(self):
        rng = ExactRandom(29)
        for name in ("T3,2", "T4,4", "T4,8"):
            system = catalog.instantiate(name)
            g = rng.invertible(system.dim, height=4)
            moved = system.change_basis(g)
            assert moved.annihilator().dim == system.annihilator().dim
            assert moved.derived().dim == system.derived().dim

    def test_nilpotent_nonzero_has_annihilator(self):
        for name, entry in catalog.ENTRIES.items():
            system = catalog.instantiate(name, GaussianRational(2) if entry.family else None)
            if system.dim == 0:
                continue
            assert system.nilpotency().is_nilpotent
            assert system.annihilator().dim > 0

    def test_abelian_derivations_dimension(self):
        for n, name in ((1, "T1,1"), (2, "T2,1"), (3, "T3,1"), (4, "T4,1")):
            assert catalog.instantiate(name).derivations()[0] == n * n
