"""Degeneration witnesses, non-degeneration evidence and the graph."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from conftest import ExactRandom, sparse_rows
from lietriple import catalog
from lietriple import degeneration as dg
from lietriple.core import Lts, _conjugate_rows
from lietriple.errors import InconsistentGraph, MalformedInput, PoleAtZero, SingularBasis
from lietriple.linalg import mat_inverse, mat_mul, rank
from lietriple.scalars import (
    GaussianRational,
    RationalFunction,
    parse_rational_function,
    rational_function_str,
    scalar_str,
)

G = GaussianRational
T = RationalFunction.variable()


class TestTransport:
    def test_uniform_scaling_squares_constants(self):
        system = catalog.instantiate("T4,2")
        basis = dg.ParametrizedBasis([[T if i == j else 0 for j in range(4)]
                                      for i in range(4)])
        moved = dg.transport_constants(system, basis)
        assert moved[0][1][0][2] == T * T
        assert RationalFunction.of(moved[0][1][0][2]).limit_at_zero() == 0

    def test_identity_basis(self):
        system = catalog.instantiate("T4,8")
        basis = dg.ParametrizedBasis([[1 if i == j else 0 for j in range(4)]
                                      for i in range(4)])
        moved = dg.transport_constants(system, basis)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    for p in range(4):
                        assert moved[i][j][k][p] == system.constant(i + 1, j + 1, k + 1, p + 1)

    def test_t43_row_constants(self):
        system = catalog.instantiate("T4,3")
        basis = dg.table2_witness(7).basis  # E2 = t e2, E3 = t e3
        moved = dg.transport_constants(system, basis)
        assert moved[0][1][0][2] == 1
        assert moved[0][1][1][3] == T * T

    def test_singular_basis_rejected(self):
        rows = [["t", "t", "0"], ["t", "t", "0"], ["0", "0", "1"]]
        with pytest.raises(SingularBasis):
            dg.ParametrizedBasis.from_strings(rows)


class TestVerifyDegeneration:
    @pytest.mark.parametrize("row", range(1, 14))
    def test_table2_rows(self, row):
        report = dg.verify_degeneration(dg.table2_witness(row))
        assert report.ok, str(report)

    def test_family_row_multiple_lambdas(self):
        for lam in (G(3), G(5), GaussianRational(0, 1)):
            report = dg.verify_degeneration(dg.table2_witness(13, lam=lam))
            assert report.ok, str(report)

    def test_family_row_rejects_singular_lambda(self):
        with pytest.raises(MalformedInput):
            dg.table2_witness(13, lam=G(1))

    def test_table4_family_witness(self):
        witness = dg.table4_witness()
        assert witness.index_fn == parse_rational_function("2/(1+t)-1")
        report = dg.verify_degeneration(witness)
        assert report.ok, str(report)

    def test_identity_basis_is_not_a_proper_witness(self):
        witness = dg.DegenerationWitness(
            source="T4,2", target="T4,3",
            basis=dg.ParametrizedBasis([[1 if i == j else 0 for j in range(4)]
                                        for i in range(4)]))
        report = dg.verify_degeneration(witness)
        assert not report.ok
        assert any(kind == "mismatch" for kind, _, _ in report.problems)

    def test_pole_reported(self):
        witness = dg.DegenerationWitness(
            source="T3,2", target="T3,1",
            basis=dg.ParametrizedBasis.from_strings(
                [["1/t", "0", "0"], ["0", "1/t", "0"], ["0", "0", "1/t"]]))
        report = dg.verify_degeneration(witness)
        assert not report.ok
        assert any(kind == "pole" for kind, _, _ in report.problems)


    def test_only_poles_are_reported_as_poles_on_the_general_path(self, monkeypatch):
        # a fault in the transport must surface, not read as a pole verdict
        def broken(system, basis):
            return {(0, 1, 0): {2: object()}}

        monkeypatch.setattr(dg, "_transported_rows", broken)
        doc = dict(dg.DIM3_WITNESS, basis=[["1+t", "0", "0"], ["0", "t", "0"], ["0", "0", "t"]])
        with pytest.raises(AttributeError):
            dg.verify_degeneration(dg.witness_from_dict(doc))

    def test_only_poles_are_reported_as_poles_on_the_cartan_path(self, monkeypatch):
        # every constant the conjugation returns is broken, at exponents 0
        # (the target's constants) and below: the fault surfaces at each
        conjugate = dg._conjugate_rows

        def broken(rows, h, g):
            return {key: {p: object() for p in row} for key, row in conjugate(rows, h, g).items()}

        monkeypatch.setattr(dg, "_conjugate_rows", broken)
        for basis in ([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                      [["1/t", "0", "0"], ["0", "1/t", "0"], ["0", "0", "1/t"]]):
            witness = dg.witness_from_dict(dict(dg.DIM3_WITNESS, target={"name": "T3,2"},
                                                basis=basis))
            assert witness.basis._form is not None
            with pytest.raises(TypeError):
                dg.verify_degeneration(witness)


BUILTIN_DOCUMENTS = dg.TABLE2_WITNESSES + [dg.TABLE4_WITNESS, dg.DIM3_WITNESS]


class TestWitnessDocuments:
    @pytest.mark.parametrize("doc", BUILTIN_DOCUMENTS, ids=lambda d: dg.witness_from_dict(d).label)
    def test_builtin_document_is_a_fixpoint_after_one_round_trip(self, doc):
        once = dg.witness_to_dict(dg.witness_from_dict(doc))
        assert dg.witness_to_dict(dg.witness_from_dict(json.loads(json.dumps(once)))) == once
        assert once["source"]["name"] == doc["source"]["name"]

    def test_zero_to_a_negative_power_in_a_basis_is_refused(self):
        doc = dict(dg.DIM3_WITNESS, basis=[["(t-t)^-1", "0", "0"], ["0", "t", "0"],
                                           ["0", "0", "t"]])
        with pytest.raises(MalformedInput, match="division by zero"):
            dg.witness_from_dict(doc)

    def test_builtin_labels(self):
        labels = [dg.table2_witness(row).label for row in range(1, 14)]
        assert labels == [
            "T4,7 -> T4,6^0", "T4,5 -> T4,6^1", "T4,8 -> T4,3", "T4,8 -> T4,9",
            "T4,4 -> T4,2", "T4,9 -> T4,2", "T4,3 -> T4,2", "T4,2 -> T4,1",
            "T4,8 -> T4,4", "T4,6^1 -> T4,2", "T4,7 -> T4,8", "T4,5 -> T4,4",
            "T4,6^2 -> T4,4"]
        assert dg.table2_witness(13, lam=G(0, 1)).label == "T4,6^i -> T4,4"
        assert dg.table4_witness().label == "T4,6^* -> T4,5"
        assert dg.witness_from_dict(dg.DIM3_WITNESS).label == "T3,2 -> T3,1"

    def test_user_family_document_label_names_its_member(self):
        doc = dg.witness_to_dict(dg.table2_witness(13, lam=G(-3) / 4))
        assert dg.witness_from_dict(doc).label == "T4,6^-3/4 -> T4,4"

    @pytest.mark.parametrize("row", [0, -1, 14])
    def test_rows_outside_the_table_are_refused(self, row):
        with pytest.raises(MalformedInput, match="row"):
            dg.table2_witness(row)

    def test_lambda_only_on_the_family_row(self):
        with pytest.raises(MalformedInput):
            dg.table2_witness(3, lam=G(2))

    @pytest.mark.parametrize("doc", [
        {"source": {"name": "T9,9"}, "target": {"name": "T3,1"}, "basis": [["t"]]},
        {"source": {"name": "T3,2"}, "target": {"name": "T3,1"}, "basis": [["t"]]},
        {"source": {"name": "T3,2"}, "target": {"name": "T3,1"},
         "basis": [["t", "0", "0"], ["0", "t"], ["0", "0", "t"]]},
        {"source": {"name": "T3,2"}, "target": {"name": "T3,1"}, "basis": "t"},
    ], ids=["unknown-source", "too-small", "ragged", "not-a-list"])
    def test_basis_must_match_the_source_dimension(self, doc):
        with pytest.raises(MalformedInput):
            dg.witness_from_dict(doc)


def _dense_scan_problems(witness):
    """Reference verdict: every cell of the dense transported tensor."""
    source, target = witness.source_system(), witness.target_system()
    transported = dg.transport_constants(source, witness.basis)
    problems = []
    for i, j, k, p in itertools.product(range(source.dim), repeat=4):
        value = RationalFunction.of(transported[i][j][k][p])
        expected = target.constant(i + 1, j + 1, k + 1, p + 1)
        if not value and not expected:
            continue
        idx = (i + 1, j + 1, k + 1, p + 1)
        try:
            lim = value.limit_at_zero()
        except PoleAtZero:
            problems.append(("pole", idx, rational_function_str(value)))
            continue
        if lim != expected:
            problems.append(("mismatch", idx, f"limit {scalar_str(lim)} != "
                                              f"{scalar_str(G.of(expected))}"))
    return problems


def _perturbed_witnesses():
    """Built-in witnesses with one basis row scaled by 2, t or 1/t, or a wrong target."""
    for doc in BUILTIN_DOCUMENTS:
        for row in range(len(doc["basis"])):
            for factor in ("2", "t", "1/t"):
                bad = json.loads(json.dumps(doc))
                bad["basis"][row] = [x if x == "0" else f"({factor})*({x})"
                                     for x in bad["basis"][row]]
                yield dg.witness_from_dict(bad)
    for doc in dg.TABLE2_WITNESSES[2:9]:
        bad = json.loads(json.dumps(doc))
        bad["target"] = {"name": "T4,7"}
        yield dg.witness_from_dict(bad)


class TestSparseVerification:
    def test_problems_equal_the_dense_scan(self):
        kinds = set()
        for witness in _perturbed_witnesses():
            report = dg.verify_degeneration(witness)
            assert report.problems == _dense_scan_problems(witness), witness.label
            assert report.ok == (not report.problems)
            kinds.update(kind for kind, _, _ in report.problems)
        assert kinds == {"pole", "mismatch"}

    @pytest.mark.parametrize("doc", BUILTIN_DOCUMENTS, ids=lambda d: dg.witness_from_dict(d).label)
    def test_builtin_witnesses_pass_the_dense_scan(self, doc):
        assert _dense_scan_problems(dg.witness_from_dict(doc)) == []


class TestWitnessConsistency:
    @pytest.mark.parametrize("t0", [Fraction(1), Fraction(1, 2)])
    def test_sample_instantiation_is_isomorphic_copy(self, t0):
        # at any regular parameter value the transported constants agree with
        # an honest change of basis, hence give an isomorphic copy of the source
        for row in (3, 5, 9, 11):
            witness = dg.table2_witness(row)
            source = witness.source_system()
            transported = dg.transport_constants(source, witness.basis)
            numeric = [[x.evaluate_at(t0) for x in row] for row in witness.basis.rows]
            g = mat_inverse([[numeric[j][i] for j in range(4)] for i in range(4)])
            direct = source.change_basis(g)
            for i in range(4):
                for j in range(4):
                    for k in range(4):
                        for p in range(4):
                            sampled = RationalFunction.of(
                                transported[i][j][k][p]).evaluate_at(t0)
                            assert sampled == direct.constant(i + 1, j + 1, k + 1, p + 1)

    def test_limits_agree_with_small_sample_values(self):
        witness = dg.table2_witness(12)
        source = witness.source_system()
        transported = dg.transport_constants(source, witness.basis)
        t0 = Fraction(1, 1000)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    for p in range(4):
                        f = RationalFunction.of(transported[i][j][k][p])
                        lim = f.limit_at_zero()
                        # numerator/denominator are continuous at 0, so the
                        # sample value approaches the limit; at t = 1/1000 the
                        # difference must already be tiny for these rows
                        sample = f.evaluate_at(t0)
                        delta = sample - lim
                        assert abs(delta.re) < Fraction(1, 50) and abs(delta.im) < Fraction(1, 50)

    def test_transport_functoriality_at_samples(self):
        rng = ExactRandom(97)
        system = catalog.instantiate("T3,2")
        for _ in range(5):
            a = _random_parametrized_basis(rng, 3)
            b = _random_parametrized_basis(rng, 3)
            once = dg.transport_constants(system, a)
            twice_tensor = Lts(once)
            second = dg.transport_constants(twice_tensor, b)
            combined = dg.ParametrizedBasis(mat_mul(b.rows, a.rows))
            direct = dg.transport_constants(system, combined)
            for idx in ((0, 1, 0), (0, 2, 1), (1, 2, 2)):
                i, j, k = idx
                for p in range(3):
                    assert RationalFunction.of(second[i][j][k][p]) == \
                        RationalFunction.of(direct[i][j][k][p])


def _random_parametrized_basis(rng, n):
    """Invertible over Q(i)(t): unimodular matrix times diagonal t-powers."""
    u = rng.unimodularish(n, steps=4)
    rows = [[RationalFunction.of(x) for x in row] for row in u]
    for i in range(n):
        power = rng.rng.randint(-2, 2)
        rows[i] = [x * T ** power for x in rows[i]]
    return dg.ParametrizedBasis(rows)


class TestNecessaryConditions:
    def test_derived_violation(self):
        report = dg.necessary_conditions(catalog.instantiate("T4,5"),
                                         catalog.instantiate("T4,9"))
        assert not report.derived_ok
        assert report.certifies_non_degeneration

    def test_family_to_t43_violation(self):
        report = dg.necessary_conditions(catalog.instantiate("T4,6", G(3)),
                                         catalog.instantiate("T4,3"))
        assert not report.derived_ok
        assert report.certifies_non_degeneration

    @pytest.mark.parametrize("source,target,text", [
        ("T4,5", "T4,9", "derived subspace dimension increases"),
        ("T4,9", "T4,3", "Z flattening rank increases"),
        ("T4,2", "T4,1", "all necessary conditions hold (no obstruction found)"),
    ])
    def test_text_of_a_non_isomorphic_pair(self, source, target, text):
        report = dg.necessary_conditions(catalog.instantiate(source), catalog.instantiate(target))
        assert not report.isomorphic and str(report) == text

    def test_identical_pair_trivially_fine(self):
        system = catalog.instantiate("T4,4")
        report = dg.necessary_conditions(system, system)
        assert report.identical and report.isomorphic
        assert not report.certifies_non_degeneration

    def test_verified_edges_satisfy_corollary(self):
        # cross-check of every condition against every verified witness
        for row in range(1, 14):
            witness = dg.table2_witness(row)
            report = dg.necessary_conditions(witness.source_system(), witness.target_system())
            assert not report.violations, witness.label
        # the family row starts at the closure of the members' orbits: its
        # sample breaks only the conditions that hold on one orbit
        report = dg.necessary_conditions(catalog.instantiate("T4,6", G(2)),
                                         dg.table4_witness().target_system())
        assert report.violations == ["derivation dimension does not grow",
                                     "relative invariant q0^2 p^3 - p0^3 q^2 is nonzero"]
        assert not report.closure_violations


# (L, X, Z) flattening ranks of the dimension-4 diagram's nodes
NODE_RANKS = {
    ("T4,1", None): (0, 0, 0), ("T4,2", None): (1, 2, 1), ("T4,3", None): (1, 2, 2),
    ("T4,4", None): (2, 3, 2), ("T4,5", None): (3, 3, 3), ("T4,6", G(2)): (3, 3, 3),
    ("T4,6", G(0)): (2, 3, 2), ("T4,6", G(1)): (3, 3, 3), ("T4,7", None): (2, 3, 3),
    ("T4,8", None): (2, 3, 2), ("T4,9", None): (2, 3, 1),
}


class TestCertificates:
    @pytest.mark.parametrize("node", NODE_RANKS, ids=lambda node: "%s^%s" % node)
    def test_flattening_ranks(self, node):
        assert catalog.instantiate(*node).flattening_ranks() == NODE_RANKS[node]

    @pytest.mark.parametrize("lam, f", [(G(2), G(400)), (G(3), G(4900)), (G(5), G(94864)),
                                        (G(0, 1), G(0, 50))], ids=["2", "3", "5", "i"])
    def test_relative_invariant_refutes_row_2(self, lam, f):
        report = dg.necessary_conditions(catalog.instantiate("T4,6", lam),
                                         catalog.instantiate("T4,6", G(1)))
        assert report.values["relative"] == f and not report.relative_ok
        assert all(report.ranks_ok.values()) and report.certifies_non_degeneration

    @pytest.mark.parametrize("pair", [("T4,5", None, "T4,6", G(1)), ("T4,5", None, "T4,4", None),
                                      ("T4,6", G(2), "T4,4", None)])
    def test_relative_invariant_vanishes_on_edges(self, pair):
        report = dg.necessary_conditions(catalog.instantiate(*pair[:2]),
                                         catalog.instantiate(*pair[2:]))
        assert report.values["relative"] == 0

    def test_relative_invariant_needs_both_ends_in_its_domain(self):
        report = dg.necessary_conditions(catalog.instantiate("T4,7"), catalog.instantiate("T4,5"))
        assert report.values["pq"] is None and report.relative_ok

    @pytest.mark.parametrize("source, target, seed", [
        (("T4,7", None), ("T4,5", None), 1), (("T4,9", None), ("T4,3", None), 2),
        (("T4,6", G(2)), ("T4,6", G(1)), 3), (("T4,6", G(0, 1)), ("T4,6", G(1)), 4),
        (("T4,6", G(-2)), ("T4,6", G(1)), 5), (("T4,6", G(-1) / 2), ("T4,6", G(1)), 6),
    ], ids=["T4,7-T4,5", "T4,9-T4,3", "2-1", "i-1", "-2-1", "-1/2-1"])
    def test_verdicts_survive_dense_conjugation(self, source, target, seed):
        rng = ExactRandom(seed)
        literal = [catalog.instantiate(*source), catalog.instantiate(*target)]
        dense = [system.change_basis(rng.invertible(4, height=2)) for system in literal]
        before = dg.necessary_conditions(*literal)
        after = dg.necessary_conditions(*dense)
        assert after.violations == before.violations
        assert all(after.values[name] == before.values[name] for name in "LXZ")
        assert (after.values["relative"] == 0) == (before.values["relative"] == 0)

    @pytest.mark.parametrize("lam", [G(-2), G(-1) / 2])
    def test_members_isomorphic_to_the_target_get_no_certificate(self, lam):
        # T4,6^lam is isomorphic to T4,6^1: neither the ranks nor f separate them
        report = dg.necessary_conditions(catalog.instantiate("T4,6", lam),
                                         catalog.instantiate("T4,6", G(1)))
        assert report.values["relative"] == 0 and report.relative_ok
        assert all(report.ranks_ok.values())
        assert report.isomorphic and not report.identical
        assert not report.certifies_non_degeneration
        assert str(report) == "isomorphic ends: degeneration is trivial"

    def test_dense_conjugate_of_the_target_is_isomorphic_to_it(self):
        t461 = catalog.instantiate("T4,6", G(1))
        dense = t461.change_basis(ExactRandom(7).invertible(4, height=3))
        for lam in (G(1), G(-2), G(-1) / 2):
            report = dg.necessary_conditions(catalog.instantiate("T4,6", lam), dense)
            assert report.isomorphic and not report.certifies_non_degeneration, lam
        report = dg.necessary_conditions(catalog.instantiate("T4,6", G(2)), dense)
        assert not report.isomorphic and report.certifies_non_degeneration
        assert not report.relative_ok

    def test_a_theta_is_built_once_per_system(self, monkeypatch):
        builds = []
        real = catalog.a_theta
        monkeypatch.setattr(catalog, "a_theta", lambda theta: builds.append(theta) or real(theta))
        # fresh copies: catalog instances may already carry their invariants
        ends = [Lts.from_rows(4, catalog.instantiate(*end).rows())
                for end in (("T4,6", G(2)), ("T4,4", None))]
        first = dg.necessary_conditions(*ends)
        assert len(builds) == 2
        assert dg.necessary_conditions(*ends) == first
        assert len(builds) == 2


class TestSeparatingSets:
    def test_row1_membership(self):
        separating = dg.table3_separating_set(1)
        assert separating.contains(catalog.instantiate("T4,7"))
        assert not separating.contains(catalog.instantiate("T4,5"))

    def test_zero_tensor_in_every_set(self):
        zero4 = Lts([[[[0] * 4 for _ in range(4)] for _ in range(4)] for _ in range(4)])
        for sep in (dg.table3_separating_set(1), dg.table3_separating_set(2, G(2)),
                    dg.table3_separating_set(3), dg.table5_separating_set()):
            assert sep.contains(zero4)

    def test_row2_membership_per_lambda(self):
        for lam in (G(2), G(3), G(5), GaussianRational(0, 1)):
            separating = dg.table3_separating_set(2, lam)
            assert separating.contains(catalog.instantiate("T4,6", lam))
            assert not separating.contains(catalog.instantiate("T4,6", G(1)))

    def test_row3_membership(self):
        separating = dg.table3_separating_set(3)
        assert separating.contains(catalog.instantiate("T4,9"))
        assert not separating.contains(catalog.instantiate("T4,3"))

    def test_table5_membership(self):
        separating = dg.table5_separating_set()
        for lam in (G(2), G(3), G(5), GaussianRational(0, 1), G(0), G(-1)):
            assert separating.contains(catalog.instantiate("T4,6", lam))
        assert not separating.contains(catalog.instantiate("T4,9"))
        assert not separating.contains(catalog.instantiate("T4,3"))

    def test_table5_literal_excludes_the_family(self):
        # the printed self-relation forces c_{1,3,2}^4 = 0, which no family
        # member satisfies; kept as data, not used for the operative checks
        literal = dg.table5_separating_set(literal=True)
        assert not literal.contains(catalog.instantiate("T4,6", G(2)))

    def test_random_points_satisfy_relations(self):
        # every basis vector of the locus satisfies every relation
        for sep in (dg.table3_separating_set(1), dg.table3_separating_set(2, G(3)),
                    dg.table5_separating_set()):
            vectors = sep.basis()
            assert vectors
            for rows in vectors:
                assert rows and sep.first_violation(rows) is None

    def test_first_violation_names_the_broken_constraint(self):
        separating = dg.table3_separating_set(3)
        rows = dict(catalog.instantiate("T4,9").rows())
        assert separating.first_violation(rows) is None
        rows[(0, 1, 0)] = {2: G(3)}  # c_1213 = 3 while c_2113 = -1
        assert separating.first_violation(rows) == "relation (1, 2, 1, 3) = -1*(2, 1, 1, 3) fails"
        rows = {(0, 0, 0): {0: G(2)}}
        assert separating.first_violation(rows) == "constant (1, 1, 1, 1) is nonzero"
        assert dg.SeparatingSet(4, [], zero_otherwise=False).first_violation(rows) is None

    @pytest.mark.parametrize("lam,forced", [(G(-1), (1, 2, 3, 4)), (G(0), (2, 3, 1, 4))])
    def test_zero_factor_forces_its_component_to_vanish(self, lam, forced):
        # row 2 relates c_1234 = (1+lam) c_1324 and c_2314 = -lam c_1324
        separating = dg.table3_separating_set(2, lam)
        vectors = separating.basis()
        assert vectors
        i, j, k, p = forced
        for rows in vectors:
            assert separating.first_violation(rows) is None
            assert p - 1 not in rows.get((i - 1, j - 1, k - 1), {})
            assert p - 1 not in rows.get((j - 1, i - 1, k - 1), {})

    def test_inconsistent_cycle_vanishes(self):
        # c_1213 = 2 c_2113 and c_2113 = c_1213 force both constants to 0
        separating = dg.SeparatingSet(4, [((1, 2, 1, 3), (2, 1, 1, 3), G(2)),
                                          ((2, 1, 1, 3), (1, 2, 1, 3), G(1))])
        assert separating.basis() == []

    def test_consistent_cycle_keeps_its_variable(self):
        # factors 2 and 1/2 multiply to 1: the locus is the line c_1213 = 2 c_2113
        separating = dg.SeparatingSet(4, [((1, 2, 1, 3), (2, 1, 1, 3), G(2)),
                                          ((2, 1, 1, 3), (1, 2, 1, 3), G(1) / 2)])
        [rows] = separating.basis()
        assert separating.first_violation(rows) is None
        assert rows[(0, 1, 0)][2] == 2 * rows[(1, 0, 0)][2] and rows[(1, 0, 0)][2]

    @pytest.mark.parametrize("factory,size", [
        (lambda: dg.table3_separating_set(1), 5),
        (lambda: dg.table3_separating_set(2, G(2)), 4),
        (lambda: dg.table3_separating_set(2, G(0)), 4),
        (lambda: dg.table3_separating_set(2, G(-1)), 4),
        (lambda: dg.table3_separating_set(2, GaussianRational(0, 1)), 4),
        (lambda: dg.table3_separating_set(3), 3),
        (lambda: dg.table5_separating_set(), 6),
        (lambda: dg.table5_separating_set(literal=True), 5),
    ])
    def test_printed_locus_dimension(self, factory, size):
        assert len(factory().basis()) == size

    def test_locus_is_the_kernel_of_the_relations(self):
        # seeded relation sets over a small index pool, so zero factors,
        # self-relations and cycles with factor products other than 1 all occur
        rng = random.Random(20240)
        factors = [G(0), G(1), G(-1), G(2), G(Fraction(1, 2)), G(0, 1), G(3)]
        seen = {"zero factor": 0, "self-relation": 0, "inconsistent cycle": 0}
        for _ in range(150):
            pool = [tuple(rng.randint(1, 3) for _ in range(4)) for _ in range(rng.randint(1, 5))]
            relations = []
            for _ in range(rng.randint(1, 6)):
                a = rng.choice(pool)
                b = a if rng.random() < 0.2 else rng.choice(pool)
                relations.append((a, b, rng.choice(factors)))
            separating = dg.SeparatingSet(3, relations)
            column = {idx: c for c, idx in enumerate(separating.support)}
            rows = []
            for a, b, f in separating.relations:
                row = [G(0)] * len(column)
                row[column[a]] += 1
                row[column[b]] -= f
                rows.append(row)
            vectors = separating.basis()
            assert len(vectors) == len(column) - rank(sparse_rows(rows))
            for vector in vectors:
                assert vector and separating.first_violation(vector) is None
            seen["zero factor"] += any(not f for _, _, f in separating.relations)
            seen["self-relation"] += any(a == b for a, b, _ in separating.relations)
            pairs = {(a, b): f for a, b, f in separating.relations if a != b and f}
            seen["inconsistent cycle"] += any(
                (b, a) in pairs and f * pairs[(b, a)] != 1 for (a, b), f in pairs.items())
        assert all(seen.values()), seen


class TestBorelStability:
    @pytest.mark.parametrize("factory", [
        lambda: dg.SeparatingSet(4, []),  # the zero locus, trivially stable
        lambda: dg.table3_separating_set(1),
        lambda: dg.table3_separating_set(2, G(2)),
        lambda: dg.table3_separating_set(3),
        lambda: dg.table5_separating_set(),
        lambda: dg.table3_separating_set(2, GaussianRational(0, 1)),
        # a cycle with factor product 2 forces both constants to 0: the locus is {0}
        lambda: dg.SeparatingSet(4, [((1, 2, 1, 3), (2, 1, 1, 3), 2),
                                     ((2, 1, 1, 3), (1, 2, 1, 3), 1)]),
    ])
    def test_symbolic_proof(self, factory):
        report = dg.borel_stability_evidence(factory(), "symbolic")
        assert report.ok, report.detail
        assert str(report) == "borel-symbolic: pass - locus stable under the lower-triangular Lie algebra"

    @pytest.mark.parametrize("mode", ["symbolic"])
    @pytest.mark.parametrize("lam", [G(-1), G(0)])
    def test_row2_where_a_factor_vanishes(self, mode, lam):
        report = dg.borel_stability_evidence(dg.table3_separating_set(2, lam), mode)
        assert report.ok, report.detail

    def test_randomized_mode_is_gone(self):
        with pytest.raises(MalformedInput):
            dg.borel_stability_evidence(dg.table3_separating_set(3), mode="randomized")

    def test_zero_factor_relation_document(self):
        # c_1234 = 0 * c_1324 leaves c_1324 alone in the locus, which a
        # lower-triangular change of basis spreads to other constants
        separating = dg.separating_set_from_dict(
            {"dim": 4, "equal": [[[1, 2, 3, 4], [1, 3, 2, 4], "0"]]})
        for rows in separating.basis():
            assert 3 not in rows.get((0, 1, 2), {}) and 3 not in rows.get((1, 0, 2), {})
        assert not dg.borel_stability_evidence(separating, "symbolic").ok

    def test_free_locus_with_a_forced_zero_is_not_stable(self):
        # c_1214 = 0 with every other constant free: E_43 carries the free
        # c_1213 into c_1214, so the locus is not Borel stable
        separating = dg.SeparatingSet(4, [((1, 2, 1, 4), (1, 2, 1, 4), 0)], zero_otherwise=False)
        report = dg.borel_stability_evidence(separating, "symbolic")
        assert not report.ok
        assert report.detail.startswith("relation (1, 2, 1, 4) = 0*(1, 2, 1, 4) fails")
        point = catalog.instantiate("T4,9").rows()  # c_1213 = 1 = -c_2113
        assert separating.first_violation(point) is None
        g = [[G(1) if i == j or (i, j) == (3, 2) else G(0) for j in range(4)] for i in range(4)]
        assert not separating.contains(catalog.instantiate("T4,9").change_basis(g))

    @pytest.mark.parametrize("dim", [4, 16])
    def test_all_free_locus_is_stable(self, dim):
        separating = dg.separating_set_from_dict({"dim": dim, "equal": [],
                                                  "zero_otherwise": False})
        assert separating.basis() == []
        assert dg.borel_stability_evidence(separating, "symbolic").ok

    def test_free_locus_lists_only_neighbours_of_the_support(self):
        separating = dg.SeparatingSet(16, [((16, 16, 16, 1), (16, 16, 16, 1), 0)],
                                      zero_otherwise=False)
        vectors = separating.basis()
        assert len(vectors) == 4 * 15
        assert dg.borel_stability_evidence(separating, "symbolic").ok

    def test_diagonal_matrix_units_are_checked(self):
        # e_1212 - e_2112 + e_1112 is killed by E_21 but is no weight vector:
        # its line is stable under unipotent changes, not under diagonal ones
        separating = dg.SeparatingSet(2, [((1, 2, 1, 2), (2, 1, 1, 2), G(-1)),
                                          ((1, 1, 1, 2), (1, 2, 1, 2), G(1))])
        report = dg.borel_stability_evidence(separating, "symbolic")
        assert not report.ok
        assert report.detail.endswith("under E_(1, 1) of the lower-triangular Lie algebra")
        [rows] = separating.basis()
        assert dg._lie_action(rows, 1, 0) == {}
        scaled = _conjugate_rows(rows, [[G(1) / 2, G(0)], [G(0), G(1)]],
                                 [[G(2), G(0)], [G(0), G(1)]])
        assert separating.first_violation(scaled) is not None

    def test_unstable_set_detected(self):
        # a single off-diagonal constant without its antisymmetry partner is
        # not Borel stable; a lower-triangular change spreads it to c_1113
        bad = dg.SeparatingSet(4, [((1, 2, 1, 3), (1, 2, 1, 3), G(1))])
        symbolic = dg.borel_stability_evidence(bad, "symbolic")
        assert not symbolic.ok
        assert symbolic.detail.startswith("constant (1, 1, 1, 3) is nonzero")


class TestGraph:
    def test_dim4_structure(self):
        graph = dg.degeneration_graph(4)
        assert graph.maximal == ["T4,6*", "T4,7"]
        pairs = set(graph.edge_pairs())
        expected = {
            ("T4,7", "T4,6^0"), ("T4,7", "T4,8"),
            ("T4,5", "T4,6^1"), ("T4,5", "T4,4"),
            ("T4,8", "T4,3"), ("T4,8", "T4,9"), ("T4,8", "T4,4"),
            ("T4,4", "T4,2"), ("T4,9", "T4,2"), ("T4,3", "T4,2"),
            ("T4,2", "T4,1"), ("T4,6^1", "T4,2"),
            ("T4,6*", "T4,4"), ("T4,6*", "T4,5"),
            ("T4,6*", "T4,6^0"), ("T4,6*", "T4,6^1"),
        }
        assert pairs == expected

    def test_dim4_orbit_annotations(self):
        graph = dg.degeneration_graph(4)
        assert graph.node("T4,7").orbit_dim == 11
        assert graph.node("T4,6*").closure_dim == 11
        assert graph.node("T4,2").orbit_dim == 7  # formula value
        assert graph.node("T4,2").figure_stratum == 5  # published position
        strata = sorted({n.figure_stratum for n in graph.nodes}, reverse=True)
        assert strata == [11, 10, 9, 8, 5, 0]

    def test_dim3_single_component(self):
        graph = dg.degeneration_graph(3)
        assert graph.maximal == ["T3,2"]
        assert graph.node("T3,2").orbit_dim == 4
        assert graph.edge_pairs() == [("T3,2", "T3,1")]

    @pytest.mark.parametrize("target, message", [
        ("T3,1", "built-in witness failed"),  # the identity does not degenerate T3,2 to T3,1
        ("T3,2", "violates a necessary condition"),  # verified, but dim Der does not grow
    ])
    def test_inconsistent_witness_table_raises(self, monkeypatch, target, message):
        identity = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
        doc = {"source": {"name": "T3,2"}, "target": {"name": target}, "basis": identity}
        monkeypatch.setattr(dg, "_WITNESS_TABLES", {"dim3": [doc]})
        with pytest.raises(InconsistentGraph, match=message):
            dg.degeneration_graph(3)


class TestJsonForms:
    def test_witness_round_trip(self):
        for witness in (dg.table2_witness(9), dg.table2_witness(13), dg.table4_witness()):
            doc = json.loads(json.dumps(dg.witness_to_dict(witness)))
            again = dg.witness_from_dict(doc)
            assert dg.verify_degeneration(again).ok

    def test_witness_schema_errors(self):
        with pytest.raises(MalformedInput):
            dg.witness_from_dict({"source": {"name": "T4,2"}})
        with pytest.raises(MalformedInput):
            dg.witness_from_dict({"source": {}, "target": {"name": "T4,1"},
                                  "basis": [["1"]]})

    def test_separating_set_round_trip(self):
        separating = dg.table3_separating_set(2, G(3))
        doc = json.loads(json.dumps(dg.separating_set_to_dict(separating)))
        again = dg.separating_set_from_dict(doc)
        assert again.contains(catalog.instantiate("T4,6", G(3)))
        assert not again.contains(catalog.instantiate("T4,6", G(1)))

    @pytest.mark.parametrize("separating", [
        dg.table3_separating_set(1), dg.table3_separating_set(2, G(3)),
        dg.table3_separating_set(2, G(1, 3)), dg.table3_separating_set(3),
        dg.table5_separating_set(), dg.table5_separating_set(literal=True),
    ], ids=lambda s: s.label)
    def test_shipped_separating_sets_load(self, separating):
        doc = json.loads(json.dumps(dg.separating_set_to_dict(separating)))
        again = dg.separating_set_from_dict(doc)
        assert (again.dim, again.relations, again.zero_otherwise) == \
            (separating.dim, separating.relations, separating.zero_otherwise)

    @pytest.mark.parametrize("doc", [
        {"dim": True, "equal": []},
        {"dim": 0, "equal": []},
        {"dim": 17, "equal": []},
        {"dim": "4", "equal": []},
        {"dim": 4, "equal": [[[1, 2, 1, 9], [2, 1, 1, 3], "-1"]]},
        {"dim": 4, "equal": [[[0, 2, 1, 3], [2, 1, 1, 3], "-1"]]},
        {"dim": 4, "equal": [[[1, 2, 1], [2, 1, 1, 3], "-1"]]},
        {"dim": 4, "equal": [[[1, 2, 1, 3], [2, 1, True, 3], "-1"]]},
        {"dim": 4, "equal": [[[1, 2, 1, 3], [2, 1, 1, 3]]]},
        {"dim": 4, "equal": {"a": 1}},
        {"dim": 4, "equal": [], "zero_otherwise": "no"},
        {"dim": 4, "equal": [], "zero_otherwise": 0},
    ])
    def test_separating_set_schema_errors(self, doc):
        with pytest.raises(MalformedInput):
            dg.separating_set_from_dict(doc)
