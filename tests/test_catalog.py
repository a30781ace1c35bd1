"""Catalog instantiation, the family invariant and classification."""

import importlib
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import ExactRandom, reference_determinant
from lietriple import catalog
from lietriple.errors import (
    DimensionUnsupported,
    MalformedInput,
    MissingParameter,
    NotNilpotent,
    SingularParameter,
    UnknownName,
)
from lietriple.cohomology import Cocycle
from lietriple.core import Lts, complete_table, lts_from_lie
from lietriple.extension import ExtensionSpec
from lietriple.scalars import GaussianRational, QI_I, RationalFunction


G = GaussianRational
LAMBDA_SAMPLES = [G(1), G(-2), G(Fraction(-1, 2)), G(2), G(3), G(5), QI_I]
BIG = G(Fraction(2 ** 70 + 1, 3 ** 30))  # the large-height family parameter


def unit4(coeff):
    return [G(0), G(0), G(0), G(coeff)]


# char poly x^3 - x - 1 of its cocycle matrix: xi = 1, no parameter in Q(i)
IRRATIONAL_MEMBER = complete_table(4, {(1, 2, 2): unit4(1), (1, 3, 1): unit4(-1),
                                       (1, 3, 3): unit4(-1), (2, 3, 3): unit4(1)})

large_rationals_st = st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70),
                               st.integers(1, 3 ** 30))
large_lambdas_st = st.builds(G, large_rationals_st,
                             st.one_of(st.just(0), large_rationals_st))


class TestInstantiate:
    def test_t45_doubled_product(self):
        system = catalog.instantiate("T4,5")
        assert system.product(2, 1, 3) == [0, 0, 0, 2]

    def test_family_at_one(self):
        system = catalog.instantiate("T4,6", G(1))
        assert system.product(1, 2, 3) == [0, 0, 0, -2]
        assert system.product(2, 3, 1) == [0, 0, 0, 1]
        assert system.product(3, 1, 2) == [0, 0, 0, 1]

    def test_point(self):
        system = catalog.instantiate("T1,1")
        assert system.dim == 1 and system.product(1, 1, 1) == [0]

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            catalog.instantiate("T9,9")

    def test_missing_parameter(self):
        with pytest.raises(MissingParameter):
            catalog.instantiate("T4,6")
        with pytest.raises(MissingParameter):
            catalog.instantiate("T4,5", G(1))

    def test_every_entry_verified_and_nilpotent(self):
        for name, entry in catalog.ENTRIES.items():
            lams = LAMBDA_SAMPLES if entry.family else [None]
            for lam in lams:
                system = catalog.instantiate(name, lam)
                assert system.check_axioms().ok
                assert system.nilpotency().is_nilpotent


class TestXi:
    def test_value_at_one(self):
        # derived oracle: plain fraction arithmetic on the closed form
        lam = Fraction(1)
        expected = Fraction((lam * lam + lam + 1) ** 3, (lam * lam * (lam + 1) ** 2))
        assert expected == Fraction(27, 4)
        assert catalog.xi(G(1)) == expected

    def test_two_and_half_agree(self):
        for lam in (Fraction(2), Fraction(1, 2)):
            expected = Fraction((lam * lam + lam + 1) ** 3) / (lam * lam * (lam + 1) ** 2)
            assert expected == Fraction(343, 36)
            assert catalog.xi(G(lam)) == expected

    def test_singular_parameters(self):
        for lam in (G(0), G(-1)):
            with pytest.raises(SingularParameter):
                catalog.xi(lam)

    def test_orbit_equality(self):
        for lam in LAMBDA_SAMPLES:
            value = catalog.xi(lam)
            for other in catalog.lambda_orbit(lam):
                if other * other + other == 0:
                    continue
                assert catalog.xi(other) == value


class TestFamilyIsomorphisms:
    def test_sigma2_at_three(self):
        target, g = catalog.family_isomorphism(2, G(3))
        assert target == G(-4)
        # e1 <-> e3, e4 -> -e4 as columns
        assert g[2][0] == 1 and g[0][2] == 1 and g[1][1] == 1 and g[3][3] == -1

    def test_sigma3_inverts(self):
        target, _ = catalog.family_isomorphism(3, G(2))
        assert target == G(Fraction(1, 2))

    def test_sigma1_identity(self):
        target, g = catalog.family_isomorphism(1, G(7))
        assert target == G(7)
        assert all(g[i][j] == (1 if i == j else 0) for i in range(4) for j in range(4))

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("lam", [G(2), G(3), G(5), RationalFunction.variable()])
    def test_exact_witnesses(self, k, lam):
        target, g = catalog.family_isomorphism(k, lam)
        moved = catalog.instantiate("T4,6", lam).change_basis(g)
        assert moved == catalog.instantiate("T4,6", target)

    def test_singular_parameters(self):
        with pytest.raises(SingularParameter):
            catalog.family_isomorphism(3, G(0))
        with pytest.raises(SingularParameter):
            catalog.family_isomorphism(5, G(-1))


    def test_singular_sigma4_and_sigma6(self):
        with pytest.raises(SingularParameter, match="sigma_3 / sigma_4 need lambda != 0"):
            catalog.family_isomorphism(4, G(0))
        with pytest.raises(SingularParameter, match="sigma_5 / sigma_6 need lambda != -1"):
            catalog.family_isomorphism(6, G(-1))

    @pytest.mark.parametrize("k", [0, 7])
    def test_unknown_sigma_index(self, k):
        with pytest.raises(UnknownName, match=f"sigma index {k}"):
            catalog.family_isomorphism(k, G(2))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matrix_entries_are_gaussian_rationals(self, k):
        _, g = catalog.family_isomorphism(k, G(2))
        assert all(type(x) is GaussianRational for row in g for x in row)

    def test_orbit_order(self):
        assert catalog.lambda_orbit(G(2)) == [G(2), G(-3), G(Fraction(1, 2)),
                                             G(Fraction(-3, 2)), G(Fraction(-1, 3)),
                                             G(Fraction(-2, 3))]
        assert catalog.lambda_orbit(G(0)) == [G(0), G(-1)]
        assert tuple(catalog.lambda_orbit(G(1))) == catalog.FAMILY_SPECIAL_LAMBDAS


class TestSymbolicLambda:
    """The family maps take lambda = t in Q(i)(t): one check holds for every lambda."""

    t = RationalFunction.variable()

    def test_xi_closed_form(self):
        t = self.t
        assert catalog.xi(t) == (t * t + t + 1) ** 3 / (t * t * (t + 1) ** 2)

    def test_generic_member(self):
        system = catalog.instantiate("T4,6", self.t)
        fp = system.fingerprint()
        assert (fp.dim_ann, fp.dim_derived, fp.dim_der, fp.nilpotency_index,
                fp.dim_z3, fp.dim_h3) == (1, 1, 6, 2, 8, 7)
        assert system.flattening_ranks() == (3, 3, 3)
        assert catalog.family_table1_der(self.t) == 6

    def test_maps_compute_in_the_field_of_lambda(self):
        orbit = catalog.lambda_orbit(self.t)
        assert len(orbit) == 6
        for k in range(1, 7):
            target, g = catalog.family_isomorphism(k, self.t)
            assert all(type(x) is RationalFunction for row in g for x in row)
            assert target == orbit[k - 1]

    def test_singular_parameters_in_q_i_t(self):
        zero = RationalFunction.of(0)
        with pytest.raises(SingularParameter, match="xi undefined at lambda = 0"):
            catalog.xi(zero)
        with pytest.raises(SingularParameter, match="sigma_3 / sigma_4 need lambda != 0"):
            catalog.family_isomorphism(3, zero)
        with pytest.raises(SingularParameter, match="sigma_5 / sigma_6 need lambda != -1"):
            catalog.family_isomorphism(5, RationalFunction.of(-1))

    def test_instances_of_the_two_fields_stay_apart(self, monkeypatch):
        # a constant of Q(i)(t) equals its Q(i) value and hashes like it
        monkeypatch.setattr(catalog, "_instances", {})
        symbolic = catalog.instantiate("T4,6", RationalFunction.of(2))
        system = catalog.instantiate("T4,6", 2)
        assert all(type(x) is RationalFunction for *_, x in symbolic.nonzero_entries())
        assert all(type(x) is GaussianRational for *_, x in system.nonzero_entries())
        result = catalog.classify(system)
        assert (result.name, result.lam, result.confidence) == ("T4,6", G(2), "certified")

    def test_systems_of_the_two_fields_are_unequal(self):
        # so a cocycle made on the Q(i) member is no cocycle on the Q(i)(t) one
        symbolic = catalog.instantiate("T4,6", RationalFunction.of(2))
        system = catalog.instantiate("T4,6", 2)
        assert symbolic != system and system != symbolic
        with pytest.raises(ValueError, match="cocycle ambient differs from the extension base"):
            ExtensionSpec(symbolic, [Cocycle(system, {(1, 2, 1): 1})])

    def test_classify_refuses_q_i_t(self):
        with pytest.raises(MalformedInput) as info:
            catalog.classify(catalog.instantiate("T4,6", self.t))
        assert info.value.field == "field" and "Q(i)(t)" in str(info.value)


def _dense(system, seed=107):
    return system.change_basis(ExactRandom(seed).invertible(4, height=3))


def _answer(result):
    return (result.name, result.lam, result.confidence, result.xi, result.note)


@pytest.fixture
def candidate_calls(monkeypatch):
    """The xi values classify asks family_lambda_candidates about."""
    calls = []
    real = catalog.family_lambda_candidates

    def counted(value):
        calls.append(value)
        return real(value)

    monkeypatch.setattr(catalog, "family_lambda_candidates", counted)
    return calls


def _height(z):
    """max(|a|, |b|, d), then the tie-breaks, of z = (a + b i)/d."""
    d = z.re.denominator * z.im.denominator // math.gcd(z.re.denominator, z.im.denominator)
    a, b = int(z.re * d), int(z.im * d)
    return (max(abs(a), abs(b), d), abs(a), abs(b), d, a < 0, b < 0)


def _char_pq(m):
    """(p, q) with char(x) = x^3 + p x + q, from the principal minors of m."""
    p = sum(m[a][a] * m[b][b] - m[a][b] * m[b][a] for a in range(3) for b in range(a + 1, 3))
    return p, -reference_determinant(m)


class TestFamilyCocycleMatrix:
    def test_t44(self):
        assert catalog.family_cocycle_matrix(catalog.instantiate("T4,4")) == [
            [0, 1, 0], [0, 0, 1], [0, 0, 0]]

    def test_t45(self):
        assert catalog.family_cocycle_matrix(catalog.instantiate("T4,5")) == [
            [1, 1, 0], [0, 1, 0], [0, 0, -2]]

    @pytest.mark.parametrize("lam", [G(2), QI_I, G(0)])
    def test_family_member(self, lam):
        matrix = catalog.family_cocycle_matrix(catalog.instantiate("T4,6", lam))
        assert matrix == [[lam, 0, 0], [0, 1, 0], [0, 0, -(lam + 1)]]

    @pytest.mark.parametrize("lam", [G(2), G(3), QI_I, G(Fraction(2, 3)), G(0)])
    def test_dense_conjugate_keeps_xi(self, lam):
        system = catalog.instantiate("T4,6", lam)
        for seed in (1, 2):
            conj = system.change_basis(ExactRandom(seed).invertible(4, height=3))
            p, q = _char_pq(catalog.family_cocycle_matrix(conj))
            if lam == 0:
                assert q == 0
            else:
                assert -(p * p * p) / (q * q) == catalog.xi(lam)


class TestClassify:
    def test_identity_on_names(self):
        for name, entry in catalog.ENTRIES.items():
            if entry.family:
                continue
            result = catalog.classify(catalog.instantiate(name))
            assert result.name == name and result.confidence == "certified"

    @pytest.mark.parametrize("lam", LAMBDA_SAMPLES)
    def test_identity_on_family(self, lam):
        result = catalog.classify(catalog.instantiate("T4,6", lam))
        assert result.name == "T4,6" and result.lam == lam
        assert result.confidence == "certified"

    def test_lambda_zero_and_minus_one_share_bucket(self):
        a = catalog.classify(catalog.instantiate("T4,6", G(0)))
        b = catalog.classify(catalog.instantiate("T4,6", G(-1)))
        assert a.name == b.name == "T4,6"
        assert a.lam in (G(0), G(-1)) and b.lam in (G(0), G(-1))
        assert "singular" in a.note and "singular" in b.note

    def test_conjugated_family_lambda_in_orbit(self):
        rng = ExactRandom(83)
        for lam in (G(2), G(Fraction(3, 5)), QI_I):
            system = catalog.instantiate("T4,6", lam)
            moved = system.change_basis(rng.invertible(4, height=4))
            result = catalog.classify(moved)
            assert result.name == "T4,6"
            assert result.lam in catalog.lambda_orbit(lam)
            # the oracle: undoing the known change of basis recovers the tensor
            assert moved.change_basis(
                [[1 if i == j else 0 for j in range(4)] for i in range(4)]) == moved

    def test_conjugated_large_height_member(self):
        moved = catalog.instantiate("T4,6", BIG).change_basis(
            ExactRandom(101).invertible(4, height=4))
        result = catalog.classify(moved)
        assert result.name == "T4,6"
        assert result.lam in catalog.lambda_orbit(BIG)
        assert result.xi == catalog.xi(BIG)

    @given(lam=large_lambdas_st, seed=st.integers(0, 2 ** 16))
    @settings(max_examples=6, deadline=None)
    def test_conjugated_members_recover_lambda(self, lam, seed):
        assume(lam * lam + lam != 0 and lam not in catalog.FAMILY_SPECIAL_LAMBDAS)
        moved = catalog.instantiate("T4,6", lam).change_basis(
            ExactRandom(seed).invertible(4, height=4))
        result = catalog.classify(moved)
        assert result.name == "T4,6" and result.lam in catalog.lambda_orbit(lam)
        assert result.xi == catalog.xi(lam)

    @pytest.mark.parametrize("conjugate", [False, True])
    def test_parameter_outside_q_i_is_fingerprint_only(self, conjugate):
        system = IRRATIONAL_MEMBER
        if conjugate:
            system = system.change_basis(ExactRandom(103).invertible(4, height=3))
        result = catalog.classify(system)
        assert (result.name, result.lam, result.confidence, result.xi) == (
            "T4,6", None, "fingerprint-only", G(1))
        assert result.note == "parameter not recovered over Q(i)"

    @pytest.mark.parametrize("lam", catalog.FAMILY_SPECIAL_LAMBDAS)
    def test_conjugated_orbit_of_one_takes_the_family_path(self, lam, candidate_calls):
        result = catalog.classify(_dense(catalog.instantiate("T4,6", lam)))
        assert _answer(result) == ("T4,6", G(1), "fingerprint-only", G(Fraction(27, 4)), "")
        assert candidate_calls == [G(Fraction(27, 4))]

    @pytest.mark.parametrize("lam", [G(0), G(-1)])
    def test_conjugated_singular_pair_takes_the_family_path(self, lam, candidate_calls):
        result = catalog.classify(_dense(catalog.instantiate("T4,6", lam)))
        assert _answer(result) == ("T4,6", G(0), "fingerprint-only", None,
                                   "xi singular at this parameter")
        assert candidate_calls == [None]

    @pytest.mark.parametrize("lam", [G(0), G(-1)])
    def test_literal_singular_pair_is_certified(self, lam, candidate_calls):
        result = catalog.classify(catalog.instantiate("T4,6", lam))
        assert _answer(result) == ("T4,6", lam, "certified", None,
                                   "xi singular at this parameter")
        assert candidate_calls == [None]

    def test_conjugated_t45_is_fingerprint_only(self, candidate_calls):
        result = catalog.classify(_dense(catalog.instantiate("T4,5")))
        assert _answer(result) == ("T4,5", None, "fingerprint-only", None, "")
        assert candidate_calls == []

    @pytest.mark.parametrize("lam,least", [
        (G(2), G(Fraction(1, 2))), (G(-3), G(Fraction(1, 2))), (QI_I, QI_I),
        (G(-1, -1), QI_I), (G(Fraction(5, 3)), G(Fraction(3, 5))),
        (G(Fraction(-5, 7), Fraction(3, 4)), G(Fraction(-2, 7), Fraction(-3, 4))),
    ])
    def test_fingerprint_only_lambda_has_least_height(self, lam, least):
        result = catalog.classify(_dense(catalog.instantiate("T4,6", lam)))
        assert (result.confidence, result.lam) == ("fingerprint-only", least)
        assert least == min(catalog.lambda_orbit(lam), key=_height)

    def test_conjugated_fixed_entries(self):
        rng = ExactRandom(89)
        for name in ("T3,2", "T4,4", "T4,5", "T4,7", "T4,9"):
            system = catalog.instantiate(name)
            moved = system.change_basis(rng.unimodularish(system.dim))
            result = catalog.classify(moved)
            assert result.name == name

    def test_decides_without_cohomology(self, monkeypatch):
        cohomology = importlib.import_module("lietriple.cohomology")

        def refuse(system):
            raise AssertionError("classify built Z^3 or B^3 of its input")

        def no_derivations(system):
            raise AssertionError("classify computed Der of a system")

        monkeypatch.setattr(cohomology, "cocycle_space", refuse)
        monkeypatch.setattr(cohomology, "coboundary_space", refuse)
        monkeypatch.setattr(Lts, "derivations", no_derivations)
        rng = ExactRandom(97)
        for name, entry in catalog.ENTRIES.items():
            for lam in ((G(0), G(1), G(2), G(-2)) if entry.family else (None,)):
                system = catalog.instantiate(name, lam)
                moved = system.change_basis(rng.invertible(system.dim, height=3))
                assert catalog.classify(moved).name == name, (name, lam)

    def test_literal_family_member_instantiates_one_member(self, monkeypatch):
        catalog._key_names()
        kept = {key: val for key, val in catalog._instances.items()
                if key[0] != catalog.FAMILY_NAME}
        monkeypatch.setattr(catalog, "_instances", kept)
        lam = G(Fraction(2, 3))
        result = catalog.classify(complete_table(4, catalog.ENTRIES["T4,6"].generators(lam)))
        assert (result.name, result.lam, result.confidence) == ("T4,6", lam, "certified")
        assert len([key for key in kept if key[0] == catalog.FAMILY_NAME]) <= 1

    def test_instance_cache_is_bounded(self, monkeypatch):
        # each certified family member goes through instantiate; the oldest members make room
        monkeypatch.setattr(catalog, "_instances", dict(catalog._instances))
        named = {name: catalog.instantiate(name)
                 for name, entry in catalog.ENTRIES.items() if not entry.family}
        for k in range(200):
            lam = G(k + 3, 1)
            result = catalog.classify(complete_table(4, catalog.ENTRIES["T4,6"].generators(lam)))
            assert (result.name, result.confidence) == ("T4,6", "certified"), k
            assert result.lam in catalog.lambda_orbit(lam), k
        assert len(catalog._instances) <= 128
        # the named systems keep their instance and its memoized invariants
        assert all(catalog.instantiate(name) is system for name, system in named.items())

    def test_low_dimension_is_abelian(self):
        for name in ("T1,1", "T2,1"):
            result = catalog.classify(catalog.instantiate(name))
            assert result.name == name

    def test_not_nilpotent(self):
        z = [0, 0, 0]
        b = [[list(z) for _ in range(3)] for _ in range(3)]
        b[0][1] = [0, 0, 1]
        b[1][0] = [0, 0, -1]
        b[2][0] = [2, 0, 0]
        b[0][2] = [-2, 0, 0]
        b[2][1] = [0, -2, 0]
        b[1][2] = [0, 2, 0]
        with pytest.raises(NotNilpotent):
            catalog.classify(lts_from_lie(b))

    def test_dimension_unsupported(self):
        tensor = [[[[0] * 5 for _ in range(5)] for _ in range(5)] for _ in range(5)]
        with pytest.raises(DimensionUnsupported):
            catalog.classify(Lts(tensor))


# ---------------------------------------------------------------------------
# the earlier classify, keyed on dim Der, as a reference


def reference_key(system):
    return (system.dim, system.annihilator().dim, system.derived().dim,
            system.nilpotency().index, system.derivations()[0])


def reference_buckets():
    """Invariant key -> catalog names, family keyed at both derivation branches."""
    table = {}
    for name, entry in catalog.ENTRIES.items():
        for lam in ((G(1), G(2)) if entry.family else (None,)):
            names = table.setdefault(reference_key(catalog.instantiate(name, lam)), [])
            if name not in names:
                names.append(name)
    return table


def reference_classify(system, buckets):
    names = buckets[reference_key(system)]
    for name in names:
        if name != catalog.FAMILY_NAME and system == catalog.instantiate(name):
            return catalog.ClassifyResult(name, None, "certified")
    if catalog.FAMILY_NAME not in names:
        return catalog.ClassifyResult(names[0], None, "fingerprint-only")
    p, q = _char_pq(catalog.family_cocycle_matrix(system))
    xi_value = -(p * p * p) / (q * q) if q else None
    if xi_value == catalog.xi(1) and system.derivations()[0] == 6:
        return catalog.ClassifyResult("T4,5", None, "fingerprint-only")
    candidates = catalog.family_lambda_candidates(xi_value)
    if not candidates:
        return catalog.ClassifyResult(catalog.FAMILY_NAME, None, "fingerprint-only",
                                      xi=xi_value, note="parameter not recovered over Q(i)")
    lam = system.constant(2, 3, 1, 4)
    if lam in candidates and system == catalog.instantiate(catalog.FAMILY_NAME, lam):
        confidence = "certified"
    else:
        lam, confidence = min(candidates, key=catalog._height), "fingerprint-only"
    note = "" if q else "xi singular at this parameter"
    return catalog.ClassifyResult(catalog.FAMILY_NAME, lam, confidence, xi=xi_value, note=note)


REFERENCE_SYSTEMS = [(name, None) for name, entry in catalog.ENTRIES.items()
                     if not entry.family]
REFERENCE_SYSTEMS += [("T4,6", lam) for lam in (
    G(0), G(-1), G(1), G(-2), G(Fraction(-1, 2)), G(2), G(3), QI_I, G(Fraction(2, 3)), BIG)]


class TestClassifyReference:
    @pytest.fixture(scope="class")
    def buckets(self):
        return reference_buckets()

    @pytest.mark.parametrize("name,lam", REFERENCE_SYSTEMS)
    def test_agrees_with_the_derivation_keyed_classify(self, name, lam, buckets):
        system = catalog.instantiate(name, lam)
        inputs = [system] + [system.change_basis(ExactRandom(seed).invertible(system.dim, height=3))
                             for seed in range(1, 9)]
        for moved in inputs:
            assert _answer(catalog.classify(moved)) == _answer(reference_classify(moved, buckets))

    def test_one_key_per_entry_outside_the_family(self):
        names = catalog._key_names()
        assert len(names) == 12
        assert sorted(names.values()) == sorted(
            name for name, entry in catalog.ENTRIES.items() if not entry.family)


class TestTable1Report:
    def test_all_rows_match(self):
        rows = catalog.table1_report()
        assert all(row["match"] for row in rows)
        # nine named systems, with the family sampled on both branches
        systems = [row["system"] for row in rows]
        assert systems.count("T4,6") == 5
        assert len(set(systems)) == 9

    def test_branch_values(self):
        rows = {(row["system"], row["lambda"]): row for row in catalog.table1_report()}
        assert rows[("T4,6", "1")]["computed"] == 8
        assert rows[("T4,6", "3")]["computed"] == 6
        assert rows[("T4,1", None)]["computed"] == 16


class TestLambdaCandidates:
    def test_recovers_orbit_from_xi(self):
        for lam in (G(2), G(7), QI_I):
            value = catalog.xi(lam)
            found = catalog.family_lambda_candidates(value)
            assert found, lam
            orbit = catalog.lambda_orbit(lam)
            assert all(v in orbit for v in found)

    @pytest.mark.parametrize("lam", [G(2), G(Fraction(3, 5)), QI_I, BIG,
                                     G(Fraction(-7, 3), Fraction(2, 9))])
    def test_root_set_is_the_whole_orbit(self, lam):
        found = catalog.family_lambda_candidates(catalog.xi(lam))
        assert len(found) == 6 and set(found) == set(catalog.lambda_orbit(lam))

    def test_no_gaussian_parameter(self):
        assert catalog.family_lambda_candidates(G(1)) == []

    def test_projective_point_is_the_singular_pair(self):
        found = catalog.family_lambda_candidates(None)
        assert len(found) == 2 and set(found) == {G(0), G(-1)}

    def test_orbit_of_one(self):
        found = catalog.family_lambda_candidates(catalog.xi(1))
        assert catalog.xi(1) == G(Fraction(27, 4))
        assert len(found) == 3 and set(found) == set(catalog.FAMILY_SPECIAL_LAMBDAS)
