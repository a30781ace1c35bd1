"""Annihilator extensions and their classification predicates."""

from dataclasses import FrozenInstanceError

import pytest

from conftest import ExactRandom, T32_EXTENSIONS, basis_vector, t32_extension
from lietriple import catalog, core
from lietriple.cohomology import Cocycle, coboundary_of, cocycle_space
from lietriple.core import Lts, lts_from_lie
from lietriple.errors import (AxiomViolation, LietripleError, MalformedInput, NotClosed,
                              PreconditionViolated, ZeroVector)
from lietriple.extension import (
    ExtensionSpec,
    extend,
    extension_annihilator,
    has_annihilator_component,
    in_ts,
    normalize_line_2dim,
)
from lietriple.scalars import GaussianRational


def D(system, coeffs):
    return Cocycle(system, coeffs)


class TestExtend:
    def test_t21_delta121_gives_t32(self, t21):
        out = extend(ExtensionSpec(t21, [D(t21, {(1, 2, 1): 1})]))
        assert out == catalog.instantiate("T3,2")

    def test_t31_gives_t44(self, t31):
        out = extend(ExtensionSpec(t31, [D(t31, {(2, 3, 2): 1, (1, 3, 3): -1})]))
        assert out.fingerprint() == catalog.instantiate("T4,4").fingerprint()
        assert out == catalog.instantiate("T4,4")

    def test_two_dimensional_extension_gives_t43(self, t21):
        spec = ExtensionSpec(t21, [D(t21, {(1, 2, 1): 1}), D(t21, {(1, 2, 2): 1})])
        assert extend(spec) == catalog.instantiate("T4,3")

    def test_new_coordinates_annihilate(self, t32):
        out = extend(ExtensionSpec(t32, [D(t32, {(1, 3, 1): 1})]))
        assert out.annihilator().contains(basis_vector(4, 4))

    def test_not_closed_rejected(self, t32):
        bad = D(t32, {(1, 2, 3): 1})  # violates the cyclic condition alone
        with pytest.raises(NotClosed):
            extend(ExtensionSpec(t32, [bad]))

    def test_closed_cocycles_give_lie_triple_systems(self, seeded_specs):
        # extend trusts the theorem; the axioms are checked here instead
        for label, spec in seeded_specs:
            assert extend(spec).check_axioms().ok, label

    def test_unverified_base_checked_before_building(self):
        base = Lts.from_rows(2, {(0, 1, 0): {0: 1}})  # no (A1) partner at (2, 1, 1)
        with pytest.raises(AxiomViolation):
            extend(ExtensionSpec(base, [Cocycle(base, {})]))

    def test_a_spec_without_cocycles_is_malformed_input(self, t21):
        with pytest.raises(MalformedInput, match="at least one cocycle") as info:
            ExtensionSpec(t21, [])
        assert info.value.field == "thetas" and isinstance(info.value, LietripleError)

    def test_spec_is_frozen(self, t21):
        # the spec is checked when it is made, so it cannot change afterwards
        theta = D(t21, {(1, 2, 1): 1})
        spec = ExtensionSpec(t21, [theta])
        assert spec.thetas == (theta,)
        with pytest.raises(FrozenInstanceError):
            spec.thetas = (D(t21, {(1, 2, 2): 1}),)
        with pytest.raises(FrozenInstanceError):
            spec.base = catalog.instantiate("T3,2")

    def test_extension_as_base_is_axiom_checked_once(self, t21, monkeypatch):
        extended = extend(ExtensionSpec(t21, [D(t21, {(1, 2, 1): 1})]))
        dims = []
        real = core.first_axiom_failure
        monkeypatch.setattr(core, "first_axiom_failure",
                            lambda dim, rows, *args: dims.append(dim) or real(dim, rows, *args))
        for _ in range(2):
            spec = ExtensionSpec(extended, [D(extended, {(1, 3, 1): 1})])
            extend(spec), extension_annihilator(spec), in_ts(spec)
        assert dims == [3]

    def test_callers_cannot_flag_a_cochain_closed(self, t32):
        # no flag marks a cochain closed: a spec checks every component when it is made
        bad = D(t32, {(1, 2, 3): 1})
        with pytest.raises(TypeError):
            Cocycle(t32, {(1, 2, 3): 1}, closed=True)
        with pytest.raises(NotClosed):
            extend(ExtensionSpec(t32, [bad]))

    def test_twist_by_a_non_automorphism_is_rechecked(self, t32):
        from lietriple.cohomology import aut_action

        theta = next(b for b in cocycle_space(t32).basis if b == D(t32, {(1, 3, 1): 1}))
        swap = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]  # not in Aut(T3,2)
        twisted = aut_action(swap, theta, check=False)  # = -delta^{1,3,3}, not closed
        assert theta.check_closed()[0] and not twisted.check_closed()[0]
        with pytest.raises(NotClosed):
            extend(ExtensionSpec(t32, [twisted]))
        with pytest.raises(NotClosed):
            extension_annihilator(ExtensionSpec(t32, [twisted]))


class TestExtensionAnnihilator:
    def test_zero_radical_meet(self, t21):
        space = extension_annihilator(ExtensionSpec(t21, [D(t21, {(1, 2, 1): 1})]))
        assert space.dim == 1 and space.contains(basis_vector(3, 3))

    def test_radical_contributes(self, t31):
        space = extension_annihilator(ExtensionSpec(t31, [D(t31, {(1, 2, 1): 1})]))
        assert space.dim == 2
        assert space.contains(basis_vector(4, 3)) and space.contains(basis_vector(4, 4))

    def test_zero_cocycle_on_abelian(self, t31):
        space = extension_annihilator(ExtensionSpec(t31, [D(t31, {})]))
        assert space.dim == 4

    def test_formula_matches_direct_computation_randomized(self, seeded_specs):
        # the published T3,2 cases are the ones whose meet needs Ann(base)
        published = [(name, t32_extension(name)) for name in T32_EXTENSIONS]
        for label, spec in seeded_specs + published:
            assert extension_annihilator(spec) == extend(spec).annihilator(), label

    def test_non_closed_cochain_rejected(self, seeded_specs):
        # the formula holds only for closed cocycles
        for label, spec in seeded_specs:
            if spec.base.dim < 3:  # the cochain below needs three coordinates
                continue
            bad = D(spec.base, {(1, 2, 3): 1})  # violates the cyclic condition alone
            with pytest.raises(NotClosed):
                extension_annihilator(ExtensionSpec(spec.base, [*spec.thetas[1:], bad]))


class TestInTs:
    def test_good_cocycle(self, t31):
        assert in_ts(ExtensionSpec(t31, [D(t31, {(2, 3, 2): 1, (1, 3, 3): -1})]))

    def test_radical_meets_annihilator(self, t31):
        assert not in_ts(ExtensionSpec(t31, [D(t31, {(1, 2, 1): 1})]))

    def test_coboundary_class_is_zero(self, t32):
        assert not in_ts(ExtensionSpec(t32, [D(t32, {(1, 2, 1): 1})]))

    @pytest.mark.parametrize("name", T32_EXTENSIONS)
    def test_published_extensions_of_t32(self, name):
        assert in_ts(t32_extension(name))


class TestAnnihilatorComponent:
    def test_independent_class(self, t31):
        spec = ExtensionSpec(t31, [D(t31, {(2, 3, 2): 1, (1, 3, 3): -1})])
        assert not has_annihilator_component(spec)

    def test_precondition(self, t31):
        with pytest.raises(PreconditionViolated):
            has_annihilator_component(ExtensionSpec(t31, [D(t31, {(1, 2, 1): 1})]))

    def test_dependent_components(self, t21):
        theta = D(t21, {(1, 2, 1): 1})
        spec = ExtensionSpec(t21, [theta, 2 * theta])
        assert has_annihilator_component(spec)


class TestNormalizeLine:
    def test_alpha_nonzero(self):
        alpha, beta = GaussianRational(3), GaussianRational(0, 2)
        A = normalize_line_2dim(alpha, beta)
        inv = 1 / alpha
        assert A == [[inv, -beta], [0, alpha]]
        assert [alpha * A[0][0] + beta * A[1][0], alpha * A[0][1] + beta * A[1][1]] == [1, 0]

    def test_alpha_zero(self):
        beta = GaussianRational(5)
        A = normalize_line_2dim(GaussianRational(0), beta)
        assert A == [[0, 1], [1 / beta, 0]]
        assert [beta * A[1][0], beta * A[1][1]] == [1, 0]

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            normalize_line_2dim(GaussianRational(0), GaussianRational(0))

    @pytest.mark.parametrize("alpha, beta", [(2, 3), (0, 3), (-5, 0)])
    def test_integers_give_field_elements(self, alpha, beta):
        A = normalize_line_2dim(alpha, beta)
        assert all(type(x) is GaussianRational for row in A for x in row)
        assert [alpha * A[0][0] + beta * A[1][0], alpha * A[0][1] + beta * A[1][1]] == [1, 0]

    def test_floats_are_refused(self):
        with pytest.raises(TypeError):
            normalize_line_2dim(0.5, 1)


class TestStructuralProperties:
    def test_extension_nilpotent_iff_base(self):
        rng = ExactRandom(71)
        for name in ("T2,1", "T3,2"):
            base = catalog.instantiate(name)
            theta = rng.cocycle(cocycle_space(base))
            assert extend(ExtensionSpec(base, [theta])).nilpotency().is_nilpotent

        # non-nilpotent base: the triple system induced by sl2
        z = [0, 0, 0]
        b = [[list(z) for _ in range(3)] for _ in range(3)]
        b[0][1] = [0, 0, 1]
        b[1][0] = [0, 0, -1]
        b[2][0] = [2, 0, 0]
        b[0][2] = [-2, 0, 0]
        b[2][1] = [0, -2, 0]
        b[1][2] = [0, 2, 0]
        sl2 = lts_from_lie(b)
        assert not sl2.nilpotency().is_nilpotent
        theta = rng.cocycle(cocycle_space(sl2))
        assert not extend(ExtensionSpec(sl2, [theta])).nilpotency().is_nilpotent

    def test_cohomologous_cocycles_isomorphic_extensions(self, t32):
        rng = ExactRandom(73)
        space = cocycle_space(t32)
        for _ in range(5):
            theta = rng.cocycle(space)
            f = rng.functional(3)
            shifted = theta + coboundary_of(t32, f)
            a = extend(ExtensionSpec(t32, [theta]))
            b = extend(ExtensionSpec(t32, [shifted]))
            assert a.fingerprint() == b.fingerprint()

    def test_aut_twisted_cocycle_isomorphic_extension(self, t31):
        from lietriple.cohomology import aut_action

        rng = ExactRandom(79)
        space = cocycle_space(t31)
        for _ in range(5):
            theta = rng.cocycle(space)
            phi = rng.invertible(3, height=3)
            twisted = aut_action(phi, theta, check=False)
            a = extend(ExtensionSpec(t31, [theta]))
            b = extend(ExtensionSpec(t31, [twisted]))
            assert a.fingerprint() == b.fingerprint()
