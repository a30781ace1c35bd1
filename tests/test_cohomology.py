"""Cocycles, coboundaries, quotient representatives and the group actions."""

import importlib
from fractions import Fraction

import pytest

from conftest import (
    ExactRandom,
    basis_vector,
    kernel_radical,
    oracle_derived_dim,
    reference_determinant,
    reference_radical,
    reference_rref,
    span_coordinates,
)
from lietriple import catalog
from lietriple.cohomology import (
    Cocycle,
    a_theta,
    aut_action,
    coboundary_of,
    coboundary_space,
    cocycle_space,
    cohomology,
    delta_indices,
    is_automorphism,
    matrix_form,
)
from lietriple.errors import DimensionMismatch, NotAbelianDim3, NotAnAutomorphism, RelationViolated
from lietriple.core import Lts, direct_sum
from lietriple.linalg import Subspace, mat_inverse, mat_mul, nullspace
from lietriple.scalars import GaussianRational, QI_ZERO, RationalFunction


def D(system, coeffs):
    return Cocycle(system, coeffs)


class TestCocycleSpace:
    def test_dim2_abelian(self, t21):
        space = cocycle_space(t21)
        assert space.dim == 2
        assert space.coordinates == span_coordinates(
            t21, [D(t21, {(1, 2, 1): 1}), D(t21, {(1, 2, 2): 1})])

    def test_dim3_abelian(self, t31):
        space = cocycle_space(t31)
        assert space.dim == 8
        printed = [
            D(t31, {(1, 2, 1): 1}), D(t31, {(1, 2, 2): 1}),
            D(t31, {(1, 3, 1): 1}), D(t31, {(1, 3, 3): 1}),
            D(t31, {(2, 3, 2): 1}), D(t31, {(2, 3, 3): 1}),
            D(t31, {(1, 2, 3): 1, (1, 3, 2): 1}),
            D(t31, {(2, 3, 1): 1, (1, 3, 2): 1}),
        ]
        assert space.coordinates == span_coordinates(t31, printed)

    def test_t32(self, t32):
        space = cocycle_space(t32)
        assert space.dim == 4
        printed = [
            D(t32, {(1, 2, 1): 1}), D(t32, {(1, 2, 2): 1}),
            D(t32, {(1, 3, 1): 1}), D(t32, {(1, 2, 3): 1, (1, 3, 2): 1}),
        ]
        assert space.coordinates == span_coordinates(t32, printed)

    def test_basis_elements_are_closed(self):
        for name in ("T2,1", "T3,1", "T3,2", "T4,9"):
            system = catalog.instantiate(name)
            for theta in cocycle_space(system).basis:
                fresh = Cocycle(system, dict(theta.coeffs))
                ok, witness = fresh.check_closed()
                assert ok, (name, witness)


    def test_linear_combinations_of_closed_cocycles_stay_closed(self, t32):
        a, b = cocycle_space(t32).basis[:2]
        assert a.check_closed()[0] and b.check_closed()[0]
        for combo in (a + b, a - b, -a, 3 * a, a * GaussianRational(0, 2)):
            assert combo.check_closed()[0]


class TestCoboundarySpace:
    def test_t32(self, t32):
        space = coboundary_space(t32)
        assert space.dim == 1
        assert space.coordinates == span_coordinates(t32, [D(t32, {(1, 2, 1): 1})])

    def test_abelian_vanishes(self, t31):
        assert coboundary_space(t31).dim == 0

    def test_t49_matches_derived_dimension(self):
        system = catalog.instantiate("T4,9")
        assert coboundary_space(system).dim == 2 == oracle_derived_dim(system)

    def test_b3_inside_z3_with_derived_dimension(self):
        for name in ("T3,2", "T4,7", "T4,8", "T4,5"):
            system = catalog.instantiate(name)
            z3 = cocycle_space(system)
            b3 = coboundary_space(system)
            assert b3.dim == system.derived().dim
            for c in b3.basis:
                assert z3.contains(c)

    def test_dimension_is_derived_dimension_on_catalog_and_conjugates(self):
        # Lts.fingerprint reads dim B^3 as dim [T,T,T] without building B^3
        rng = ExactRandom(101)
        for name, entry in catalog.ENTRIES.items():
            for lam in ((GaussianRational(1), GaussianRational(2)) if entry.family else (None,)):
                system = catalog.instantiate(name, lam)
                moved = system.change_basis(rng.invertible(system.dim, height=3))
                for t in (system, moved):
                    assert coboundary_space(t).dim == t.derived().dim, name
                assert system.fingerprint().dim_h3 == cohomology(system)[0], name


class TestCohomology:
    def test_z3_is_computed_once_per_system(self, monkeypatch):
        module = importlib.import_module("lietriple.cohomology")
        calls = []
        monkeypatch.setattr(module, "nullspace",
                            lambda rows, width: calls.append(width) or nullspace(rows, width))
        system = catalog.instantiate("T3,2").change_basis(ExactRandom(3).invertible(3, height=2))
        system.fingerprint()
        dim_h3, _ = cohomology(system)
        assert cocycle_space(system) is cocycle_space(system)
        assert calls == [len(delta_indices(3))] and dim_h3 == 3

    def test_t32_classes(self, t32):
        dim_h3, reps = cohomology(t32)
        assert dim_h3 == 3 == reps.dim
        b3 = coboundary_space(t32)
        printed = [D(t32, {(1, 2, 2): 1}), D(t32, {(1, 3, 1): 1}),
                   D(t32, {(1, 2, 3): 1, (1, 3, 2): 1})]
        # same span modulo coboundaries
        combined, _ = dim_h3, None
        lhs = Subspace(len(delta_indices(3)),
                       [c.coordinates() for c in reps.basis] + list(b3.coordinates))
        rhs = Subspace(len(delta_indices(3)),
                       [c.coordinates() for c in printed] + list(b3.coordinates))
        assert lhs == rhs

    def test_abelian_dims(self, t21, t31):
        assert cohomology(t21)[0] == 2
        assert cohomology(t31)[0] == 8

    def test_representatives_match_rank_tracking_selection(self):
        rng = ExactRandom(107)
        systems = [direct_sum(catalog.instantiate("T3,2"), catalog.instantiate("T1,1"))]
        for name, entry in catalog.ENTRIES.items():
            for lam in ((GaussianRational(0), GaussianRational(1), GaussianRational(2))
                        if entry.family else (None,)):
                systems.append(catalog.instantiate(name, lam))
        for name in ("T3,2", "T4,4", "T4,8", "T4,9"):
            system = catalog.instantiate(name)
            systems.append(system.change_basis(rng.invertible(system.dim, height=3)))
        for system in systems:
            dim_h3, reps = cohomology(system)
            expected = _rank_tracking_representatives(system)
            assert dim_h3 == len(expected)
            assert reps.coordinates == expected


    @pytest.mark.parametrize("summands", [("T4,9", "T1,1"), ("T3,2", "T2,1")])
    def test_dense_conjugates_in_dimension_5_keep_h3_and_der(self, summands):
        # hundreds of dense (B3) equations of rank far below their count: Z^3 and
        # Der are solved in the adapted basis and mapped back
        literal = direct_sum(*(catalog.instantiate(name) for name in summands))
        dense = literal.change_basis(ExactRandom(2).invertible(5, height=2))
        assert cohomology(dense)[0] == cohomology(literal)[0]
        assert dense.derivations()[0] == literal.derivations()[0]


def _rank_tracking_representatives(system):
    """Reference: add Z^3 echelon rows that raise the rank over B^3, reduce each
    modulo the B^3 echelon rows, and take the reduced echelon form."""
    z3, b3 = cocycle_space(system), coboundary_space(system)
    if b3.dim == 0:
        return z3.coordinates
    b_rows, b_pivots = reference_rref([list(r) for r in b3.coordinates])
    current = [list(r) for r in b3.coordinates]
    current_rank = b3.dim
    reps = []
    for row in z3.coordinates:
        stacked, _ = reference_rref(current + [list(row)])
        new_rank = len([r for r in stacked if any(x != 0 for x in r)])
        if new_rank == current_rank:
            continue
        current.append(list(row))
        current_rank = new_rank
        reduced = list(row)
        for br, bp in zip(b_rows, b_pivots):
            f = reduced[bp]
            if f != 0:
                reduced = [a - f * b for a, b in zip(reduced, br)]
        reps.append(reduced)
    reps, _ = reference_rref(reps)
    return [r for r in reps if any(x != 0 for x in r)]


class TestFieldOfCochains:
    def test_cochains_over_q_i_t_fill_gaps_with_their_own_zero(self):
        # T3,2 with constants in Q(i)(t): every coordinate, value and sum stays in Q(i)(t)
        t32 = catalog.instantiate("T3,2")
        system = Lts.from_rows(3, {key: {p: RationalFunction.of(val) for p, val in row.items()}
                                   for key, row in t32.rows().items()})
        theta = D(system, {(1, 3, 1): RationalFunction.variable()})
        values = theta.coordinates() + [theta.value(a, b, c) for a in range(1, 4)
                                        for b in range(1, 4) for c in range(1, 4)]
        values += (theta + D(system, {(1, 2, 3): RationalFunction.of(2)})).coordinates()
        assert {type(x) for x in values} == {RationalFunction}
        assert {type(x) for x in D(t32, {(1, 3, 1): 1}).coordinates()} == {GaussianRational}


def test_cochain_indices_are_checked(t32):
    # i < j and every index within the dimension, k as well as i and j
    for index in ((1, 1, 2), (2, 1, 2), (0, 1, 1), (1, 4, 1), (1, 2, 0), (1, 2, 4)):
        with pytest.raises(DimensionMismatch, match="bad cochain index"):
            D(t32, {index: 1})


def test_closedness_is_checked_on_the_extension(t32, monkeypatch):
    # the packed axiom check sizes its digits by the dimension it is given: that of T_theta
    module = importlib.import_module("lietriple.cohomology")
    original, seen = module.first_axiom_failure, []

    def spy(dim, rows):
        seen.append((dim, max(p for row in rows.values() for p in row)))
        return original(dim, rows)

    monkeypatch.setattr(module, "first_axiom_failure", spy)
    assert D(t32, {(1, 3, 1): 1}).check_closed() == (True, None)
    assert seen == [(4, 3)]


def test_cochains_add_on_one_system_only(t31, t32):
    # an equal copy of the ambient is the same system; another system of its dimension is not
    copy = Lts.from_rows(3, t32.rows())
    total = D(t32, {(1, 3, 1): 1}) + D(copy, {(1, 2, 3): 2})
    assert total == D(t32, {(1, 3, 1): 1, (1, 2, 3): 2})
    with pytest.raises(DimensionMismatch, match="different systems"):
        D(t32, {(1, 3, 1): 1}) + D(t31, {(1, 2, 3): 2})


class TestRadical:
    def test_delta121_on_abelian(self, t31):
        rad = kernel_radical(D(t31, {(1, 2, 1): 1}))
        assert rad.dim == 1 and rad.contains(basis_vector(3, 3))

    def test_rank3_cocycle_has_zero_radical(self, t31):
        theta = D(t31, {(2, 3, 2): 1, (1, 3, 3): -1})
        assert kernel_radical(theta).dim == 0

    def test_zero_cocycle(self, t31):
        assert kernel_radical(D(t31, {})).dim == 3


class TestAutAction:
    def test_identity(self, t21):
        theta = D(t21, {(1, 2, 1): 3, (1, 2, 2): -2})
        eye = [[1, 0], [0, 1]]
        assert aut_action(eye, theta) == theta

    def test_singular_or_misshapen_matrix_is_no_automorphism(self, t32):
        assert not is_automorphism(t32, [[1, 0, 0], [1, 0, 0], [0, 0, 1]])
        assert not is_automorphism(t32, [[1, 0], [0, 1]])

    @pytest.mark.parametrize("check", [True, False])
    @pytest.mark.parametrize("phi", [
        [[int(i == j) for j in range(3)] for i in range(3)],
        [[int(i == j) for j in range(5)] for i in range(5)],
        [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    ], ids=["3x3", "5x5", "ragged"])
    def test_misshapen_matrix_is_refused(self, phi, check):
        theta = cocycle_space(catalog.instantiate("T4,8")).basis[0]
        with pytest.raises(DimensionMismatch, match="4x4"):
            aut_action(phi, theta, check=check)

    def test_generic_formula_on_t21(self, t21):
        rng = ExactRandom(31)
        for _ in range(10):
            phi = rng.invertible(2, height=5)
            alpha, beta = rng.gaussian(4), rng.gaussian(4)
            theta = D(t21, {(1, 2, 1): alpha, (1, 2, 2): beta})
            moved = aut_action(phi, theta)
            det = phi[0][0] * phi[1][1] - phi[0][1] * phi[1][0]
            assert moved.value(1, 2, 1) == det * (phi[0][0] * alpha + phi[1][0] * beta)
            assert moved.value(1, 2, 2) == det * (phi[0][1] * alpha + phi[1][1] * beta)

    def test_line_normalization_reaches_delta121(self, t21):
        from lietriple.extension import normalize_line_2dim

        rng = ExactRandom(37)
        for _ in range(10):
            alpha = rng.nonzero_gaussian(4)
            beta = rng.gaussian(4)
            # row-normalization: (alpha beta) A = (1 0)
            A = normalize_line_2dim(alpha, beta)
            row = [alpha * A[0][0] + beta * A[1][0], alpha * A[0][1] + beta * A[1][1]]
            assert row == [1, 0]
            # with alpha != 0 the matrix has determinant one, so it also
            # normalizes the cocycle itself
            theta = D(t21, {(1, 2, 1): alpha, (1, 2, 2): beta})
            assert aut_action(A, theta) == D(t21, {(1, 2, 1): 1})

    def test_rejects_non_automorphism(self, t32):
        theta = D(t32, {(1, 2, 2): 1})
        swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]  # not in Aut(T3,2)
        with pytest.raises(NotAnAutomorphism):
            aut_action(swap, theta)

    def test_maps_z3_to_z3_and_b3_to_b3(self, t32):
        rng = ExactRandom(41)
        z3 = cocycle_space(t32)
        b3 = coboundary_space(t32)
        for _ in range(8):
            phi = _random_t32_automorphism(rng)
            assert is_automorphism(t32, phi)
            theta = rng.cocycle(z3)
            assert z3.contains(aut_action(phi, theta, check=False))
            assert aut_action(phi, theta).check_closed()[0]
            delta = rng.cocycle(b3)
            assert b3.contains(aut_action(phi, delta, check=False))

    def test_radical_transforms_by_inverse(self, t32):
        rng = ExactRandom(43)
        z3 = cocycle_space(t32)
        for _ in range(6):
            phi = _random_t32_automorphism(rng)
            theta = rng.cocycle(z3)
            moved_rad = reference_radical(aut_action(phi, theta, check=False))
            inv = mat_inverse(phi)
            expected = Subspace(3, [
                [sum((inv[a][b] * vec[b] for b in range(3)), start=QI_ZERO)
                 for a in range(3)]
                for vec in reference_radical(theta).basis])
            assert moved_rad == expected

    def test_gl_action_keeps_radical(self, t32):
        rng = ExactRandom(47)
        theta = rng.cocycle(cocycle_space(t32))
        scaled = GaussianRational(5, 2) * theta
        assert reference_radical(scaled) == reference_radical(theta)


def _random_t32_automorphism(rng):
    """Invertible lower-triangular maps with the (3,3) entry a11^2 a22."""
    a11 = rng.nonzero_gaussian(3)
    a22 = rng.nonzero_gaussian(3)
    a21, a31, a32 = rng.gaussian(3), rng.gaussian(3), rng.gaussian(3)
    return [[a11, QI_ZERO, QI_ZERO],
            [a21, a22, QI_ZERO],
            [a31, a32, a11 * a11 * a22]]


class TestMatrixForm:
    def test_t21_blocks(self, t21):
        alpha = GaussianRational(Fraction(5, 3))
        theta = D(t21, {(1, 2, 1): alpha})
        blocks = matrix_form(theta)
        assert blocks[0] == [[QI_ZERO, alpha], [-alpha, QI_ZERO]]
        assert blocks[1] == [[QI_ZERO, QI_ZERO], [QI_ZERO, QI_ZERO]]

    def test_zero_cocycle(self, t31):
        blocks = matrix_form(D(t31, {}))
        assert all(x == 0 for block in blocks for row in block for x in row)

    def test_transform_rule(self, t31):
        rng = ExactRandom(53)
        for _ in range(6):
            phi = rng.invertible(3, height=4)
            theta = rng.cocycle(cocycle_space(t31))
            blocks = matrix_form(theta)
            moved = matrix_form(aut_action(phi, theta, check=False))
            phi_t = [[phi[j][i] for j in range(3)] for i in range(3)]
            for k in range(3):
                mixed = [[sum((phi[i2][k] * blocks[i2][a][b] for i2 in range(3)),
                              start=QI_ZERO) for b in range(3)] for a in range(3)]
                expected = mat_mul(mat_mul(phi_t, mixed), phi)
                assert moved[k] == expected


class TestATheta:
    def test_canonical_form_i(self, t31):
        theta = D(t31, {(2, 3, 2): 1, (1, 3, 3): -1})
        assert a_theta(theta) == [[0, 1, 0], [0, 0, 1], [0, 0, 0]]

    def test_diagonal_family_form(self, t31):
        lam = GaussianRational(Fraction(7, 2))
        theta = D(t31, {(2, 3, 1): lam, (1, 3, 2): -1, (1, 2, 3): -(lam + 1)})
        matrix = a_theta(theta)
        assert matrix == [[lam, 0, 0], [0, 1, 0], [0, 0, -(lam + 1)]]
        assert matrix[0][0] + matrix[1][1] + matrix[2][2] == 0

    def test_equivariance(self, t31):
        rng = ExactRandom(59)
        z3 = cocycle_space(t31)
        for _ in range(10):
            phi = rng.invertible(3, height=4)
            theta = rng.cocycle(z3)
            lhs = a_theta(aut_action(phi, theta, check=False))
            det = reference_determinant([list(r) for r in phi])
            inv = mat_inverse(phi)
            rhs = mat_mul(mat_mul(inv, a_theta(theta)), phi)
            rhs = [[det * x for x in row] for row in rhs]
            assert lhs == rhs
            assert sum(lhs[k][k] for k in range(3)) == 0

    def test_requires_abelian_dim3(self, t32):
        with pytest.raises(NotAbelianDim3):
            a_theta(D(t32, {(1, 2, 2): 1}))

    def test_relation_violation(self, t31):
        with pytest.raises(RelationViolated):
            a_theta(D(t31, {(1, 2, 3): 1}))


class TestCocycleJson:
    def test_round_trip_with_embedded_system(self, t32):
        from lietriple.cohomology import cocycle_from_dict, cocycle_to_dict

        theta = D(t32, {(1, 2, 3): 1, (1, 3, 2): 1,
                        (1, 2, 2): GaussianRational(Fraction(-2, 3))})
        doc = cocycle_to_dict(theta)
        again = cocycle_from_dict(doc)
        assert again == theta and again.ambient == t32

    def test_catalog_reference(self, t31):
        from lietriple.cohomology import cocycle_from_dict

        doc = {"system": "T3,1", "coeffs": [{"ijk": [2, 3, 2], "value": "1"},
                                            {"ijk": [1, 3, 3], "value": "-1"}]}
        theta = cocycle_from_dict(doc)
        assert theta.ambient == t31 and theta.value(2, 3, 2) == 1

    def test_rejects_unordered_indices(self, t31):
        from lietriple.cohomology import cocycle_from_dict
        from lietriple.errors import MalformedInput

        doc = {"system": "T3,1", "coeffs": [{"ijk": [2, 1, 1], "value": "1"}]}
        with pytest.raises(MalformedInput):
            cocycle_from_dict(doc)
        doc["coeffs"][0]["ijk"] = [1, 1, 2]
        with pytest.raises(MalformedInput, match="i < j"):
            cocycle_from_dict(doc)

    def test_needs_a_coeffs_list(self):
        from lietriple.cohomology import cocycle_from_dict
        from lietriple.errors import MalformedInput

        for doc in ({"system": "T3,1"}, ["coeffs"]):
            with pytest.raises(MalformedInput, match="needs a coeffs list"):
                cocycle_from_dict(doc)

    def test_repeated_indices_need_one_value(self, t31):
        from lietriple.cohomology import cocycle_from_dict
        from lietriple.errors import MalformedInput

        coeffs = [{"ijk": [1, 2, 3], "value": "1"}, {"ijk": [1, 2, 3], "value": "7"}]
        with pytest.raises(MalformedInput, match="conflicting values") as exc:
            cocycle_from_dict({"system": "T3,1", "coeffs": coeffs})
        assert exc.value.field == "coeffs"
        coeffs[1]["value"] = "1"
        assert cocycle_from_dict({"system": "T3,1", "coeffs": coeffs}).coeffs == {(1, 2, 3): 1}

    @pytest.mark.parametrize("text", ["0^-1", "(1-1)^-2", "t/t"])
    def test_rejects_values_outside_the_field(self, t31, text):
        from lietriple.cohomology import cocycle_from_dict
        from lietriple.errors import MalformedInput

        doc = {"system": "T3,1", "coeffs": [{"ijk": [1, 2, 3], "value": text}]}
        with pytest.raises(MalformedInput):
            cocycle_from_dict(doc)


class TestCoboundaries:
    def test_delta_f_evaluates_products(self, t32):
        f = [GaussianRational(0), GaussianRational(0), GaussianRational(1)]
        delta = coboundary_of(t32, f)
        assert delta == D(t32, {(1, 2, 1): 1})

    def test_cohomologous_shift(self, t32):
        rng = ExactRandom(61)
        z3 = cocycle_space(t32)
        b3 = coboundary_space(t32)
        theta = rng.cocycle(z3)
        shifted = theta + rng.cocycle(b3)
        # same class: difference lies in B3
        diff = shifted - theta
        assert b3.contains(diff)
