"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every assertion is exact; randomized portions use
fixed seeds and the documented small-height samplers.
"""

import time
from fractions import Fraction

from conftest import ExactRandom, lts_eval, reference_determinant, span_coordinates
from lietriple import catalog
from lietriple import degeneration as dg
from lietriple.cohomology import (
    Cocycle,
    a_theta,
    aut_action,
    coboundary_of,
    coboundary_space,
    cocycle_space,
    cohomology,
    delta_indices,
)
from lietriple.core import Lts
from lietriple.extension import ExtensionSpec, extend
from lietriple.linalg import Subspace, mat_inverse, mat_mul
from lietriple.scalars import (
    GaussianRational,
    QI_I,
    RationalFunction,
)

G = GaussianRational
FAMILY_LAMBDAS = [G(1), G(-2), G(Fraction(-1, 2)), G(2), G(3), G(5), QI_I]
FIXED_NAMES = ["T1,1", "T2,1", "T3,1", "T3,2", "T4,1", "T4,2", "T4,3", "T4,4",
               "T4,5", "T4,7", "T4,8", "T4,9"]


def _report(number, title, ok=True):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {title}")
    assert ok


def test_criterion_01_axiom_suite():
    systems = [catalog.instantiate(name) for name in FIXED_NAMES]
    systems += [catalog.instantiate("T4,6", lam) for lam in FAMILY_LAMBDAS]
    ok = all(system.check_axioms().ok for system in systems)
    _report(1, "all catalog entries satisfy (A1)-(A3) exhaustively", ok)


def test_criterion_02_table1_reproduction():
    rows = catalog.table1_report()
    ok = all(row["match"] for row in rows)
    branch_8 = [catalog.instantiate("T4,6", lam).derivations()[0]
                for lam in (G(1), G(-2), G(Fraction(-1, 2)))]
    branch_6 = [catalog.instantiate("T4,6", lam).derivations()[0]
                for lam in (G(2), G(3), G(5), QI_I)]
    ok = ok and branch_8 == [8, 8, 8] and branch_6 == [6, 6, 6, 6]
    _report(2, "derivation dimensions match the published table, both family branches", ok)


def test_criterion_03_cohomology_dimensions(t21, t31, t32):
    ok = True
    for system, dims in ((t21, (2, 0, 2)), (t31, (8, 0, 8)), (t32, (4, 1, 3))):
        z3 = cocycle_space(system)
        b3 = coboundary_space(system)
        h3, _reps = cohomology(system)
        ok = ok and (z3.dim, b3.dim, h3) == dims

    def D(system, coeffs):
        return Cocycle(system, coeffs)

    # the returned bases reduce to the printed spans
    ok = ok and cocycle_space(t21).coordinates == span_coordinates(t21, [
        D(t21, {(1, 2, 1): 1}), D(t21, {(1, 2, 2): 1})])
    ok = ok and cocycle_space(t31).coordinates == span_coordinates(t31, [
        D(t31, {(1, 2, 1): 1}), D(t31, {(1, 2, 2): 1}), D(t31, {(1, 3, 1): 1}),
        D(t31, {(1, 3, 3): 1}), D(t31, {(2, 3, 2): 1}), D(t31, {(2, 3, 3): 1}),
        D(t31, {(1, 2, 3): 1, (1, 3, 2): 1}), D(t31, {(2, 3, 1): 1, (1, 3, 2): 1})])
    ok = ok and cocycle_space(t32).coordinates == span_coordinates(t32, [
        D(t32, {(1, 2, 1): 1}), D(t32, {(1, 2, 2): 1}), D(t32, {(1, 3, 1): 1}),
        D(t32, {(1, 2, 3): 1, (1, 3, 2): 1})])
    ok = ok and coboundary_space(t32).coordinates == span_coordinates(
        t32, [D(t32, {(1, 2, 1): 1})])
    h3, reps = cohomology(t32)
    b3 = coboundary_space(t32)
    width = len(delta_indices(3))
    lhs = Subspace(width, [c.coordinates() for c in reps.basis] + list(b3.coordinates))
    rhs = Subspace(width, [c.coordinates() for c in (
        D(t32, {(1, 2, 2): 1}), D(t32, {(1, 3, 1): 1}),
        D(t32, {(1, 2, 3): 1, (1, 3, 2): 1}))] + list(b3.coordinates))
    ok = ok and lhs == rhs
    _report(3, "Z3/B3/H3 dimensions and printed spans for T2,1 / T3,1 / T3,2", ok)


def test_criterion_04_extension_reconstructions(t21, t31, t32):
    def D(system, coeffs):
        return Cocycle(system, coeffs)

    ok = extend(ExtensionSpec(t21, [D(t21, {(1, 2, 1): 1})])) == catalog.instantiate("T3,2")
    ok = ok and extend(ExtensionSpec(
        t21, [D(t21, {(1, 2, 1): 1}), D(t21, {(1, 2, 2): 1})])) == catalog.instantiate("T4,3")
    ok = ok and extend(ExtensionSpec(
        t31, [D(t31, {(2, 3, 2): 1, (1, 3, 3): -1})])).fingerprint() == (
        catalog.instantiate("T4,4").fingerprint())
    pairs = [
        ({(1, 2, 3): 1, (1, 3, 2): 1}, "T4,7"),
        ({(1, 3, 1): 1, (1, 2, 2): 1}, "T4,8"),
        ({(1, 3, 1): 1}, "T4,9"),
    ]
    for coeffs, name in pairs:
        built = extend(ExtensionSpec(t32, [D(t32, coeffs)]))
        ok = ok and built.fingerprint() == catalog.instantiate(name).fingerprint()
    _report(4, "annihilator extensions rebuild T3,2 / T4,3 / T4,4 / T4,7 / T4,8 / T4,9", ok)


def test_criterion_05_a_theta_equivariance(t31):
    rng = ExactRandom(2024)
    z3 = cocycle_space(t31)
    ok = True
    for _ in range(50):
        phi = rng.invertible(3, height=5)
        theta = rng.cocycle(z3)
        lhs = a_theta(aut_action(phi, theta, check=False))
        det = reference_determinant([list(r) for r in phi])
        rhs = mat_mul(mat_mul(mat_inverse(phi), a_theta(theta)), phi)
        rhs = [[det * x for x in row] for row in rhs]
        ok = ok and lhs == rhs
        ok = ok and sum(lhs[k][k] for k in range(3)) == 0
    _report(5, "a-matrix equivariance det(phi) phi^-1 A phi and zero trace, 50 cases", ok)


def test_criterion_06_family_isomorphisms():
    ok = True
    for k in (2, 3, 4, 5, 6):
        for lam in (G(2), G(3), G(5)):
            target, witness = catalog.family_isomorphism(k, lam)
            moved = catalog.instantiate("T4,6", lam).change_basis(witness)
            ok = ok and moved == catalog.instantiate("T4,6", target)
    for lam in (G(2), G(3), G(5), QI_I):
        value = catalog.xi(lam)
        for other in catalog.lambda_orbit(lam):
            ok = ok and catalog.xi(other) == value
    # the expected value comes from evaluating the closed form exactly
    lam = Fraction(2)
    oracle = Fraction((lam * lam + lam + 1) ** 3) / (lam * lam * (lam + 1) ** 2)
    ok = ok and oracle == Fraction(343, 36)
    ok = ok and catalog.xi(G(2)) == oracle and catalog.xi(G(Fraction(1, 2))) == oracle
    # for every lambda at once: the same checks as identities over Q(i)(t)
    t = RationalFunction.variable()
    generic = catalog.instantiate("T4,6", t)
    for k in range(1, 7):
        target, witness = catalog.family_isomorphism(k, t)
        ok = ok and generic.change_basis(witness) == catalog.instantiate("T4,6", target)
        ok = ok and catalog.xi(target) == catalog.xi(t)
    _report(6, "sigma_1..sigma_6 exact witnesses and xi orbit equality, sampled and at "
               "symbolic lambda; xi(2) = 343/36", ok)


def test_criterion_07_degeneration_suite():
    ok = True
    for row in range(1, 14):
        start = time.monotonic()
        report = dg.verify_degeneration(dg.table2_witness(row))
        elapsed = time.monotonic() - start
        ok = ok and report.ok and elapsed < 1.0
    start = time.monotonic()
    family = dg.verify_degeneration(dg.table4_witness())
    ok = ok and family.ok and (time.monotonic() - start) < 1.0
    _report(7, "all 13 degeneration rows plus the family row verify, each under 1s", ok)


def test_criterion_08_non_degeneration_evidence():
    ok = True
    sampled = [G(2), G(3), G(5), QI_I]
    members = [catalog.instantiate("T4,6", lam) for lam in sampled]

    # row 1: separating set for T4,7 -/-> T4,5, family members; L rank 2 < 3
    r1, t47 = dg.table3_separating_set(1), catalog.instantiate("T4,7")
    ok = ok and r1.contains(t47)
    ok = ok and dg.borel_stability_evidence(r1, "symbolic").ok
    for target in [catalog.instantiate("T4,5")] + members:
        report = dg.necessary_conditions(t47, target)
        ok = ok and not r1.contains(target) and report.values["L"] == (2, 3)
        ok = ok and "L flattening rank increases" in report.violations

    # row 2: per fixed lambda outside the orbit of 1; the relative invariant
    t461 = catalog.instantiate("T4,6", G(1))
    for lam, member in zip(sampled, members):
        r2 = dg.table3_separating_set(2, lam)
        ok = ok and r2.contains(member) and not r2.contains(t461)
        ok = ok and dg.borel_stability_evidence(r2, "symbolic").ok
        report = dg.necessary_conditions(member, t461)
        ok = ok and report.values["relative"] != 0 and not report.relative_ok

    # row 3: T4,9 -/-> T4,3; Z rank 1 < 2
    r3 = dg.table3_separating_set(3)
    t49, t43 = catalog.instantiate("T4,9"), catalog.instantiate("T4,3")
    ok = ok and r3.contains(t49) and not r3.contains(t43)
    ok = ok and dg.borel_stability_evidence(r3, "symbolic").ok
    report = dg.necessary_conditions(t49, t43)
    ok = ok and report.values["Z"] == (1, 2) and "Z flattening rank increases" in report.violations

    # rows 4 and 5: certified by the necessary-condition corollary, part (2)
    for target in (t49, t43):
        report = dg.necessary_conditions(catalog.instantiate("T4,5"), target)
        ok = ok and not report.derived_ok and report.certifies_non_degeneration
        for member in members:
            report = dg.necessary_conditions(member, target)
            ok = ok and not report.derived_ok and report.certifies_non_degeneration

    # the family table row: membership for every sampled member, stability,
    # and dim [T,T,T] <= 1, a closed condition, on the whole family closure
    r5 = dg.table5_separating_set()
    for lam in sampled + [G(0), G(-1)]:
        member = catalog.instantiate("T4,6", lam)
        ok = ok and r5.contains(member)
        for target in (t49, t43):
            report = dg.necessary_conditions(member, target)
            ok = ok and "derived subspace dimension increases" in report.closure_violations
    ok = ok and dg.borel_stability_evidence(r5, "symbolic").ok
    ok = ok and not r5.contains(t49) and not r5.contains(t43)
    _report(8, "all non-degeneration rows pass their listed evidence checks", ok)


def test_criterion_09_graph_assembly():
    graph4 = dg.degeneration_graph(4)
    # a returned graph is consistent: degeneration_graph raises InconsistentGraph otherwise
    ok = graph4.maximal == ["T4,6*", "T4,7"]
    expected_edges = {
        ("T4,7", "T4,6^0"), ("T4,7", "T4,8"), ("T4,5", "T4,6^1"), ("T4,5", "T4,4"),
        ("T4,8", "T4,3"), ("T4,8", "T4,9"), ("T4,8", "T4,4"), ("T4,4", "T4,2"),
        ("T4,9", "T4,2"), ("T4,3", "T4,2"), ("T4,2", "T4,1"), ("T4,6^1", "T4,2"),
        ("T4,6*", "T4,4"), ("T4,6*", "T4,5"), ("T4,6*", "T4,6^0"), ("T4,6*", "T4,6^1"),
    }
    ok = ok and set(graph4.edge_pairs()) == expected_edges
    graph3 = dg.degeneration_graph(3)
    ok = ok and graph3.maximal == ["T3,2"]
    ok = ok and graph3.node("T3,2").orbit_dim == 4
    _report(9, "diagram edges reproduced; maximal nodes {T4,7, T4,6*} and {T3,2}", ok)


class TestCriterion10PropertySuites:
    CASES = 200

    def test_part_a_randomized_axioms(self):
        rng = ExactRandom(3001)
        pool = [catalog.instantiate(n) for n in ("T2,1", "T3,2", "T4,5", "T4,7", "T4,8")]
        pool.append(catalog.instantiate("T4,6", G(3)))
        ok = True
        for _ in range(self.CASES):
            system = rng.rng.choice(pool)
            n = system.dim
            x, y, z, u, v = (rng.vector(n, 4) for _ in range(5))
            ok = ok and all(a + b == 0 for a, b in zip(lts_eval(system, x, y, z),
                                                       lts_eval(system, y, x, z)))
            ok = ok and all(a + b + c == 0 for a, b, c in zip(
                lts_eval(system, x, y, z), lts_eval(system, y, z, x),
                lts_eval(system, z, x, y)))
            lhs = lts_eval(system, u, v, lts_eval(system, x, y, z))
            r1 = lts_eval(system, lts_eval(system, u, v, x), y, z)
            r2 = lts_eval(system, x, lts_eval(system, u, v, y), z)
            r3 = lts_eval(system, x, y, lts_eval(system, u, v, z))
            ok = ok and all(a == b + c + d for a, b, c, d in zip(lhs, r1, r2, r3))
        _report(10, "part a: 200 randomized (A1)/(A2)/(A3) trilinear checks", ok)

    def test_part_b_cohomologous_extensions(self):
        rng = ExactRandom(3002)
        bases = [catalog.instantiate("T2,1")] * 6 + \
                [catalog.instantiate("T3,2")] * 3 + [catalog.instantiate("T3,1")]
        spaces = {id(b): cocycle_space(b) for b in set(bases)}
        ok = True
        for case in range(self.CASES):
            base = bases[case % len(bases)]
            theta = rng.cocycle(spaces[id(base)])
            shift = coboundary_of(base, rng.functional(base.dim))
            a = extend(ExtensionSpec(base, [theta]))
            b = extend(ExtensionSpec(base, [theta + shift]))
            ok = ok and a.fingerprint() == b.fingerprint()
        _report(10, "part b: 200 cohomologous extension pairs share fingerprints", ok)

    def test_part_c_fingerprint_invariance(self):
        rng = ExactRandom(3003)
        pool = [catalog.instantiate(n) for n in
                ("T2,1", "T3,1", "T3,2", "T3,2", "T3,2")]
        dim4 = [catalog.instantiate(n) for n in ("T4,4", "T4,7", "T4,9")]
        dim4.append(catalog.instantiate("T4,6", G(2)))
        ok = True
        for case in range(self.CASES):
            if case % 4 == 3:
                system = dim4[(case // 4) % len(dim4)]
            else:
                system = pool[case % len(pool)]
            moved = system.change_basis(rng.unimodularish(system.dim))
            ok = ok and moved.fingerprint() == system.fingerprint()
        _report(10, "part c: 200 basis changes leave fingerprints fixed", ok)

    def test_part_d_transport_functoriality(self):
        rng = ExactRandom(3004)
        t = RationalFunction.variable()
        systems = [catalog.instantiate("T3,2"), catalog.instantiate("T3,1")]
        samples = [Fraction(1), Fraction(1, 2)]
        ok = True
        for case in range(self.CASES):
            system = systems[case % 2]
            n = system.dim
            first = _random_basis(rng, n, t)
            second = _random_basis(rng, n, t)
            once = dg.transport_constants(system, first)
            then = dg.transport_constants(Lts(once), second)
            combined = dg.transport_constants(
                system, dg.ParametrizedBasis(mat_mul(second.rows, first.rows)))
            for t0 in samples:
                i, j, k, p = (rng.rng.randrange(n) for _ in range(4))
                lhs = RationalFunction.of(then[i][j][k][p]).evaluate_at(t0)
                rhs = RationalFunction.of(combined[i][j][k][p]).evaluate_at(t0)
                ok = ok and lhs == rhs
        _report(10, "part d: 200 transport compositions agree at sampled t", ok)


def _random_basis(rng, n, t):
    rows = [[RationalFunction.of(x) for x in row] for row in rng.unimodularish(n, steps=4)]
    for i in range(n):
        power = rng.rng.randint(-2, 2)
        rows[i] = [x * t ** power for x in rows[i]]
    return dg.ParametrizedBasis(rows)
