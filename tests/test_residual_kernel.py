"""Z^3 and Der(T) from the library's kernels against hand-written equation builders.

``cocycle_space`` reads the (B2)/(B3) equations off the axiom residuals of one
extension that carries every elementary cochain, and ``Lts.derivations`` reads
its equations off the infinitesimal action E_ab . mu.  The references below
are the earlier builders: ``reference_b2_rows`` and ``reference_b3_rows`` write
the cocycle conditions out by index, and ``reference_derivations`` writes the
Leibniz rule out constant by constant.  Both routes must give the same
canonical bases, entry for entry.  The references read every product as
given, so they also hold on rows that break (A1), where the library may not
drop mirrored equations.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ExactRandom, sparse_rows
from lietriple import catalog
from lietriple.cohomology import Cocycle, cocycle_space, delta_indices
from lietriple.core import Lts, direct_sum
from lietriple.linalg import nullspace
from lietriple.scalars import QI_ZERO, GaussianRational

G = GaussianRational


def reference_b2_rows(system, idx_pos):
    n = system.dim
    rows = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                row = [QI_ZERO] * len(idx_pos)
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    if a == b:
                        continue
                    if a < b:
                        row[idx_pos[(a, b, c)]] = row[idx_pos[(a, b, c)]] + 1
                    else:
                        row[idx_pos[(b, a, c)]] = row[idx_pos[(b, a, c)]] - 1
                if any(x != 0 for x in row):
                    rows[tuple(row)] = None
    return rows


def reference_b3_rows(system, idx_pos):
    n = system.dim
    forms = {}  # 1-based (u, v, x, y, z) -> {position: coefficient}

    def add_value(key, a, b, c, scale):
        # contribute scale * theta(e_a, e_b, e_c) to the form at key
        if a == b:
            return
        if a < b:
            pos = idx_pos[(a, b, c)]
        else:
            pos, scale = idx_pos[(b, a, c)], -scale
        form = forms.setdefault(key, {})
        form[pos] = form[pos] + scale if pos in form else scale

    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    every = range(1, n + 1)
    for (a, b, c), row in system.rows().items():
        a, b, c = a + 1, b + 1, c + 1
        for p, s in row.items():
            p += 1
            for u, v in pairs:  # theta(u, v, [x, y, z]) with (x, y, z) = (a, b, c)
                add_value((u, v, a, b, c), u, v, p, s)
            if a < b:  # -[u, v, w] with (u, v, w) = (a, b, c), in each slot
                for s1 in every:
                    for s2 in every:
                        add_value((a, b, c, s1, s2), p, s1, s2, -s)
                        add_value((a, b, s1, c, s2), s1, p, s2, -s)
                        add_value((a, b, s1, s2, c), s1, s2, p, -s)
    rows = {}
    for key in sorted(forms):
        row = [QI_ZERO] * len(idx_pos)
        for pos, val in forms[key].items():
            row[pos] = val
        if any(w != 0 for w in row):
            rows[tuple(row)] = None
    return rows


def reference_cocycle_coordinates(system):
    idx = delta_indices(system.dim)
    idx_pos = {t: pos for pos, t in enumerate(idx)}
    rows = reference_b2_rows(system, idx_pos)
    rows.update(reference_b3_rows(system, idx_pos))
    return nullspace(sparse_rows(rows), len(idx))


def reference_derivations(system):
    n = system.dim

    def unknown(a, b):
        return a * n + b

    forms = {}  # (i, j, k, p) -> {unknown: coefficient}

    def add(key, pos, val):
        form = forms.setdefault(key, {})
        form[pos] = form[pos] + val if pos in form else val

    for i, j, k, p, val in system.nonzero_entries():
        for a in range(n):
            add((i, j, k, a), unknown(a, p), val)    # (D[e_i,e_j,e_k])_a
            add((a, j, k, p), unknown(i, a), -val)   # [D e_a, e_j, e_k]
            add((i, a, k, p), unknown(j, a), -val)   # [e_i, D e_a, e_k]
            add((i, j, a, p), unknown(k, a), -val)   # [e_i, e_j, D e_a]
    rows = []
    for key in sorted(forms):
        row = [QI_ZERO] * (n * n)
        for pos, val in forms[key].items():
            row[pos] = val
        if any(x != 0 for x in row):
            rows.append(row)
    basis_vectors = nullspace(sparse_rows(rows), n * n)
    matrices = [[[vec[unknown(a, b)] for b in range(n)] for a in range(n)]
                for vec in basis_vectors]
    return len(matrices), matrices


def _conjugate(name, lam=None, seed=0):
    system = catalog.instantiate(name, lam)
    n = system.dim
    moved = system.change_basis(ExactRandom(seed).invertible(n, height=3))
    assert sum(1 for _ in moved.nonzero_entries()) == n * (n - 1) * n * n  # dense off i = j
    return moved


FAMILY = [G(0), G(1), G(-1), G(2), G(0, 1) / 3]
CONJUGATES = [("T3,2", None), ("T4,3", None), ("T4,5", None), ("T4,7", None),
              ("T4,8", None), ("T4,9", None), ("T4,6", G(2) / 3)]

SYSTEMS = (
    [(name, lambda name=name: catalog.instantiate(name))
     for name, entry in catalog.ENTRIES.items() if not entry.family]
    + [(f"T4,6 at {lam}", lambda lam=lam: catalog.instantiate("T4,6", lam)) for lam in FAMILY]
    + [("T3,2+T1,1", lambda: direct_sum(catalog.instantiate("T3,2"),
                                        catalog.instantiate("T1,1")))]
    + [(f"conjugate of {name}" + (f" at {lam}" if lam is not None else ""),
        lambda name=name, lam=lam, seed=seed: _conjugate(name, lam, seed))
       for seed, (name, lam) in enumerate(CONJUGATES, start=31)]
    + [(f"abelian {d}", lambda d=d: Lts.from_rows(d, {})) for d in (5, 6, 7)]
    + [("T4,8+T1,1", lambda: direct_sum(catalog.instantiate("T4,8"),
                                        catalog.instantiate("T1,1")))]
)


@pytest.mark.parametrize("label,build", SYSTEMS, ids=[label for label, _ in SYSTEMS])
def test_cocycle_space_matches_the_written_out_conditions(label, build):
    system = build()
    assert cocycle_space(system).coordinates == reference_cocycle_coordinates(system)


@pytest.mark.parametrize("label,build", SYSTEMS, ids=[label for label, _ in SYSTEMS])
def test_derivations_match_the_written_out_leibniz_rule(label, build):
    system = build()
    assert system.derivations() == reference_derivations(system)


def _without_a1(name, key):
    """The entry with one more product, e3 at the 0-based ``key``, and no (A1) partner."""
    system = catalog.instantiate(name)
    rows = dict(system.rows())
    rows[key] = {2: G(1)}
    return Lts.from_rows(system.dim, rows)


@pytest.mark.parametrize("key", [(0, 1, 2), (1, 0, 2), (0, 0, 1)])
@pytest.mark.parametrize("name", ["T3,1", "T3,2", "T4,8"])
def test_systems_without_a1_read_every_equation(name, key):
    # the mirrored equations coincide only under (A1): here none may be dropped
    system = _without_a1(name, key)
    assert system.derivations() == reference_derivations(system)
    assert cocycle_space(system).coordinates == reference_cocycle_coordinates(system)


_CLOSED_CASES = [("T2,1", None), ("T3,1", None), ("T3,2", None), ("T4,3", None),
                 ("T4,8", None), ("T4,9", None), ("T4,6", G(2))]


@functools.cache
def _space(case):
    return cocycle_space(catalog.instantiate(*case))


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(_CLOSED_CASES), seed=st.integers(0, 10**6),
       perturb=st.booleans())
def test_check_closed_agrees_with_membership_in_z3(case, seed, perturb):
    space = _space(case)
    rng = ExactRandom(seed)
    coeffs = dict(rng.cocycle(space).coeffs)
    if perturb:
        t = rng.rng.choice(delta_indices(space.ambient.dim))
        coeffs[t] = coeffs.get(t, QI_ZERO) + rng.nonzero_gaussian(height=3)
    theta = Cocycle(space.ambient, coeffs)
    ok, _ = theta.check_closed()
    assert ok == space.contains(theta)
