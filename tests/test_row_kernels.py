"""Row-reading invariants against the dense basis-vector loops they replaced.

The reference implementations below are the earlier code paths: the
nilpotency series built from ``lts_eval`` on unit vectors, the completion that
iterated to a fixpoint over all dim^3 triples, the n^5 ``lts_from_lie``, the
``aut_action`` that evaluated the cochain on the columns of phi at every
(i, j, k), B^3 pushed through ``coboundary_of`` as n integer functionals, and
the radical meet of an extension built by intersecting Ann(base) with each
radical, read off ``value`` at every (i, j, k), in turn.  The
library reads only nonzero rows and must give the same results exactly.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ExactRandom,
    T32_EXTENSIONS,
    cochain_eval,
    kernel_radical,
    lts_eval,
    reference_radical,
    sparse_rows,
    t32_extension,
)
from lietriple import catalog
from lietriple.cohomology import (
    CochainSpace,
    Cocycle,
    aut_action,
    coboundary_of,
    coboundary_space,
    cocycle_space,
    delta_indices,
)
from lietriple.core import Lts, NilpotencyReport, complete_table, lts_from_lie
from lietriple.errors import InconsistentTable, MalformedInput, NotALieAlgebra
from lietriple.extension import _radical_meet
from lietriple.linalg import Subspace, mat_inverse, nullspace
from lietriple.scalars import QI_ZERO, GaussianRational, coerce, parse_scalar, scalar_str


# ---------------------------------------------------------------------------
# reference implementations


def reference_nilpotency(system):
    n = system.dim
    one = system._zero + 1
    units = [[one if c == i else system._zero for c in range(n)] for i in range(n)]
    current = Subspace(n, units)
    series = [current]
    nilpotent = True
    while current.dim > 0:
        vectors = []
        for v in current.basis:
            for y in units:
                for z in units:
                    w = lts_eval(system, v, y, z)
                    if any(x != 0 for x in w):
                        vectors.append(w)
        nxt = Subspace(n, vectors)
        if nxt.dim == current.dim:
            nilpotent = False
            break
        current = nxt
        series.append(current)
    return NilpotencyReport(nilpotent, len(series) - 1 if nilpotent else None, tuple(series))


def reference_completion(dim, generators):
    """The fixpoint completion, returned before the axiom check."""
    known = {}

    def set_value(i, j, k, vec):
        if (i, j, k) in known:
            if known[(i, j, k)] != vec:
                raise InconsistentTable(
                    f"conflicting values for [e{i+1},e{j+1},e{k+1}]: "
                    f"{[scalar_str(x) if isinstance(x, GaussianRational) else str(x) for x in known[(i, j, k)]]} vs "
                    f"{[scalar_str(x) if isinstance(x, GaussianRational) else str(x) for x in vec]}"
                )
            return False
        known[(i, j, k)] = vec
        return True

    for (i, j, k), vec in generators.items():
        if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
            raise MalformedInput("products", f"index out of range in ({i},{j},{k})")
        if i == j:
            raise InconsistentTable(f"generator ({i},{j},{k}) must have i != j")
        v = tuple(coerce(x) for x in vec)
        if len(v) != dim:
            raise MalformedInput("products", f"value for ({i},{j},{k}) must have length {dim}")
        set_value(i - 1, j - 1, k - 1, v)
        set_value(j - 1, i - 1, k - 1, tuple(-x for x in v))

    changed = True
    while changed:
        changed = False
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    cyc = (i, j, k), (j, k, i), (k, i, j)
                    missing = [t for t in cyc if t[0] != t[1] and t not in known]
                    if len(missing) != 1:
                        continue
                    total = [QI_ZERO] * dim
                    for t in cyc:
                        if t in known:
                            total = [a + b for a, b in zip(total, known[t])]
                    forced = tuple(-x for x in total)
                    mi, mj, mk = missing[0]
                    if set_value(mi, mj, mk, forced):
                        changed = True
                    if set_value(mj, mi, mk, tuple(-x for x in forced)):
                        changed = True
    return Lts.from_rows(dim, {key: dict(enumerate(vec)) for key, vec in known.items()})


def unchecked_completion(dim, generators):
    """``complete_table`` with its closing axiom check left out."""
    with mock.patch.object(Lts, "require_axioms", lambda self: self):
        return complete_table(dim, generators)


def reference_lts_from_lie(bracket):
    n = len(bracket)
    b = [[[coerce(x) for x in bracket[i][j]] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if any(x + y != 0 for x, y in zip(b[i][j], b[j][i])):
                raise NotALieAlgebra(f"bracket not antisymmetric at ({i+1},{j+1})")
    rows = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = rows.setdefault((i, j, k), {})
                for p in range(n):
                    if b[i][j][p] != 0:
                        for q in range(n):
                            row[q] = row.get(q, QI_ZERO) + b[i][j][p] * b[p][k][q]
    system = Lts.from_rows(n, rows)
    report = system.check_axioms()
    if not report.ok:
        raise NotALieAlgebra("Jacobi identity fails at ({},{},{})".format(*report.indices))
    return system


def reference_aut_action(phi, theta):
    n = theta.ambient.dim
    cols = [[phi[a][i] for a in range(n)] for i in range(n)]
    coeffs = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, n + 1):
                val = cochain_eval(theta, cols[i - 1], cols[j - 1], cols[k - 1])
                if val != 0:
                    coeffs[(i, j, k)] = val
    return Cocycle(theta.ambient, coeffs)


def reference_coboundary_space(system):
    n = system.dim
    vectors = []
    for p in range(n):
        functional = [1 if q == p else 0 for q in range(n)]
        vectors.append(coboundary_of(system, functional).coordinates())
    return CochainSpace(system, vectors)


def reference_intersection(u, w):
    """u ∩ w from the solutions of a.U = b.W across the two spans."""
    if u.dim == 0 or w.dim == 0:
        return Subspace(u.ambient)
    rows = [[row[c] for row in u.basis] + [-row[c] for row in w.basis]
            for c in range(u.ambient)]
    vectors = []
    for sol in nullspace(sparse_rows(rows), u.dim + w.dim):
        vec = [QI_ZERO] * u.ambient
        for k, row in enumerate(u.basis):
            vec = [x + sol[k] * y for x, y in zip(vec, row)]
        vectors.append(vec)
    return Subspace(u.ambient, vectors)


def reference_radical_meet(spec):
    meet = spec.base.annihilator()
    for theta in spec.thetas:
        meet = reference_intersection(meet, reference_radical(theta))
    return meet


# ---------------------------------------------------------------------------
# inputs


def sl2_bracket():
    # basis (e, f, h): [e,f] = h, [h,e] = 2e, [h,f] = -2f
    b = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]
    b[0][1], b[1][0] = [0, 0, 1], [0, 0, -1]
    b[2][0], b[0][2] = [2, 0, 0], [-2, 0, 0]
    b[2][1], b[1][2] = [0, -2, 0], [0, 2, 0]
    return b


def bracket_from(n, products):
    """Dense bracket from {(i, j): {p: value}}, 0-based, extended antisymmetrically."""
    b = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), row in products.items():
        for p, val in row.items():
            b[i][j][p], b[j][i][p] = val, -val
    return b


def conjugate_bracket(b, g):
    """g [g^-1 x, g^-1 y], dense."""
    n = len(b)
    h = mat_inverse([[coerce(x) for x in row] for row in g])
    out = [[[QI_ZERO] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for c in range(n):
            for q in range(n):
                if b[a][c][q] == 0:
                    continue
                for i in range(n):
                    for j in range(n):
                        coeff = h[a][i] * h[c][j] * b[a][c][q]
                        for p in range(n):
                            out[i][j][p] = out[i][j][p] + coeff * g[p][q]
    return out


LIE_ALGEBRAS = {
    "sl2": sl2_bracket(),
    "heisenberg": bracket_from(3, {(0, 1): {2: 1}}),
    "affine line": bracket_from(2, {(0, 1): {1: 1}}),
    "sl2 + abelian": bracket_from(4, {(0, 1): {2: 1}, (2, 0): {0: 2}, (2, 1): {1: -2}}),
    "filiform 4": bracket_from(4, {(0, 1): {2: 1}, (0, 2): {3: 1}}),
    "abelian 3": bracket_from(3, {}),
}

MEMBERS = [(name, None) for name, entry in catalog.ENTRIES.items() if not entry.family] + [
    ("T4,6", lam) for lam in ("2", "1", "0", "-1", "1/2*i")]


def systems():
    """Every catalog entry, five family members, seeded dense conjugates and sl2."""
    out = {f"{name}^{lam}" if lam else name:
           catalog.instantiate(name, None if lam is None else parse_scalar(lam))
           for name, lam in MEMBERS}
    out["sl2"] = lts_from_lie(sl2_bracket())
    for seed, name in enumerate(("T3,2", "T4,5", "T4,6^1", "T4,8", "T4,9", "sl2")):
        g = ExactRandom(seed).invertible(out[name].dim, height=2)
        out[f"{name} dense {seed}"] = out[name].change_basis(g)
    return out


SYSTEMS = systems()


def cochains(system, seed):
    """Z^3 basis vectors (closed) and seeded cochains that need not be closed."""
    rng = ExactRandom(seed)
    idx = delta_indices(system.dim)
    out = list(cocycle_space(system).basis)
    for _ in range(2):
        out.append(Cocycle(system, {t: rng.gaussian(height=3) for t in idx
                                    if rng.rng.random() < 0.4}))
    return out


# ---------------------------------------------------------------------------
# agreement


@pytest.mark.parametrize("name", SYSTEMS)
def test_nilpotency_agrees(name):
    system = SYSTEMS[name]
    got, expected = system.nilpotency(), reference_nilpotency(system)
    assert (got.is_nilpotent, got.index) == (expected.is_nilpotent, expected.index)
    assert got.series == expected.series


@pytest.mark.parametrize("name,lam", MEMBERS)
def test_completion_agrees_on_catalog_generators(name, lam):
    entry = catalog.ENTRIES[name]
    lam = None if lam is None else parse_scalar(lam)
    generators = entry.generators(lam)
    got = unchecked_completion(entry.dim, generators)
    assert got == reference_completion(entry.dim, generators) == catalog.instantiate(name, lam)


@pytest.mark.parametrize("name", SYSTEMS)
def test_completion_agrees_on_every_generator_row(name):
    """Each i < j row as a generator: both complete to the system itself."""
    system = SYSTEMS[name]
    generators = {(i + 1, j + 1, k + 1): system.product(i + 1, j + 1, k + 1)
                  for i, j, k in system.rows() if i < j}
    assert unchecked_completion(system.dim, generators) == \
        reference_completion(system.dim, generators) == system


@pytest.mark.parametrize("generators", [
    {(1, 2, 3): [0, 0, 1], (2, 1, 3): [0, 0, 1]},
    {(1, 2, 3): [1, 0, 0], (2, 1, 3): [-1, 0, 0], (1, 2, 1): [0, 0, 2], (2, 1, 1): [0, 0, 3]},
    {(1, 1, 2): [1, 0, 0]},
    {(1, 2, 4): [1, 0, 0]},
    {(1, 2, 3): [1, 0]},
])
def test_completion_refusals_agree(generators):
    with pytest.raises((InconsistentTable, MalformedInput)) as expected:
        reference_completion(3, generators)
    with pytest.raises(expected.type) as got:
        complete_table(3, generators)
    assert str(got.value) == str(expected.value)


@st.composite
def generator_sets(draw):
    """(dim, generators); a product given in both orders mostly agrees with (A1)."""
    dim = draw(st.integers(2, 4))
    index = st.integers(1, dim)
    triples = st.tuples(index, index, index).filter(lambda t: t[0] != t[1])
    values = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    generators = draw(st.dictionaries(triples, values, min_size=2, max_size=14))
    for (i, j, k), vec in generators.items():
        if i < j and (j, i, k) in generators and draw(st.integers(0, 3)):
            generators[(j, i, k)] = [-x for x in vec]
    return dim, generators


@settings(max_examples=200, deadline=None)
@given(generator_sets())
def test_single_pass_completion_matches_the_fixpoint(case):
    dim, generators = case
    try:
        expected = reference_completion(dim, generators)
    except InconsistentTable as exc:
        with pytest.raises(InconsistentTable) as got:
            unchecked_completion(dim, generators)
        assert str(got.value) == str(exc)
        return
    assert unchecked_completion(dim, generators) == expected


def _lie_inputs():
    out = dict(LIE_ALGEBRAS)
    for seed, name in enumerate(("sl2", "heisenberg", "sl2 + abelian", "filiform 4")):
        b = LIE_ALGEBRAS[name]
        out[f"{name} dense {seed}"] = conjugate_bracket(b, ExactRandom(seed).invertible(len(b), 2))
    return out


LIE_INPUTS = _lie_inputs()


@pytest.mark.parametrize("name", LIE_INPUTS)
def test_lts_from_lie_agrees(name):
    assert lts_from_lie(LIE_INPUTS[name]) == reference_lts_from_lie(LIE_INPUTS[name])


@pytest.mark.parametrize("bracket", [
    bracket_from(3, {(0, 1): {2: 1}, (0, 2): {0: 1}}),  # Jacobi fails
    [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],  # not antisymmetric
], ids=["jacobi", "antisymmetry"])
def test_lts_from_lie_refusals_agree(bracket):
    with pytest.raises(NotALieAlgebra) as expected:
        reference_lts_from_lie(bracket)
    with pytest.raises(NotALieAlgebra) as got:
        lts_from_lie(bracket)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("name", SYSTEMS)
def test_aut_action_agrees(name):
    system = SYSTEMS[name]
    n = system.dim
    rng = ExactRandom(len(name))
    minus_one = [[GaussianRational(-1 if a == b else 0) for b in range(n)] for a in range(n)]
    for theta in cochains(system, len(name)):
        phi = rng.invertible(n, height=2)
        assert aut_action(phi, theta, check=False) == reference_aut_action(phi, theta)
        assert aut_action(minus_one, theta) == reference_aut_action(minus_one, theta)


@pytest.mark.parametrize("name", SYSTEMS)
def test_radical_agrees(name):
    system = SYSTEMS[name]
    for theta in cochains(system, 7 * len(name)):
        assert kernel_radical(theta) == reference_radical(theta)


@pytest.mark.parametrize("name", SYSTEMS)
def test_coboundary_space_agrees(name):
    system = SYSTEMS[name]
    got, expected = coboundary_space(system), reference_coboundary_space(system)
    assert got.coordinates == expected.coordinates
    assert all(c.check_closed()[0] for c in got.basis)


def test_radical_meet_agrees(seeded_specs):
    specs = seeded_specs + [(name, t32_extension(name)) for name in T32_EXTENSIONS]
    for label, spec in specs:
        assert _radical_meet(spec) == reference_radical_meet(spec), label
    # the one published case whose meet needs Ann(base): Rad D[1,3,1] = <e2>
    assert reference_radical(t32_extension("T4,9").thetas[0]).dim == 1
