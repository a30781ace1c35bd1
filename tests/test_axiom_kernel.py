"""The sparse axiom kernel against exhaustive dense scans.

``reference_check_axioms`` and ``reference_check_closed`` scan every index
tuple of the dense tensor in lexicographic order.  The kernel, which reads
only nonzero rows, must report the same first failing identity, the same
indices and the same residual.
"""

import functools
import itertools
import math
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ExactRandom, cochain_eval, oracle_rank
from lietriple import catalog, core
from lietriple.errors import AxiomViolation
from lietriple.cohomology import Cocycle, cocycle_space, delta_indices
from lietriple.core import Lts, complete_table, lts_from_dict
from lietriple.packed import _packed_gaussian_rows
from lietriple.scalars import GaussianRational, RationalFunction


def dense(system):
    n = system.dim
    return [[[system.product(i + 1, j + 1, k + 1) for k in range(n)]
             for j in range(n)] for i in range(n)]


def _a3_residual(c, n, u, v, x, y, z):
    inner = c[x][y][z]
    lhs = [sum((inner[p] * c[u][v][p][q] for p in range(n) if inner[p] != 0), start=inner[0] * 0)
           for q in range(n)]
    t1 = c[u][v][x]
    r1 = [sum((t1[p] * c[p][y][z][q] for p in range(n) if t1[p] != 0), start=t1[0] * 0)
          for q in range(n)]
    t2 = c[u][v][y]
    r2 = [sum((t2[p] * c[x][p][z][q] for p in range(n) if t2[p] != 0), start=t2[0] * 0)
          for q in range(n)]
    t3 = c[u][v][z]
    r3 = [sum((t3[p] * c[x][y][p][q] for p in range(n) if t3[p] != 0), start=t3[0] * 0)
          for q in range(n)]
    return [a - b - d - e for a, b, d, e in zip(lhs, r1, r2, r3)]


def reference_check_axioms(system):
    """(identity, indices, residual) of the first failure in a full scan, or None."""
    n = system.dim
    c = dense(system)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                res = [a + b for a, b in zip(c[i][j][k], c[j][i][k])]
                if any(x != 0 for x in res):
                    return "A1", (i + 1, j + 1, k + 1), tuple(res)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                res = [a + b + d for a, b, d in zip(c[i][j][k], c[j][k][i], c[k][i][j])]
                if any(x != 0 for x in res):
                    return "A2", (i + 1, j + 1, k + 1), tuple(res)
    for u in range(n):
        for v in range(u + 1, n):
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        res = _a3_residual(c, n, u, v, x, y, z)
                        if any(w != 0 for w in res):
                            return "A3", (u + 1, v + 1, x + 1, y + 1, z + 1), tuple(res)
    return None


def reference_check_closed(theta):
    """(B2|B3, indices) of the first failure in a full scan, or None."""
    ambient = theta.ambient
    n = ambient.dim
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if theta.value(i, j, k) + theta.value(j, k, i) + theta.value(k, i, j) != 0:
                    return "B2", (i, j, k)
    basis = [[1 if c == i else 0 for c in range(n)] for i in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        inner = ambient.product(x + 1, y + 1, z + 1)
                        px = ambient.product(v + 1, u + 1, x + 1)
                        py = ambient.product(v + 1, u + 1, y + 1)
                        pz = ambient.product(v + 1, u + 1, z + 1)
                        total = cochain_eval(theta, basis[u], basis[v], inner)
                        total = total + cochain_eval(theta, px, basis[y], basis[z])
                        total = total + cochain_eval(theta, basis[x], py, basis[z])
                        total = total + cochain_eval(theta, basis[x], basis[y], pz)
                        if total != 0:
                            return "B3", (u + 1, v + 1, x + 1, y + 1, z + 1)
    return None


def kernel_failure(tensor):
    report = Lts(tensor).check_axioms()
    if report.ok:
        return None
    return report.identity, report.indices, report.residual


def assert_same(tensor):
    got = kernel_failure(tensor)
    assert got == reference_check_axioms(Lts(tensor))
    return None if got is None else got[0]


def perturb(tensor, kind, rng, delta=None):
    """Copy of ``tensor`` with one product changed so that (A<kind>) is the target."""
    n = len(tensor)
    out = [[[list(row) for row in plane] for plane in block] for block in tensor]
    if delta is None:
        delta = GaussianRational(rng.rng.choice([-2, -1, 1, 3]), rng.rng.choice([0, 0, 1]))
    p = rng.rng.randrange(n)
    if kind == "A1":  # one constant alone breaks antisymmetry
        i, j, k = (rng.rng.randrange(n) for _ in range(3))
        out[i][j][k][p] = out[i][j][k][p] + delta
        return out
    i, j = rng.rng.sample(range(n), 2)
    if kind == "A2":  # antisymmetric change with i, j, k distinct
        k = rng.rng.choice([t for t in range(n) if t not in (i, j)])
    else:  # [e_i, e_j, e_i] keeps (A1) and (A2); (A3) may break
        k = i
    out[i][j][k][p] = out[i][j][k][p] + delta
    out[j][i][k][p] = out[j][i][k][p] - delta
    return out


CATALOG = [(name, None) for name, entry in catalog.ENTRIES.items()
           if not entry.family and entry.dim >= 3] + [("T4,6", 2), ("T4,6", -3)]


@pytest.mark.parametrize("name,lam", CATALOG)
def test_perturbed_catalog_tensors(name, lam):
    system = catalog.instantiate(name, None if lam is None else GaussianRational(lam))
    base = dense(system)
    assert assert_same(base) is None
    rng = ExactRandom(sum(map(ord, name)) + (lam or 0))
    for kind in ("A1", "A2", "A3"):
        for _ in range(3):
            assert_same(perturb(base, kind, rng))


def test_perturbations_reach_every_identity():
    rng = ExactRandom(5)
    seen = set()
    for name in ("T3,2", "T4,5", "T4,8", "T4,9"):
        base = dense(catalog.instantiate(name))
        for kind in ("A1", "A2", "A3"):
            for _ in range(4):
                seen.add(assert_same(perturb(base, kind, rng)))
    assert {"A1", "A2", "A3"} <= seen


@pytest.mark.parametrize("name,seed", [("T3,2", 1), ("T4,5", 2), ("T4,8", 3), ("T4,9", 4)])
def test_seeded_dense_conjugates(name, seed):
    rng = ExactRandom(seed)
    system = catalog.instantiate(name)
    moved = system.change_basis(rng.invertible(system.dim, height=3))
    base = dense(moved)
    assert sum(x != 0 for block in base for plane in block for row in plane for x in row) > \
        sum(1 for _ in system.nonzero_entries())
    assert assert_same(base) is None
    for kind in ("A1", "A2", "A3"):
        assert_same(perturb(base, kind, rng))


def _closed_pair(theta):
    got = theta.check_closed()
    expected = reference_check_closed(Cocycle(theta.ambient, dict(theta.coeffs)))
    assert got == ((True, None) if expected is None else (False, expected))
    return None if expected is None else expected[0]


@pytest.mark.parametrize("name", ["T3,2", "T4,8"])
def test_non_closed_cochains(name):
    system = catalog.instantiate(name)
    rng = ExactRandom(41)
    idx = delta_indices(system.dim)
    seen = set()
    for _ in range(12):  # sparse random cochains: mostly (B2) failures
        coeffs = {t: GaussianRational(rng.rng.randint(-3, 3), rng.rng.choice([0, 1]))
                  for t in rng.rng.sample(idx, rng.rng.randint(1, 3))}
        seen.add(_closed_pair(Cocycle(system, coeffs)))
    z3 = cocycle_space(system)
    for theta in z3.basis:  # cocycles, then cocycles plus a (B2)-preserving change
        assert _closed_pair(Cocycle(system, dict(theta.coeffs))) is None
        i, j, k = rng.rng.choice([t for t in idx if t[2] == t[0]])  # theta(e_i, e_j, e_i)
        coeffs = dict(theta.coeffs)
        coeffs[(i, j, k)] = coeffs.get((i, j, k), 0) + 1
        seen.add(_closed_pair(Cocycle(system, coeffs)))
    assert {"B2", "B3"} <= seen


def test_closedness_needs_an_lts_ambient():
    base = perturb(dense(catalog.instantiate("T3,2")), "A3", ExactRandom(7))
    expected = reference_check_axioms(Lts(base))
    assert expected is not None
    with pytest.raises(AxiomViolation) as err:
        Cocycle(Lts(base), {(1, 2, 1): 1}).check_closed()
    assert (err.value.identity, err.value.indices, err.value.residual) == expected


# ---------------------------------------------------------------------------
# Q(i) rows run the kernel on packed Gaussian integers; other fields do not

LARGE_HEIGHT = Fraction(2 ** 70 + 1, 3 ** 30)


@pytest.mark.parametrize("lam", [GaussianRational(LARGE_HEIGHT),
                                 GaussianRational(LARGE_HEIGHT, Fraction(2 ** 69 - 7, 3 ** 30))])
def test_large_height_members(lam):
    rng = ExactRandom(70)
    system = catalog.instantiate("T4,6", lam)
    base = dense(system.change_basis(rng.invertible(4, height=3)))
    assert assert_same(base) is None
    for kind in ("A1", "A2", "A3"):
        for _ in range(2):
            assert_same(perturb(base, kind, rng))
            assert_same(perturb(base, kind, rng, delta=lam / 7))


def test_half_gaussian_denominators():
    # (1 + i)/2 squares to i/2: products cancel more than the lcm of the
    # denominators shows, and the residual must come back reduced
    half = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    g = [[1, half, 0, half.conjugate()], [0, 1, half, 0], [0, 0, 1, -half], [0, 0, 0, 1]]
    rng = ExactRandom(2)
    for name in ("T4,5", "T4,8", "T4,9"):
        base = dense(catalog.instantiate(name).change_basis(g))
        assert assert_same(base) is None
        for kind in ("A1", "A2", "A3"):
            for delta in (half, half * half, half.conjugate() / 3):
                assert_same(perturb(base, kind, rng, delta=delta))


# A dimension-3 sign tensor that satisfies (A1) and (A2); its first failing
# (A3) cell, (1, 2, 1, 3, 1), has the integer residual (0, 8, -3).
SIGN_GENERATORS = {
    (1, 2, 1): [-1, 1, 0], (1, 2, 2): [1, 1, 0], (1, 2, 3): [0, -1, -1],
    (1, 3, 1): [1, 1, -1], (1, 3, 2): [1, -1, 0], (1, 3, 3): [-1, 0, 0],
    (2, 3, 1): [1, 0, 1], (2, 3, 2): [0, 1, 1], (2, 3, 3): [1, 0, 0],
}


def test_packing_width_has_no_spare_bit():
    # every entry is M(1 + i) times a sign, so each product is 2M^2 i times a
    # sign and the failing coordinate is c1 = 16M^2 of the bound 8nM^2 = 24M^2;
    # M puts 24M^2 just under a power of two, so c1 needs the width's top bit
    # and a packing one bit narrower misreads it
    n, m = 3, 1180000
    tensor = [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for (i, j, k), vec in SIGN_GENERATORS.items():
        tensor[i - 1][j - 1][k - 1] = [GaussianRational(m * x, m * x) for x in vec]
        tensor[j - 1][i - 1][k - 1] = [GaussianRational(-m * x, -m * x) for x in vec]
    failure = kernel_failure(tensor)
    assert failure == reference_check_axioms(Lts(tensor))
    identity, indices, residual = failure
    assert (identity, indices) == ("A3", (1, 2, 1, 3, 1))
    assert residual == (0, GaussianRational(0, 16 * m * m), GaussianRational(0, -6 * m * m))
    _, scale, width = _packed_gaussian_rows(n, Lts(tensor).rows())
    assert scale == 1 and 8 * n * m * m < 2 ** (width - 1)
    assert 2 ** (width - 2) <= 16 * m * m < 2 ** (width - 1)


def lane_tensor(generators, m):
    """Dense dimension-3 tensor whose product [e_i, e_j, e_k], i < j, has the
    coordinates m * (a + b*i) for the pairs (a, b) of generators[(i, j, k)],
    and whose product [e_j, e_i, e_k] is its negative."""
    n = 3
    tensor = [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for (i, j, k), vec in generators.items():
        tensor[i - 1][j - 1][k - 1] = [GaussianRational(m * a, m * b) for a, b in vec]
        tensor[j - 1][i - 1][k - 1] = [GaussianRational(-m * a, -m * b) for a, b in vec]
    return tensor


# Two systems that satisfy (A1) and (A2), with entries m * (a + b*i), |a|, |b| <= 1,
# and the digits (real, imaginary) of their first failing cell per coordinate.
# In the first, the imaginary digit of e_1 is 8m^2 and the real digit of e_2
# next to it is -8m^2.  In the second, the imaginary digit of e_2, -15m^2,
# needs the width's top bit, sits above a positive digit, and its borrow
# crosses into the negative real digit of e_3.
BORROW_GENERATORS = [
    ({(1, 2, 1): [(1, -1), (1, 1), (1, 1)], (1, 2, 2): [(1, -1), (1, -1), (1, -1)],
      (1, 2, 3): [(0, -1), (0, -1), (0, 1)], (1, 3, 1): [(1, -1), (1, 1), (0, 0)],
      (1, 3, 2): [(1, 0), (-1, 0), (0, 0)], (1, 3, 3): [(0, 0), (1, 1), (-1, -1)],
      (2, 3, 1): [(1, 1), (-1, 1), (0, -1)], (2, 3, 2): [(1, 0), (1, 0), (-1, -1)],
      (2, 3, 3): [(0, -1), (1, 1), (-1, -1)]},
     (1, 2, 1, 2, 1), ((0, 8), (-8, 0), (-3, -1)), False),
    ({(1, 2, 1): [(-1, 1), (1, -1), (0, 0)], (1, 2, 2): [(-1, -1), (1, -1), (0, 0)],
      (1, 2, 3): [(-1, 1), (0, 1), (-1, 1)], (1, 3, 1): [(1, -1), (1, -1), (-1, -1)],
      (1, 3, 2): [(0, 0), (-1, 1), (0, 0)], (1, 3, 3): [(-1, 1), (-1, -1), (0, -1)],
      (2, 3, 1): [(1, -1), (-1, 0), (1, -1)], (2, 3, 2): [(-1, -1), (0, 1), (-1, 1)],
      (2, 3, 3): [(-1, -1), (-1, -1), (1, -1)]},
     (1, 2, 1, 3, 1), ((1, -1), (1, -15), (-4, 2)), True),
]


@pytest.mark.parametrize("generators,indices,digits,top_bit", BORROW_GENERATORS)
def test_failing_cell_read_back_across_lanes(generators, indices, digits, top_bit):
    # m is the width test's: 24m^2 is just under 2^45, so the width is 46 bits
    m = 1180000
    tensor = lane_tensor(generators, m)
    failure = kernel_failure(tensor)
    assert failure == reference_check_axioms(Lts(tensor))
    assert failure[:2] == ("A3", indices)
    assert failure[2] == tuple(GaussianRational(a * m * m, b * m * m) for a, b in digits)
    _, scale, width = _packed_gaussian_rows(3, Lts(tensor).rows())
    assert scale == 1 and width == 46
    largest = max(abs(x) for pair in digits for x in pair) * m * m
    assert largest < 2 ** (width - 1) and (largest >= 2 ** (width - 2)) == top_bit


def test_products_that_cancel_only_through_i_squared():
    # T3,2 in the basis e_1, e_2, e_3 + i*e_1 satisfies the axioms, but the real
    # parts of its constants alone break (A3): there the sum of the a'a and the
    # sum of the b'b are equal and nonzero.  Lanes hold a'a - b'b, so those
    # cells are the int 0.
    g = [[1, 0, GaussianRational(0, 1)], [0, 1, 0], [0, 0, 1]]
    base = dense(catalog.instantiate("T3,2").change_basis(g))
    assert assert_same(base) is None
    real = [[[[x.re for x in row] for row in plane] for plane in block] for block in base]
    assert any(any(_a3_residual(real, 3, *cell)) for cell in itertools.product(range(3), repeat=5))
    rng = ExactRandom(32)
    for kind in ("A1", "A2", "A3"):
        assert_same(perturb(base, kind, rng))


def test_rational_function_rows_take_the_generic_path():
    system = complete_table(4, catalog._family_generators(RationalFunction.variable()))
    assert system.check_axioms().ok
    assert _packed_gaussian_rows(4, system.rows()) is None
    base = dense(system)
    rng = ExactRandom(46)
    seen = set()
    for kind in ("A1", "A2", "A3"):
        for _ in range(2):
            tensor = perturb(base, kind, rng, delta=RationalFunction.variable() + rng.rng.choice([1, 2]))
            seen.add(assert_same(tensor))
    assert {"A1", "A2", "A3"} <= seen


# -- (A3) at the pairs whose ad(u, v) span the inner derivations -----------------

GOLDEN = Path(__file__).resolve().parent / "golden"


def _kernel_without_full_scan(monkeypatch):
    """Patch the axiom kernel to raise on a scan of every (A3) pair; returns the
    list that collects the pair lists it is given."""
    kernel, seen = core._axiom_residuals, []

    def listed_only(rows, lanes=None, pairs=None):
        if pairs is None:
            raise AssertionError("(A3) scanned at every pair")
        seen.append(list(pairs))
        return kernel(rows, lanes, pairs)

    monkeypatch.setattr(core, "_axiom_residuals", listed_only)
    return seen


@pytest.mark.parametrize("case", ["dense-document", "family-table"])
def test_a_passing_system_reads_a3_at_its_kept_pairs_only(monkeypatch, case):
    seen = _kernel_without_full_scan(monkeypatch)
    if case == "dense-document":  # over Q(i): the lanes
        system = lts_from_dict(json.loads((GOLDEN / "input_t4_9_dense.json").read_text()))
    else:  # over Q(i)(t): the rows as they are
        system = complete_table(4, catalog._family_generators(RationalFunction.variable()))
    assert system.check_axioms().ok
    pairs = system._inner_pairs()
    assert seen == [pairs]
    assert len(pairs) == system.flattening_ranks()[0]
    nonzero = {(u, v) for u, v, _ in system.rows() if u < v}
    assert len(pairs) < len(nonzero) if case == "dense-document" else len(pairs) == len(nonzero)


def _full_l_rank(system):
    """Rank of L with every (i, j) row read, by the fraction-free oracle."""
    n, table = system.dim, {}
    for i, j, k, p, val in system.nonzero_entries():
        table.setdefault((i, j), [0] * n * n)[k * n + p] = val
    return oracle_rank(list(table.values()))


_CONJUGATED = [("T3,2", None), ("T4,2", None), ("T4,5", None), ("T4,8", None), ("T4,9", None),
               ("T4,6", 2), ("T4,6", GaussianRational(1, 1))]


@functools.cache
def _dense_conjugate(case, seed):
    system = catalog.instantiate(*case)
    return dense(system.change_basis(ExactRandom(seed).invertible(system.dim, height=2)))


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(_CONJUGATED), seed=st.integers(0, 2), data=st.data())
def test_perturbations_that_keep_a1_and_a2_get_the_full_scan_report(case, seed, data):
    # delta at (i,j,k) and (k,j,i), minus delta at (j,i,k) and (j,k,i): (A1) and (A2)
    # still hold, and (A3) mostly fails; the first failing pair is always a kept one,
    # so no input scans every pair
    tensor = [[[list(row) for row in plane] for plane in block]
              for block in _dense_conjugate(case, seed)]
    n = len(tensor)
    i, j, k, p = (data.draw(st.integers(0, n - 1)) for _ in range(4))
    delta = GaussianRational(data.draw(st.integers(-3, 3).filter(bool)),
                             data.draw(st.integers(-1, 1)))
    for (a, b, c), sign in (((i, j, k), 1), ((k, j, i), 1), ((j, i, k), -1), ((j, k, i), -1)):
        tensor[a][b][c][p] += sign * delta
    system = Lts(tensor)
    assert system._satisfies_a1()
    with pytest.MonkeyPatch.context() as monkeypatch:
        seen = _kernel_without_full_scan(monkeypatch)
        failure = kernel_failure(tensor)
    assert seen == [system._inner_pairs()]
    assert failure == reference_check_axioms(system)
    assert failure is None or failure[0] == "A3"
    assert system.flattening_ranks()[0] == _full_l_rank(system)


def test_a3_is_read_at_x_below_y_once_a1_holds():
    # the kernel skips (u, v, y, x, z), minus the cell at (u, v, x, y, z), only under (A1)
    tensor = _dense_conjugate(("T4,9", None), 0)
    a3_cells = lambda t: [idx for identity, idx, _ in core._axiom_residuals(Lts(t).rows())
                          if identity == "A3"]
    assert a3_cells(tensor) and all(x < y for _, _, x, y, _ in a3_cells(tensor))
    broken = perturb(tensor, "A1", ExactRandom(3))
    assert any(x >= y for _, _, x, y, _ in a3_cells(broken))


# -- (A1) settled before the kernel yields a cell ---------------------------------

def plain_failure(system):
    """The first nonzero cell of a full kernel run on the rows as they are, no lanes."""
    for identity, indices, cell in core._axiom_residuals(system.rows()):
        if any(cell.values()):
            residual = tuple(cell.get(q, GaussianRational(0)) for q in range(system.dim))
            return identity, tuple(x + 1 for x in indices), residual
    return None


@settings(max_examples=90, deadline=None)
@given(case=st.sampled_from(_CONJUGATED), seed=st.integers(0, 2),
       kind=st.sampled_from(["A1", "A2", "A3"]), data=st.data())
def test_perturbations_of_one_identity_get_the_dense_scan_report(case, seed, kind, data):
    # one constant changed breaks (A1) at a random row; an antisymmetric change at a
    # distinct triple keeps (A1) and breaks (A2); one at (i, j, i) keeps both, and (A3)
    # may fail.  The checked report and the full kernel, on lanes and on plain rows,
    # all give the dense scan's first failure.
    tensor = [[[list(row) for row in plane] for plane in block]
              for block in _dense_conjugate(case, seed)]
    n = len(tensor)
    index = st.integers(0, n - 1)
    p = data.draw(index)
    delta = GaussianRational(data.draw(st.integers(-3, 3).filter(bool)),
                             data.draw(st.integers(-1, 1)))
    if kind == "A1":
        changes = [((data.draw(index), data.draw(index), data.draw(index)), 1)]
    else:
        i = data.draw(index)
        j = data.draw(st.sampled_from([t for t in range(n) if t != i]))
        k = data.draw(st.sampled_from([t for t in range(n) if t not in (i, j)])) \
            if kind == "A2" else i
        changes = [((i, j, k), 1), ((j, i, k), -1)]
    for (a, b, c), sign in changes:
        tensor[a][b][c][p] += sign * delta
    system = Lts(tensor)
    expected = reference_check_axioms(system)
    assert system._satisfies_a1() == (kind != "A1")
    assert kernel_failure(tensor) == expected
    assert core.first_axiom_failure(n, system.rows()) == expected
    assert plain_failure(system) == expected
    assert (expected is None and kind == "A3") or expected[0] == kind


@pytest.mark.parametrize("packed", [True, False], ids=["lanes", "rows"])
@pytest.mark.parametrize("case", [("T4,9", None), ("T4,6", GaussianRational(1, 1))])
def test_a_system_that_satisfies_a1_yields_no_a1_cell(case, packed):
    def cells(system):
        rows, lanes = system.rows(), None
        if packed:
            (rows, lanes), _, _ = _packed_gaussian_rows(system.dim, rows)
        return list(core._axiom_residuals(rows, lanes))

    base = catalog.instantiate(*case)
    for system in (base.change_basis(ExactRandom(5).invertible(4, height=2)),
                   core.direct_sum(base, catalog.instantiate("T2,1")).change_basis(
                       ExactRandom(6).invertible(6, height=1))):
        read = cells(system)
        a2 = [indices for identity, indices, _ in read if identity == "A2"]
        assert all(identity != "A1" for identity, _, _ in read)
        assert all(i < j < k for i, j, k in a2)
        assert len(a2) == len(set(a2)) <= math.comb(system.dim, 3)
        assert {tuple(sorted(key)) for key in system.rows() if len(set(key)) == 3} == set(a2)
    # a system that breaks (A1) has every (A1) cell read, and its first one reported
    broken = perturb(_dense_conjugate(case, 1), "A1", ExactRandom(9))
    expected = reference_check_axioms(Lts(broken))
    assert expected[0] == "A1"
    read = cells(Lts(broken))
    assert [identity for identity, _, _ in read][0] == "A1"
    assert core.first_axiom_failure(4, Lts(broken).rows()) == expected
    assert plain_failure(Lts(broken)) == expected
