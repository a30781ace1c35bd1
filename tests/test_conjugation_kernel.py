"""The sparse conjugation kernel against the dense loops it replaced.

The reference implementations below are the earlier code paths: the dense
``change_basis_tensor`` loop, the transport that lifted all n^4 constants to
Q(i)(t) and inverted twice, and the reduction of a rational function by a full
polynomial gcd.  The kernel reads only nonzero rows and must give the same
tensors exactly.  Transport runs the kernel on packed Gaussian-integer
polynomials and must give the rows of ``reference_transported_rows``, the
kernel over Q(i)(t).  The Lie-algebra action of the Borel check is pinned to
the kernel as the derivative at t = 0 of the conjugation by I + t E_xy.
"""

import itertools
import json
import sys
from fractions import Fraction

import pytest

from conftest import ExactRandom, general_path_witness, reference_transported_rows
from lietriple import catalog, scalars
from lietriple import degeneration as dg
from lietriple.core import Lts, _conjugate_rows, change_basis_tensor
from lietriple.linalg import mat_inverse
from lietriple.scalars import (
    GaussianRational,
    Polynomial,
    RationalFunction,
    parse_rational_function,
    parse_scalar,
    poly_gcd,
)

G = GaussianRational
T = RationalFunction.variable()


def reference_change_basis_tensor(constants, g):
    """Dense g*mu: every nonzero constant spread over all n^4 target cells."""
    source = constants if isinstance(constants, Lts) else Lts(constants)
    n = source.dim
    g = [[G.of(x) if isinstance(x, (int, Fraction)) else x for x in row] for row in g]
    h = mat_inverse(g)
    zero = g[0][0] * 0
    out = [[[[zero for _ in range(n)] for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for a, b, cc, q, val in source.nonzero_entries():
        gcol = [g[p][q] * val for p in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    f = h[a][i] * h[b][j] * h[cc][k]
                    for p in range(n):
                        out[i][j][k][p] = out[i][j][k][p] + f * gcol[p]
    return out


def reference_transport(system, basis):
    """All n^4 constants lifted to Q(i)(t), conjugated by (A^T)^{-1}."""
    n = system.dim
    lifted = [[[[RationalFunction.of(system.constant(i + 1, j + 1, k + 1, p + 1))
                 for p in range(n)] for k in range(n)] for j in range(n)] for i in range(n)]
    g = mat_inverse([[basis.rows[j][i] for j in range(n)] for i in range(n)])
    return reference_change_basis_tensor(lifted, g)


def reference_lie_action(rows, n, x, y):
    """((g*v - v)/t) at t = 0 for g = I + t E_xy, through the kernel over Q(i)(t)."""
    zero = RationalFunction.of(0)
    g = [[(zero + 1 if i == j else zero) + (T if (i, j) == (x, y) else zero)
          for j in range(n)] for i in range(n)]
    lifted = {key: {p: RationalFunction.of(val) for p, val in row.items()}
              for key, row in rows.items()}
    moved = _conjugate_rows(lifted, mat_inverse(g), g)
    out = {}
    for key in set(moved) | set(lifted):
        before, after = lifted.get(key, {}), moved.get(key, {})
        for p in set(before) | set(after):
            value = ((after.get(p, zero) - before.get(p, zero)) / T).limit_at_zero()
            if value:
                out.setdefault(key, {})[p] = value
    return out


def reference_reduce(num, den):
    """Canonical (num, den): divide out the monic gcd, make den monic."""
    if not num:
        return Polynomial(), Polynomial.of(1)
    g = poly_gcd(num, den)
    num, den = num // g, den // g
    inv = den.lead.inverse()
    return num * inv, den * inv


def assert_same_tensor(got, expected):
    n = len(expected)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for p in range(n):
                    assert got[i][j][k][p] == expected[i][j][k][p], (i, j, k, p)


MEMBERS = [(name, None) for name, entry in catalog.ENTRIES.items() if not entry.family] + [
    ("T4,6", lam) for lam in ("2", "1", "0", "-1", "1/2*i")]


@pytest.mark.parametrize("name,lam", MEMBERS)
def test_change_basis_agrees_on_catalog(name, lam):
    system = catalog.instantiate(name, None if lam is None else parse_scalar(lam))
    rng = ExactRandom(sum(map(ord, f"{name}{lam}")))
    for g in (rng.invertible(system.dim, height=3), rng.unimodularish(system.dim)):
        expected = reference_change_basis_tensor(system, g)
        assert_same_tensor(change_basis_tensor(system, g), expected)
        assert system.change_basis(g) == Lts(expected)


def test_change_basis_agrees_on_a_dense_input():
    rng = ExactRandom(17)
    dense = change_basis_tensor(catalog.instantiate("T3,2"), rng.invertible(3, height=3))
    g = rng.invertible(3, height=2)
    assert_same_tensor(change_basis_tensor(dense, g), reference_change_basis_tensor(dense, g))


def builtin_witnesses():
    rows = [dg.table2_witness(row) for row in range(1, len(dg.TABLE2_WITNESSES) + 1)]
    rows.append(dg.table2_witness(13, lam=GaussianRational(0, 1)))
    return rows + [dg.table4_witness(), dg.witness_from_dict(dg.DIM3_WITNESS)]


@pytest.mark.parametrize("witness", builtin_witnesses(), ids=lambda w: w.label)
def test_transport_agrees_on_builtin_witnesses(witness):
    source = witness.source_system()
    assert_same_tensor(dg.transport_constants(source, witness.basis),
                       reference_transport(source, witness.basis))


def test_transport_agrees_on_the_family_source():
    # the index (1-t)/(1+t) puts non-Laurent constants into the source itself
    witness = dg.table4_witness()
    source = witness.source_system()
    assert any(not val.is_constant for *_, val in source.nonzero_entries())
    basis = random_laurent_basis(ExactRandom(5), 4)
    assert_same_tensor(dg.transport_constants(source, basis),
                       reference_transport(source, basis))


def random_laurent_basis(rng, n):
    """Invertible matrix of monomials c*t^k, -2 <= k <= 2, off the diagonal mostly zero."""
    while True:
        rows = [[rng.gaussian(height=3) * T ** rng.rng.randint(-2, 2)
                 if rng.rng.random() < 0.25 or i == j else RationalFunction.of(0)
                 for j in range(n)] for i in range(n)]
        if not any(rows[i][j] for i in range(n) for j in range(n) if i != j):
            continue
        try:
            return dg.ParametrizedBasis(rows)
        except dg.SingularBasis:
            continue


@pytest.mark.parametrize("name", ["T3,2", "T4,3", "T4,5", "T4,7", "T4,8"])
def test_transport_agrees_on_random_laurent_bases(name):
    system = catalog.instantiate(name)
    basis = random_laurent_basis(ExactRandom(sum(map(ord, name))), system.dim)
    assert_same_tensor(dg.transport_constants(system, basis),
                       reference_transport(system, basis))


def assert_packed_transport_agrees(witness, monkeypatch):
    """The same rows as the kernel over Q(i)(t), and the same verdict, on
    whichever path verifies the witness, as the general path on those rows."""
    source = witness.source_system()
    assert dg._transported_rows(source, witness.basis) == \
        reference_transported_rows(source, witness.basis), witness.label
    problems = dg.verify_degeneration(witness).problems
    general = general_path_witness(witness)
    with monkeypatch.context() as patch:
        patch.setattr(dg, "_transported_rows", reference_transported_rows)
        assert problems == dg.verify_degeneration(general).problems, witness.label


BUILTIN_DOCUMENTS = dg.TABLE2_WITNESSES + [dg.TABLE4_WITNESS, dg.DIM3_WITNESS]


def witness_document(source, target, basis):
    return {"source": {"name": source}, "target": {"name": target}, "basis": basis}


def diagonal(*entries):
    return [[x if i == j else "0" for j in range(len(entries))] for i, x in enumerate(entries)]


EDGE_DOCUMENTS = {
    "abelian source, no rows": witness_document("T4,1", "T4,1", diagonal("t", "1/t", "1+t", "i")),
    "gaussian entries": witness_document("T4,8", "T4,4", [
        ["0", "0", "1/t", "0"], ["0", "-i", "0", "0"], ["(1+i)*t", "0", "0", "0"],
        ["0", "0", "i/2", "t"]]),
    "zero beside monomial quotients": witness_document("T4,7", "T4,8", [
        ["1", "0", "1/t^3", "0"], ["0", "1/t", "0", "t^2"], ["0", "0", "t/2", "0"],
        ["0", "0", "0", "1/t^4"]]),
    "1/(1+t)": witness_document("T4,2", "T4,1", diagonal("1+t", "1/(1+t)", "t", "t")),
    "t/(1-t)^20, (1+i*t)^30": witness_document("T4,9", "T4,2", [
        ["(1+i*t)^30", "t", "0", "0"], ["0", "t/(1-t)^20", "0", "0"], ["0", "0", "t", "3/7"],
        ["0", "0", "0", "1"]]),
    "t^30, t^-30": witness_document("T4,2", "T4,1", diagonal("t^30", "t^-30", "t", "t")),
}


@pytest.mark.parametrize("doc", BUILTIN_DOCUMENTS, ids=lambda d: dg.witness_from_dict(d).label)
def test_packed_transport_agrees_on_builtin_witnesses(doc, monkeypatch):
    assert_packed_transport_agrees(dg.witness_from_dict(doc), monkeypatch)


@pytest.mark.parametrize("factor", ["2", "1/t"])
def test_packed_transport_agrees_on_wrong_witnesses(factor, monkeypatch):
    # each built-in witness with one basis row scaled, row by row
    for doc in BUILTIN_DOCUMENTS:
        for row in range(len(doc["basis"])):
            bad = json.loads(json.dumps(doc))
            bad["basis"][row] = [x if x == "0" else f"({factor})*({x})" for x in bad["basis"][row]]
            assert_packed_transport_agrees(dg.witness_from_dict(bad), monkeypatch)


@pytest.mark.parametrize("doc", list(EDGE_DOCUMENTS.values()), ids=list(EDGE_DOCUMENTS))
def test_packed_transport_agrees_on_edge_witnesses(doc, monkeypatch):
    assert_packed_transport_agrees(dg.witness_from_dict(doc), monkeypatch)


def test_packed_transport_agrees_on_rows_over_q_i_t():
    witness = dg.table2_witness(11)
    once = Lts.from_rows(4, dg._transported_rows(witness.source_system(), witness.basis))
    for seed in range(3):
        basis = random_laurent_basis(ExactRandom(seed), 4)
        assert dg._transported_rows(once, basis) == reference_transported_rows(once, basis)


@pytest.mark.parametrize("entry", ["3", "3*i/t"])
def test_transport_packing_width_has_no_spare_bit(entry):
    # transport takes any trilinear product; in dimension 1 the one output
    # digit is h^3 g c over the cleared entries, 3^3 * 1 * 5 = 135 up to sign
    # (g is 1/3 or -i*t/3, cleared to 1 or -i), the bound n^4 M_h^3 M_g M_r
    # itself, so it needs the width's top bit and a packing one bit narrower misreads it
    system = Lts.from_rows(1, {(0, 0, 0): {0: G(5)}})
    basis = dg.ParametrizedBasis([[parse_rational_function(entry)]])
    h = basis.rows[0][0]
    moved = dg._transported_rows(system, basis)
    assert moved == reference_transported_rows(system, basis) == {(0, 0, 0): {0: h * h * 5}}


@pytest.mark.parametrize("row", range(1, len(dg.TABLE2_WITNESSES) + 1))
def test_verification_multiplies_no_rational_functions(row, monkeypatch):
    witness = dg.table2_witness(row)
    witness.source_system(), witness.target_system()
    calls = []
    multiply = RationalFunction.__mul__

    def counted(self, other):
        calls.append(other)
        return multiply(self, other)

    monkeypatch.setattr(RationalFunction, "__mul__", counted)
    assert dg.verify_degeneration(witness).ok
    assert not calls


@pytest.mark.parametrize("row", range(1, len(dg.TABLE2_WITNESSES) + 1))
def test_witness_bases_are_built_without_q_i_t_division(row, monkeypatch):
    # parsing and inverting a basis stay over Q(i) and Z[i][t]: no module of
    # the package calls mat_inverse on a matrix over Q(i)(t), and no rational
    # function is divided; g0 of a Cartan form is inverted over Q(i)
    doc = dg.TABLE2_WITNESSES[row - 1]
    witness = dg.witness_from_dict(doc)
    witness.source_system(), witness.target_system()
    calls = []

    def refused(name, original, over_q_i_t=lambda *args: True):
        def call(*args):
            if over_q_i_t(*args):
                calls.append(name)
            return original(*args)
        return call

    def has_rational_functions(matrix):
        return any(isinstance(x, RationalFunction) for row in matrix for x in row)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "lietriple"]:
        if hasattr(module, "mat_inverse"):
            monkeypatch.setattr(module, "mat_inverse", refused(
                "mat_inverse", module.mat_inverse, has_rational_functions))
    monkeypatch.setattr(RationalFunction, "__truediv__",
                        refused("__truediv__", RationalFunction.__truediv__))
    monkeypatch.setattr(scalars, "_parsed", {})  # the basis is parsed again, not remembered
    assert dg.verify_degeneration(dg.witness_from_dict(doc)).ok
    assert not calls


BOREL_SETS = [
    dg.table3_separating_set(1), dg.table3_separating_set(2, G(2)),
    dg.table3_separating_set(2, G(-1)), dg.table3_separating_set(3),
    dg.table5_separating_set(),
]


@pytest.mark.parametrize("separating", BOREL_SETS, ids=lambda s: s.label)
def test_kernel_agrees_on_the_symbolic_borel_point(separating):
    # every basis vector moved by every lower-triangular matrix unit
    n = separating.dim
    vectors = separating.basis()
    assert vectors
    for vector in vectors:
        for x in range(n):
            for y in range(x + 1):
                assert dg._lie_action(vector, x, y) == reference_lie_action(vector, n, x, y), \
                    (vector, x, y)


PASSING_SETS = BOREL_SETS + [
    dg.table3_separating_set(2, lam) for lam in (G(0), G(3), G(0, 1), G(1, 3))
] + [
    dg.table5_separating_set(literal=True),
    # c_4441 = 0 and every other constant free: row 4 of g and column 1 of g^-1 are diagonal
    dg.SeparatingSet(4, [((4, 4, 4, 1), (4, 4, 4, 1), 0)], zero_otherwise=False,
                     label="c_4441 = 0, otherwise free"),
]


@pytest.mark.parametrize("separating", PASSING_SETS, ids=lambda s: s.label)
def test_borel_pass_survives_random_lower_triangular_changes(separating):
    # soundness of the Lie-algebra proof: group elements keep the locus too;
    # a free locus also moves the point with every free constant set, which
    # covers the constants that ``basis`` leaves out
    assert dg.borel_stability_evidence(separating).ok
    n = separating.dim
    vectors = separating.basis()
    if not separating.zero_otherwise:
        support = {(i - 1, j - 1, k - 1, p - 1) for i, j, k, p in separating.support}
        free = {}
        for i, j, k, p in itertools.product(range(n), repeat=4):
            if (i, j, k, p) not in support:
                free.setdefault((i, j, k), {})[p] = G(1)
        vectors.append(free)
    rng = ExactRandom(sum(map(ord, separating.label)))
    for _ in range(4):
        g = [[rng.nonzero_gaussian(height=3) if i == j else
              rng.gaussian(height=3) if j < i else G(0) for j in range(n)] for i in range(n)]
        h = mat_inverse(g)
        for vector in vectors:
            assert separating.first_violation(_conjugate_rows(vector, h, g)) is None


def polys():
    t = Polynomial.variable()
    c = Polynomial.of
    return {
        "zero": Polynomial(),
        "constant": c(G(3, -2)),
        "t": t,
        "t^3": t * t * t,
        "2i*t^2": c(G(0, 2)) * t * t,
        "t^2+t^4": t * t + t * t * t * t,
        "1+t": c(1) + t,
        "(1+t)(2-t)t": (c(1) + t) * (c(2) - t) * t,
        "(1-t)^2": (c(1) - t) * (c(1) - t),
        "3t^5-1/2*t^2": c(3) * t * t * t * t * t - c(Fraction(1, 2)) * t * t,
    }


@pytest.mark.parametrize("num_name", list(polys()))
@pytest.mark.parametrize("den_name", [name for name in polys() if name != "zero"])
def test_fast_reduction_matches_the_gcd(num_name, den_name):
    table = polys()
    num, den = table[num_name], table[den_name]
    f = RationalFunction(num, den)
    assert (f.num, f.den) == reference_reduce(num, den)


def test_scalar_comparison_reads_constants():
    assert RationalFunction.of(G(2, 1)) == G(2, 1)
    assert RationalFunction.of(0) == 0 and not RationalFunction.of(0)
    assert T != 0 and T * T / T == T
    assert (T + 1) / (T + 1) == 1
    assert RationalFunction(Polynomial.of(2), Polynomial.of(4)) == Fraction(1, 2)
