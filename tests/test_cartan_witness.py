"""Witnesses of Cartan form A(t) = diag(t^u) g0 diag(t^v), checked over Q(i).

``verify_degeneration`` checks a basis of that form over a source without a
parametrized index with Q(i) products and integer exponents
(``degeneration._laurent_limits``), and any other witness by transport over
Z[i][t].  Both paths must give the same verdict and the same problems, pole
texts included, and refuse the same bases with the same messages.
``general_path_witness`` rebuilds a witness's basis without its form, so the
same witness runs on the general path.
"""

import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import general_path_witness, reference_transported_rows
from lietriple import catalog
from lietriple import degeneration as dg
from lietriple.core import Lts
from lietriple.errors import MalformedInput, SingularBasis
from lietriple.scalars import GaussianRational, RationalFunction, rational_function_str

G = GaussianRational
T = RationalFunction.variable()

# (source, target) pairs without a family parameter, per dimension
ENDS = {1: [("T1,1", "T1,1")], 2: [("T2,1", "T2,1")],
        3: [("T3,2", "T3,1"), ("T3,2", "T3,2")],
        4: [("T4,7", "T4,8"), ("T4,8", "T4,3"), ("T4,5", "T4,4"), ("T4,9", "T4,2")]}


def cartan_rows(u, g0, v):
    """The rows of diag(t^u) g0 diag(t^v)."""
    return [[G.of(x) * T ** (u[i] + v[j]) for j, x in enumerate(row)] for i, row in enumerate(g0)]


def paths(source, target, rows):
    """((ok, problems) on the Cartan path, the same on the general path), after
    checking that the Cartan path built no Z[i][t] form."""
    witness = dg.DegenerationWitness(source, target, dg.ParametrizedBasis(rows))
    assert witness.basis._form is not None
    cartan = dg.verify_degeneration(witness)
    assert "_cleared" not in witness.basis.__dict__
    general = dg.verify_degeneration(general_path_witness(witness))
    return (cartan.ok, cartan.problems), (general.ok, general.problems)


nonzero = st.builds(lambda re, im, d: G(re, im) / d, st.integers(-3, 3), st.integers(-2, 2),
                    st.integers(1, 4)).filter(bool)
entry = st.one_of(st.just(0), nonzero, nonzero)  # zero about a third of the time


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_both_paths_agree_on_random_cartan_forms(data):
    n = data.draw(st.integers(1, 4))
    weights = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    u, v = data.draw(weights), data.draw(weights)
    g0 = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    rows = cartan_rows(u, g0, v)
    try:
        dg.ParametrizedBasis(rows)
    except SingularBasis as exc:
        assert_singular_on_both_paths(rows, str(exc))
        return
    source, target = data.draw(st.sampled_from(ENDS[n]))
    cartan, general = paths(source, target, rows)
    assert cartan == general
    system, basis = catalog.instantiate(source), dg.ParametrizedBasis(rows)
    assert dg._transported_rows(system, basis) == reference_transported_rows(system, basis)


def assert_singular_on_both_paths(rows, message):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dg, "_cartan_form", lambda rows: None)
        with pytest.raises(SingularBasis, match=f"^{re.escape(message)}$"):
            dg.ParametrizedBasis(rows)


def test_terms_that_cancel_at_a_negative_exponent_give_no_pole():
    # E1 = e1 + e2/t, E2 = e2, E3 = e3 on T3,2: [E1, E1, E1] sums e3/t and
    # -e3/t within one weight component and vanishes; [E1, E2, E1] = E3
    rows = cartan_rows([0, 1, 0], [[1, 1, 0], [0, 1, 0], [0, 0, 1]], [0, -1, 0])
    cartan, general = paths("T3,2", "T3,2", rows)
    assert cartan == general == (True, [])


def test_a_pole_summed_over_two_weights_prints_as_one_function():
    # the golden witness_cartan_pole.json: the constant (1, 2, 1, 4) is
    # t^4 - 1/(2t), its two terms from two v-weight components
    doc = json.loads((Path(__file__).resolve().parent / "golden" / "witness_cartan_pole.json")
                     .read_text())
    witness = dg.witness_from_dict(doc)
    cartan, general = paths(witness.source, witness.target, witness.basis.rows)
    assert cartan == general
    assert ("pole", (1, 2, 1, 4), "(2*t^5-1)/(2*t)") in cartan[1]


@pytest.mark.parametrize("g0", [
    [[1, 2], [2, 4]],                       # singular, no zero line
    [[1, 0, 0], [0, 0, 0], [0, 0, 1]],      # a zero row
    [[1, 0, 1], [G(0, 1), 0, 3], [0, 0, 1]],  # a zero column
    [[0]],
])
def test_a_singular_g0_is_refused_with_the_general_message(g0):
    rows = cartan_rows([1] * len(g0), g0, [-2] * len(g0))
    with pytest.raises(SingularBasis) as refused:
        dg.ParametrizedBasis(rows)
    assert str(refused.value) == "parametrized basis is singular over Q(i)(t)"
    assert_singular_on_both_paths(rows, str(refused.value))
    name = {1: "T1,1", 2: "T2,1", 3: "T3,1"}[len(g0)]
    doc = {"source": {"name": name}, "target": {"name": name},
           "basis": [[rational_function_str(x) for x in row] for row in rows]}
    with pytest.raises(MalformedInput, match="singular"):
        dg.witness_from_dict(doc)


def transport_calls(monkeypatch):
    """A list that gains an entry at each call of ``_transported_rows``."""
    calls, transported = [], dg._transported_rows
    monkeypatch.setattr(dg, "_transported_rows",
                        lambda *args: calls.append(args) or transported(*args))
    return calls


def test_an_entry_outside_the_laurent_monomials_takes_the_general_path(monkeypatch):
    basis = dg.ParametrizedBasis([[1 + T, 0, 0], [0, T, 0], [0, 0, 1 / T]])
    assert basis._form is None
    assert "_cleared" in basis.__dict__  # built at once: it decides singularity
    witness = dg.DegenerationWitness("T3,2", "T3,1", basis)
    calls = transport_calls(monkeypatch)
    assert dg.verify_degeneration(witness).ok and calls


def test_exponents_that_no_u_and_v_solve_take_the_general_path():
    # t, 1 / 1, 1: u1 + v1 = 1, u1 + v2 = 0, u2 + v1 = 0 force u2 + v2 = -1
    assert dg.ParametrizedBasis([[T, 1], [1, 1]])._form is None


def test_an_indexed_source_takes_the_general_path(monkeypatch):
    witness = dg.table4_witness()
    assert witness.index_fn is not None and witness.basis._form is not None
    calls = transport_calls(monkeypatch)
    assert dg.verify_degeneration(witness).ok and calls


def test_a_source_over_q_i_t_takes_the_general_path(monkeypatch):
    # a family member at a lambda in Q(i)(t), given through the API: row 13's
    # basis, a Cartan form, is no witness at lambda = (2+t)/(1+t); the
    # Cartan path would read its constants as Q(i) values
    basis = dg.table2_witness(13).basis
    witness = dg.DegenerationWitness("T4,6", "T4,4", basis, source_lambda=(2 + T) / (1 + T))
    calls = transport_calls(monkeypatch)
    report = dg.verify_degeneration(witness)
    assert basis._form is not None and calls
    assert [kind for kind, _, _ in report.problems] == ["mismatch", "mismatch"]


@pytest.mark.parametrize("rows", [cartan_rows([1] * 4, [[int(i == j) for j in range(4)]
                                                       for i in range(4)], [0] * 4),
                                  [[1 + T, 0, 0, 0], [0, T, 0, 0], [0, 0, T, 0], [0, 0, 0, T]]])
def test_a_basis_of_another_dimension_is_refused_on_both_paths(rows):
    witness = dg.DegenerationWitness("T3,2", "T3,1", dg.ParametrizedBasis(rows))
    with pytest.raises(MalformedInput, match="basis dimension differs from the system"):
        dg.verify_degeneration(witness)


# every built-in witness without a parametrized index: Table 2's 13 rows, row
# 13 at two more members, and the dimension-3 witness
BUILTIN_CARTAN = (dg.TABLE2_WITNESSES + [dg.DIM3_WITNESS]
                  + [dg._family_to_t44_document(lam) for lam in (G(0, 1), G(-3) / 4)])


@pytest.mark.parametrize("doc", BUILTIN_CARTAN, ids=lambda d: dg.witness_from_dict(d).label)
def test_builtin_witnesses_never_build_the_z_i_t_form(doc, monkeypatch):
    def refused(rows):
        raise AssertionError("the Z[i][t] form was built")

    monkeypatch.setattr(dg, "_cleared_basis", refused)
    witness = dg.witness_from_dict(doc)
    assert dg.verify_degeneration(witness).ok


def refuse_inverses_over_q_i_t(monkeypatch):
    """Make every ``mat_inverse`` the package holds raise on a matrix over Q(i)(t)."""
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "lietriple"]:
        if hasattr(module, "mat_inverse"):
            def refused(matrix, inverse=module.mat_inverse):
                if any(isinstance(x, RationalFunction) for row in matrix for x in row):
                    raise AssertionError("mat_inverse over Q(i)(t)")
                return inverse(matrix)
            monkeypatch.setattr(module, "mat_inverse", refused)


@pytest.mark.parametrize("witness", [dg.witness_from_dict(doc) for doc in BUILTIN_CARTAN]
                         + [dg.table4_witness()], ids=lambda w: w.label)
def test_transport_reads_the_cartan_form(witness, monkeypatch):
    # transport_constants takes (A^T)^-1 from the form, not from an inverse over Q(i)(t)
    system = witness.source_system()
    refuse_inverses_over_q_i_t(monkeypatch)
    basis = dg.ParametrizedBasis(witness.basis.rows)
    assert basis._form is not None
    moved = dg.transport_constants(system, basis)
    assert Lts(moved).rows() == reference_transported_rows(system, basis)


def test_transport_reads_the_cartan_form_of_laurent_bases(monkeypatch):
    # shaped like the benchmark's transport bases: an elementary matrix I + c e_ij with
    # row i scaled by t^k, k in -1..n-2, the second applied to constants over Q(i)(t)
    first = [[T ** -1, 0, 0, 0], [0, T ** 2, G(2, -1) * T ** 2, 0], [0, 0, 1, 0], [0, 0, 0, T]]
    second = [[T, 0, 0, 0], [0, 1, 0, 0], [0, 0, T ** 2, 0], [G(0, 1) / T, 0, 0, T ** -1]]
    system = catalog.instantiate("T4,8")
    refuse_inverses_over_q_i_t(monkeypatch)
    for rows in (first, second):
        basis = dg.ParametrizedBasis(rows)
        assert basis._form is not None
        moved = Lts(dg.transport_constants(system, basis))
        assert moved.rows() == reference_transported_rows(system, basis)
        system = moved
