"""The oracle and the workload checks: right answers pass, wrong ones are caught.

Run with ``python3 -m pytest perfbench/tests``; nothing here imports lietriple.
"""

import os
import random
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import oracle as O  # noqa: E402
import paper as P  # noqa: E402
import workloads as W  # noqa: E402


def _tensor(name, lam=None):
    dim, products = P.products(name, lam)
    return dim, O.tensor_from_products(products)


def _out_tensor(t):
    return [[i, j, k, p, [str(v[0]), str(v[1])]]
            for (i, j, k), vec in sorted(t.items()) for p, v in sorted(vec.items())]


def _pair(v):
    return [str(v[0]), str(v[1])]


# ---------------------------------------------------------------------------
# oracle

def test_catalog_tables_are_closed():
    for name in P.ENTRIES:
        dim, t = _tensor(name)
        assert O.axiom_violation(t, dim) is None, name
    dim, t = _tensor(P.FAMILY, O.q(3))
    assert O.axiom_violation(t, dim) is None


def test_axiom_check_rejects_a_perturbed_constant():
    dim, t = _tensor("T4,7")
    bad = {key: dict(vec) for key, vec in t.items()}
    bad[(0, 1, 2)][3] = O.q(2)  # [e1,e2,e3] = 2 e4, its (A1) partner unchanged
    assert O.axiom_violation(bad, dim) is not None


def test_conjugation_preserves_axioms_and_inverts():
    rng = random.Random(5)
    dim, t = _tensor("T4,8")
    g = W.dense_unimodular(rng, dim)
    c = O.conjugate(t, g)
    assert c != t and O.axiom_violation(c, dim) is None
    assert O.conjugate(c, O.mat_inverse(g)) == t
    assert O.tensor_from_doc(O.system_doc(dim, c)) == c


def test_rank_nullspace_and_xi():
    rows = [[O.q(1), O.q(2), O.q(0, 1)], [O.q(2), O.q(4), O.q(0, 2)], [O.q(0), O.q(1), O.q(1)]]
    assert O.rank(rows) == 2
    kernel = O.nullspace(rows, 3)
    assert len(kernel) == 1
    assert all(O.is_zero(x[0]) for x in O.mat_mul(rows, O.transpose(kernel)))
    assert O.xi(O.q(1)) == O.q(Fraction(27, 4))
    lam = O.q(Fraction(3, 7), Fraction(-2, 7))
    for image in (O.neg(O.add(lam, O.ONE)), O.inv(lam)):
        assert O.xi(image) == O.xi(lam)
    assert O.xi(O.ZERO) is None and O.xi(O.q(-1)) is None


def test_cocycle_dimensions_match_the_paper():
    for name, (z3, b3, h3) in P.COHOMOLOGY_DIMS.items():
        dim, t = _tensor(name)
        assert len(O.cocycle_basis(t, dim)) == z3
        assert O.derived_rank(t) == b3


def test_every_cocycle_gives_an_extension_and_a_non_cocycle_does_not():
    dim, t = _tensor("T3,2")
    for theta in O.cocycle_basis(t, dim):
        assert O.axiom_violation(O.extension(t, dim, [theta]), dim + 1) is None
    theta = [O.ZERO] * len(O.cochain_index(dim))
    theta[O.cochain_index(dim).index((0, 1, 2))] = O.ONE  # breaks (B2)
    assert O.axiom_violation(O.extension(t, dim, [theta]), dim + 1) is not None


# ---------------------------------------------------------------------------
# classify checks

def test_classify_check_rejects_a_swapped_name():
    check = W._classify_check("T4,9", None)
    answer = {"name": "T4,9", "lam": None, "xi": None, "confidence": "fingerprint-only",
              "note": ""}
    assert check(answer) == W.OK
    assert check(dict(answer, name="T4,8")) not in (W.OK, W.FAILED)


def test_classify_check_rejects_a_lambda_outside_the_orbit():
    lam = O.q(Fraction(3, 5))
    check = W._classify_check(P.FAMILY, lam)
    answer = {"name": P.FAMILY, "xi": _pair(O.xi(lam)), "confidence": "fingerprint-only",
              "note": ""}
    assert check(dict(answer, lam=_pair(O.inv(lam)))) == W.OK  # 1/lam is in the orbit
    assert check(dict(answer, lam=_pair(O.q(Fraction(3, 4))))) not in (W.OK, W.FAILED)
    assert check(dict(answer, lam=_pair(lam), xi=_pair(O.q(1)))) not in (W.OK, W.FAILED)
    assert check(dict(answer, lam=None)) == W.FAILED  # parameter not recovered


def test_classify_check_for_the_singular_pair():
    check = W._classify_check(P.FAMILY, O.q(-1))
    answer = {"name": P.FAMILY, "xi": None, "confidence": "fingerprint-only", "note": ""}
    assert check(dict(answer, lam=_pair(O.ZERO))) == W.OK
    assert check(dict(answer, lam=_pair(O.q(2)))) not in (W.OK, W.FAILED)


def test_classify_batch_shape_and_failing_member():
    batch, other = W.build("classify", 3), W.build("classify", 4)
    assert len(batch.ops) >= 40
    assert batch.labels[-1] == "classify T4,6^(2^70+1)/3^30"
    assert batch.ops[-1] == other.ops[-1]  # seed-independent input
    assert batch.ops[:-1] != other.ops[:-1]


def test_batches_repeat_for_a_seed():
    assert W.build("degenerate", 7).ops == W.build("degenerate", 7).ops
    assert W.build("extend", 7).ops == W.build("extend", 7).ops


# ---------------------------------------------------------------------------
# extend checks

def _extend_case():
    batch = W.build("extend", 2)
    index = batch.labels.index("extend T4,8:theta")
    return batch, index


def _thetas(op, dim):
    """The cochains of an extend operation, as oracle coordinate lists."""
    index = O.cochain_index(dim)
    thetas = []
    for doc in op["thetas"]:
        theta = [O.ZERO] * len(index)
        for c in doc["coeffs"]:
            i, j, k = c["ijk"]
            theta[index.index((i - 1, j - 1, k - 1))] = O.parse_text(c["value"])
        thetas.append(theta)
    return thetas


def test_extend_check_rejects_a_perturbed_constant():
    batch, index = _extend_case()
    op = batch.ops[index]
    dim, t = _tensor("T4,8")
    good = O.extension(t, dim, _thetas(op, dim))
    assert batch.checks[index]({"dim": 5, "tensor": _out_tensor(good)}) == W.OK
    bad = {key: dict(vec) for key, vec in good.items()}
    bad[(0, 1, 0)][2] = O.q(5)
    assert batch.checks[index]({"dim": 5, "tensor": _out_tensor(bad)}) not in (W.OK, W.FAILED)
    # the theta + delta f extension must be the image of T_theta under x + f(x)e
    shifted = batch.labels.index("extend T4,8:theta+df")
    assert batch.checks[shifted]({"dim": 5, "tensor": _out_tensor(good)}) not in (W.OK,
                                                                                   W.FAILED)


def test_extend_checks_reject_wrong_dimensions():
    batch = W.build("extend", 2)
    index = batch.labels.index("cocycle_space T3,2")
    assert batch.checks[index]({"dim": 4}) == W.OK
    assert batch.checks[index]({"dim": 5}) not in (W.OK, W.FAILED)
    h3 = batch.labels.index("cohomology T3,2")
    assert batch.checks[h3]({"h3": 3, "reps": 3}) == W.OK
    assert batch.checks[h3]({"h3": 4, "reps": 4}) not in (W.OK, W.FAILED)
    ann = batch.labels.index("annihilator T3,2:theta")
    no_v = [[_pair(O.ONE if c == 2 else O.ZERO) for c in range(5)]]
    assert batch.checks[ann]({"basis": no_v}) not in (W.OK, W.FAILED)


def test_annihilator_check_rejects_a_vector_outside_ann():
    batch = W.build("extend", 2)
    index = batch.labels.index("annihilator T4,4:theta")
    dim, t = _tensor("T4,4")
    ext = O.extension(t, dim, _thetas(batch.ops[batch.labels.index("extend T4,4:theta")], dim))
    units = [[O.ONE if c == r else O.ZERO for c in range(dim + 1)] for r in range(dim + 1)]
    sparse = [{r: O.ONE} for r in range(dim + 1)]

    def annihilates(r):
        return not any(O.bracket(ext, sparse[r], y, z) for y in sparse for z in sparse)

    # here Ann(T_theta) = <e_4, e_5>: V plus e_4 is right, V plus e_1 has the
    # right dimension but does not annihilate
    assert O.annihilator_rank(ext, dim + 1) == 2 and annihilates(3) and not annihilates(0)
    as_out = lambda rows: {"basis": [[_pair(x) for x in row] for row in rows]}  # noqa: E731
    assert batch.checks[index](as_out([units[dim], units[3]])) == W.OK
    assert batch.checks[index](as_out([units[dim], units[0]])) not in (W.OK, W.FAILED)


# ---------------------------------------------------------------------------
# degenerate checks

def test_wrong_witnesses_are_expected_to_fail():
    batch = W.build("degenerate", 1)
    wrong = [i for i, label in enumerate(batch.labels) if label.startswith("verify wrong")]
    assert len(wrong) == W.WRONG_WITNESSES
    for i in wrong:
        assert batch.checks[i]({"ok": False, "problems": 1}) == W.OK
        assert batch.checks[i]({"ok": True, "problems": 0}) not in (W.OK, W.FAILED)


def test_a_witness_with_the_wrong_target_is_rejected():
    rng = random.Random(0)
    targets = 0
    for row in W._PLAIN_ROWS:
        label, doc = W._wrong_witness(rng, row, "target")
        if "target of" in label:
            targets += 1
            published = label.split("target of ")[1].rstrip(")")
            assert doc["target"]["name"] != published
            # the limit is the published target, whose table differs from the named one
            assert _tensor(published)[1] != _tensor(doc["target"]["name"])[1]
    assert targets > 0
    batch = W.build("degenerate", 1)
    published = batch.labels.index("verify T4,8 -> T4,9")
    assert batch.checks[published]({"ok": False, "problems": 3}) not in (W.OK, W.FAILED)


def test_transport_check_rejects_a_perturbed_value():
    batch = W.build("degenerate", 1)
    index = batch.labels.index("transport T3,2")
    dim, t = _tensor("T3,2")
    # a constant tensor: right only if the transported tensor were constant
    out = {"then": [[i, j, k, p, {"num": [_pair(v)], "den": [_pair(O.ONE)]}]
                    for (i, j, k), vec in t.items() for p, v in vec.items()]}
    out["combined"] = out["then"]
    assert batch.checks[index](out) not in (W.OK, W.FAILED)


def test_graph_check_rejects_a_missing_edge():
    edges = sorted(P.FIGURE_EDGES)
    assert W._graph_check({"edges": edges, "maximal": P.FIGURE_MAXIMAL}) == W.OK
    assert W._graph_check({"edges": edges[1:], "maximal": P.FIGURE_MAXIMAL}) != W.OK
