"""The error contract of every CLI entry point that reads a document or a value.

Each test mutates well-formed inputs (the golden systems, the built-in
witness, extension-spec and separating-set documents, catalog names and
``--lambda`` values) and calls ``main``.  Whatever the mutation, ``main``
returns 0, 1 or 2 without raising: exit 0 writes nothing to stderr, exit 2
writes exactly one ``error: `` line of at most 200 characters, and exit 1 at
most one such line.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lietriple import catalog
from lietriple import degeneration as dg
from lietriple.cli import main
from lietriple.cohomology import cocycle_to_dict, cohomology
from lietriple.core import lts_to_dict
from lietriple.scalars import QI_I

GOLDEN = Path(__file__).resolve().parent / "golden"
MAX_LINE = 200
CONTRACT = settings(max_examples=50, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.function_scoped_fixture,
                                           HealthCheck.too_slow])

SYSTEMS = [json.loads((GOLDEN / f"input_{name}.json").read_text()) for name in ("t4_8", "sl2")] + [
    lts_to_dict(catalog.instantiate("T3,2")),
    lts_to_dict(catalog.instantiate("T4,6", QI_I)),
]
SPECS = [
    {"base": "T2,1", "thetas": [{"coeffs": [{"ijk": [1, 2, 1], "value": "1"}]}]},
    {"base": lts_to_dict(catalog.instantiate("T3,2")),
     "thetas": [cocycle_to_dict(c) for c in cohomology(catalog.instantiate("T3,2"))[1].basis[:2]]},
]
WITNESSES = [dg.TABLE2_WITNESSES[0], dg.TABLE2_WITNESSES[-1], dg.TABLE4_WITNESS, dg.DIM3_WITNESS]
SEPARATING_SETS = [dg.separating_set_to_dict(s) for s in (
    dg.table3_separating_set(1), dg.table3_separating_set(2, 3), dg.table5_separating_set())]
TARGETS = [("T4,3", None), ("T4,9", None), ("T4,6", "2"), ("T3,2", None)]

# a grammar-fuzzed scalar: tokens of the scalar grammar, and a few outside it
SCALARS = st.lists(st.sampled_from(
    ["0", "1", "2", "12", "1/2", "i", "t", "+", "-", "*", "/", "^", "(", ")", " ", "x", ".", "e"]),
    max_size=12).map("".join)
HUGE = ["2^99999999999", "((2^64)^64)^64", "(1+i)^123456789", "t^99999999", "7" * 5000]
DEEP = ["(" * 400 + "1" + ")" * 400, "-" * 3000 + "1", "x" * 3000]
NEST_MARK = "@@nest@@"
NEST_DEPTHS = [20, 900, 5000]
# nodes a mutation writes in place of another: other types, and indices repeated or re-spelled
OTHERS = [None, True, 0, -1, 3, 17, 2.5, 1e300, "", "1", "03", "T4,6", [], {}, [1, 1, 1],
          [1, 2, 1, 3], {"3": "1"}, {"03": "1", "3": "2"}, ["t", "0"], [["1"]]]


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


@st.composite
def mutated(draw, documents):
    """One of ``documents`` after up to two mutations, as JSON text."""
    doc = copy.deepcopy(draw(st.sampled_from(documents)))
    depth = draw(st.sampled_from(NEST_DEPTHS))
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        kind = draw(st.sampled_from(["delete", "replace", "repeat", "respell", "scalar", "huge",
                                     "deep", "nest"]))
        parent = None
        node = doc
        for key in path:
            parent, node = node, node[key]
        if kind == "repeat" and isinstance(node, list) and node:
            node.append(copy.deepcopy(node[draw(st.integers(0, len(node) - 1))]))
            continue
        if kind == "respell" and isinstance(node, dict) and node:
            key = draw(st.sampled_from(sorted(node)))
            node[draw(st.sampled_from([f"0{key}", f" {key}", key.upper(), f"{key}\n"]))] = \
                copy.deepcopy(node[key])
            continue
        if kind == "delete" and parent is not None:
            del parent[path[-1]]
            continue
        value = {"scalar": SCALARS, "huge": st.sampled_from(HUGE), "deep": st.sampled_from(DEEP),
                 "nest": st.just(NEST_MARK)}.get(kind, st.sampled_from(OTHERS))
        value = copy.deepcopy(draw(value))  # later mutations must not change OTHERS
        if parent is None:
            doc = value
        else:
            parent[path[-1]] = value
    text = json.dumps(doc)
    return text.replace(json.dumps(NEST_MARK), "[" * depth + "]" * depth)


def assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    lines = err.splitlines()
    assert code in (0, 1, 2), (argv, code)
    assert len(lines) == {0: 0, 1: len(lines[:1]), 2: 1}[code], (code, err)
    assert all(line.startswith("error: ") and len(line) <= MAX_LINE for line in lines), err


def _document_path(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "contract.json"
    path.write_text(text)
    return str(path)


@CONTRACT
@given(text=mutated(SYSTEMS), command=st.sampled_from(
    ["check", "invariants", "cohomology", "classify"]))
def test_system_commands_keep_the_contract(tmp_path_factory, text, command):
    assert_contract([command, _document_path(tmp_path_factory, text)])


@CONTRACT
@given(text=mutated(SPECS))
def test_extend_keeps_the_contract(tmp_path_factory, text):
    assert_contract(["extend", _document_path(tmp_path_factory, text)])


@CONTRACT
@given(text=mutated(WITNESSES))
def test_degen_verify_keeps_the_contract(tmp_path_factory, text):
    assert_contract(["degen", "verify", _document_path(tmp_path_factory, text)])


@CONTRACT
@given(text=mutated(SEPARATING_SETS), target=st.sampled_from(TARGETS))
def test_degen_nondegen_keeps_the_contract(tmp_path_factory, text, target):
    name, lam = target
    argv = ["degen", "nondegen", _document_path(tmp_path_factory, text), "--target", name]
    assert_contract(argv + ([] if lam is None else ["--lambda", lam]))


@CONTRACT
@given(name=st.sampled_from(list(catalog.ENTRIES)) | SCALARS.filter(lambda s: s[:1] != "-"),
       lam=st.none() | SCALARS.filter(lambda s: s != "--")
       | st.sampled_from(HUGE + DEEP + ["-1/2", "-i", "-(1+i)", "-1"]))
def test_catalog_show_keeps_the_contract(name, lam):
    # a token that starts with "--" is an option, so such a value goes after "=";
    # "--lambda=--" is a usage error (test_an_option_given_the_value_double_dash_is_a_usage_error)
    option = [] if lam is None else ["--lambda", lam] if lam[:2] != "--" else [f"--lambda={lam}"]
    assert_contract(["catalog", "show", name, *option])
