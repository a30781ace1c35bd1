"""Command-line interface: subcommands, exit codes, deterministic output."""

import argparse
import importlib
import json
import re
import shlex
import time
from pathlib import Path

import pytest

from lietriple import catalog
from lietriple import degeneration as dg
from lietriple.cli import build_parser, main
from lietriple.cohomology import Cocycle, cocycle_space
from lietriple.core import Lts, complete_table, lts_from_dict, lts_to_dict
from lietriple import errors
from lietriple.errors import InputError, MalformedInput, NoMatch
from lietriple.linalg import nullspace
from lietriple.scalars import GaussianRational, RationalFunction

GOLDEN = Path(__file__).resolve().parent / "golden"
cohomology_module = importlib.import_module("lietriple.cohomology")
cli_module = importlib.import_module("lietriple.cli")


@pytest.fixture()
def t32_file(tmp_path):
    path = tmp_path / "t32.json"
    path.write_text(json.dumps(lts_to_dict(catalog.instantiate("T3,2"))))
    return str(path)


@pytest.fixture()
def t47_file(tmp_path):
    path = tmp_path / "t47.json"
    path.write_text(json.dumps(lts_to_dict(catalog.instantiate("T4,7"))))
    return str(path)


def test_check_passes(t32_file, capsys):
    assert main(["check", t32_file]) == 0
    assert "(A1)(A2)(A3) pass" in capsys.readouterr().out


def test_check_axiom_failure(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dim": 4, "field": "Q",
        "products": [{"args": [1, 2, 3], "value": {"4": "1"}}]}))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out.strip() == "A2 fails at (1, 2, 3): residual (0, 0, 0, 1)"


@pytest.mark.parametrize("second,code", [("2", 1), ("1", 0)])
def test_check_refuses_a_product_given_twice_with_two_values(tmp_path, capsys, second, code):
    # a repeat with another value is a conflict, as the mirror [2,1,1] = -2 is;
    # the same value twice is accepted
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({"dim": 3, "products": [
        {"args": [1, 2, 1], "value": {"3": "1"}}, {"args": [1, 2, 1], "value": {"3": second}}]}))
    assert main(["check", str(path)]) == code
    out = capsys.readouterr()
    if code:
        assert "InconsistentTable: conflicting values for [e1,e2,e1]" in out.err
    else:
        assert out.out.strip() == "(A1)(A2)(A3) pass"


def test_check_axiom_failure_json_payload(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dim": 4, "field": "Q",
        "products": [{"args": [1, 2, 3], "value": {"4": "1"}}]}))
    assert main(["--format", "json", "check", str(path)]) == 1
    out = capsys.readouterr()
    assert json.loads(out.out) == {"ok": False, "identity": "A2", "indices": [1, 2, 3]}
    assert out.err == ""


@pytest.mark.parametrize("case", ["dense-document", "family-table", "check-closed",
                                  "cocycle-space"])
def test_check_runs_the_axiom_kernel_once(monkeypatch, capsys, case):
    base = catalog.instantiate("T4,8").require_axioms()
    theta = Cocycle(base, {(1, 2, 1): 1})
    closed, z3_dim = theta.check_closed(), cocycle_space(base).dim
    fresh = Lts.from_rows(base.dim, base.rows())
    core = importlib.import_module("lietriple.core")
    kernel, runs = core._axiom_residuals, []

    def counted(rows, *args):
        runs.append(len(rows))
        return kernel(rows, *args)

    monkeypatch.setattr(core, "_axiom_residuals", counted)
    monkeypatch.setattr(cohomology_module, "_axiom_residuals", counted)
    if case == "dense-document":  # over Q(i): the lanes
        assert main(["--format", "json", "check", str(GOLDEN / "input_t4_9_dense.json")]) == 0
        assert json.loads(capsys.readouterr().out) == {"ok": True}
    elif case == "family-table":  # over Q(i)(t): the rows as they are
        generators = catalog._family_generators(RationalFunction.variable())
        assert complete_table(4, generators).check_axioms().ok
    elif case == "check-closed":
        assert Cocycle(base, dict(theta.coeffs)).check_closed() == closed
    else:
        assert cocycle_space(fresh).dim == z3_dim
    assert len(runs) == 1


@pytest.mark.parametrize("case", ["missing", "directory", "invalid-json"])
def test_an_unreadable_or_invalid_file_is_one_error_line(tmp_path, capsys, case):
    path = tmp_path / "input.json"
    if case == "directory":
        path.mkdir()
    elif case == "invalid-json":
        path.write_text("{not json")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    reason = "is not valid JSON" if case == "invalid-json" else "cannot read"
    assert err.startswith("error: MalformedInput: file: ") and reason in err
    assert err.count("\n") == 1


def test_extend_refuses_a_cocycle_on_another_system(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"base": "T2,1", "thetas": [
        {"system": "T3,1", "coeffs": [{"ijk": [1, 2, 1], "value": "1"}]}]}))
    assert main(["extend", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: MalformedInput: system: cocycle system differs from the given ambient\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_degen_verify_reports_ends_of_different_dimensions(tmp_path, capsys, fmt):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"source": {"name": "T3,2"}, "target": {"name": "T4,1"},
                                "basis": [["t", "0", "0"], ["0", "t", "0"], ["0", "0", "t"]]}))
    assert main(["--format", fmt, "degen", "verify", str(path)]) == 1
    out = capsys.readouterr().out
    if fmt == "text":
        assert out == "T3,2 -> T4,1: FAILED\n  dimension at (): 3 vs 4\n"
    else:
        assert json.loads(out) == {"ok": False, "problems": [
            {"kind": "dimension", "indices": [], "detail": "3 vs 4"}]}


def test_the_exit_2_kinds_are_the_input_errors(monkeypatch, capsys):
    declared = {name for name, kind in vars(errors).items() if isinstance(kind, type)
                and issubclass(kind, InputError) and kind is not InputError}
    assert declared == {"MalformedInput", "ParseError", "UnknownName", "MissingParameter",
                        "SingularParameter", "DimensionUnsupported", "DimensionMismatch"}

    class NewInputKind(InputError):
        pass

    # a kind declared as an input error exits 2 without being listed anywhere else
    for exc, code in ((NewInputKind("refused"), 2), (NoMatch("no entry"), 1)):
        def fail(args, exc=exc):
            raise exc
        monkeypatch.setattr(cli_module, "_cmd_catalog_list", fail)
        assert main(["catalog", "list"]) == code
        assert capsys.readouterr().err == f"error: {type(exc).__name__}: {exc}\n"


def test_malformed_input(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{\"products\": []}")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "dim" in err


@pytest.mark.parametrize("value", [{"x": "1"}, {"2": 5}, ["1"]])
def test_malformed_product_value(tmp_path, capsys, value):
    path = tmp_path / "bad_value.json"
    path.write_text(json.dumps({"dim": 3, "products": [{"args": [1, 2, 1], "value": value}]}))
    assert main(["check", str(path)]) == 2
    assert "MalformedInput" in capsys.readouterr().err


def test_boolean_dim_rejected(tmp_path, capsys):
    path = tmp_path / "bool_dim.json"
    path.write_text(json.dumps({"dim": True, "products": []}))
    assert main(["check", str(path)]) == 2
    assert "MalformedInput" in capsys.readouterr().err


def test_huge_dim_rejected_at_once(tmp_path, capsys):
    path = tmp_path / "huge_dim.json"
    path.write_text(json.dumps({"dim": 100000, "products": []}))
    start = time.monotonic()
    assert main(["invariants", str(path)]) == 2
    assert time.monotonic() - start < 5
    assert "MalformedInput" in capsys.readouterr().err


def test_invariants_reports_derivations(t47_file, capsys):
    assert main(["invariants", t47_file]) == 0
    out = capsys.readouterr().out
    assert "dim Der      = 5" in out
    assert "orbit dim    = 11" in out


def test_cohomology_output(t32_file, capsys):
    assert main(["cohomology", t32_file]) == 0
    out = capsys.readouterr().out
    assert "dim Z3 = 4" in out and "dim B3 = 1" in out and "dim H3 = 3" in out


def test_classify(t47_file, capsys):
    assert main(["classify", t47_file]) == 0
    out = capsys.readouterr().out
    assert "T4,7" in out and "certified" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_classify_prints_its_note(tmp_path, capsys, fmt):
    # a dense conjugate of T4,6^0: the family path at the singular pair, xi undefined
    g = [[GaussianRational(int(i <= j <= i + 1)) for j in range(4)] for i in range(4)]
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(lts_to_dict(
        catalog.instantiate("T4,6", GaussianRational(0)).change_basis(g))))
    assert main(["--format", fmt, "classify", str(path)]) == 0
    out = capsys.readouterr().out
    if fmt == "text":
        assert out == "T4,6 (lambda = 0) [fingerprint-only] - xi singular at this parameter\n"
    else:
        assert json.loads(out) == {"name": "T4,6", "lambda": "0", "confidence": "fingerprint-only",
                                   "xi": None, "note": "xi singular at this parameter"}


def test_extend(tmp_path, capsys):
    spec = {"base": "T2,1",
            "thetas": [{"coeffs": [{"ijk": [1, 2, 1], "value": "1"}]}]}
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(spec))
    assert main(["--format", "json", "extend", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert lts_from_dict(doc) == catalog.instantiate("T3,2")


@pytest.mark.parametrize("thetas", [
    [{"coeffs": [{"ijk": ["1", "2", "1"], "value": "1"}]}],
    [5],
    [{"coeffs": [{"ijk": [True, 2, 1], "value": "1"}]}],
    [{"coeffs": [{"ijk": [1.0, 2, 1], "value": "1"}]}],
    [{"system": ["T3,2"], "coeffs": [{"ijk": [1, 2, 1], "value": "1"}]}],
    [],
])
def test_extend_malformed_cocycle(tmp_path, capsys, thetas):
    path = tmp_path / "ext.json"
    path.write_text(json.dumps({"base": "T2,1", "thetas": thetas}))
    assert main(["extend", str(path)]) == 2
    assert "MalformedInput" in capsys.readouterr().err


def test_catalog_list_and_show(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "T4,6" in out and "T1,1" in out
    assert main(["--format", "json", "catalog", "show", "T4,6", "--lambda", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert lts_from_dict(doc) == catalog.instantiate("T4,6", GaussianRational(2))


def test_catalog_show_unknown(capsys):
    assert main(["catalog", "show", "T7,7"]) == 2


def test_catalog_table1(capsys):
    assert main(["catalog", "table1"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line and not line.startswith("system")]
    assert len(lines) == 13  # 8 fixed rows + 5 family samples
    assert all("yes" in line for line in lines)


def test_degen_verify(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(dg.witness_to_dict(dg.table2_witness(11))))
    assert main(["degen", "verify", str(path)]) == 0
    assert "verified" in capsys.readouterr().out


def test_degen_verify_failure(tmp_path, capsys):
    doc = {"source": {"name": "T4,2"}, "target": {"name": "T4,3"},
           "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                     ["0", "0", "1", "0"], ["0", "0", "0", "1"]]}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    assert main(["degen", "verify", str(path)]) == 1


@pytest.mark.parametrize("fmt,dim", [("text", 3), ("text", 4), ("json", 3), ("json", 4)])
def test_degen_graph_matches_golden_output(capsys, fmt, dim):
    golden = GOLDEN / f"degen_graph_dim{dim}.{'txt' if fmt == 'text' else 'json'}"
    assert main(["--format", fmt, "degen", "graph", "--dim", str(dim)]) == 0
    assert capsys.readouterr().out == golden.read_text()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name,code", [("verified", 0), ("cartan_pole", 1), ("general_pole", 1)])
def test_degen_verify_matches_golden_output(capsys, fmt, name, code):
    # witness_verified.json is Table 2's row 11; witness_cartan_pole.json is of
    # the form diag(t^u) g0 diag(t^v), with a pole summed over two v-weights;
    # witness_general_pole.json has the entry 1+t, outside that form.  The
    # elapsed time of a verified witness is masked.
    golden = GOLDEN / f"degen_verify_{name}.{'txt' if fmt == 'text' else 'json'}"
    assert main(["--format", fmt, "degen", "verify", str(GOLDEN / f"witness_{name}.json")]) == code
    out = re.sub(r"\(\d+\.\d{3}s\)", "(elapsed)", capsys.readouterr().out)
    assert out == golden.read_text()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["invariants", "cohomology"])
@pytest.mark.parametrize("system", ["t4_8", "t4_9_dense", "sl2"])
def test_invariants_and_cohomology_match_golden_output(capsys, fmt, command, system):
    # input_t4_9_dense.json is T4,9 conjugated by ExactRandom(15).invertible(4, height=3);
    # input_sl2.json is lts_from_lie of sl2 on the basis (e, f, h).
    golden = GOLDEN / f"{command}_{system}.{'txt' if fmt == 'text' else 'json'}"
    assert main(["--format", fmt, command, str(GOLDEN / f"input_{system}.json")]) == 0
    assert capsys.readouterr().out == golden.read_text()


def test_degen_verify_labels_a_family_document_with_its_member(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(dg.TABLE4_WITNESS))
    assert main(["degen", "verify", str(path)]) == 0
    assert capsys.readouterr().out.startswith("T4,6^* -> T4,5: verified")


@pytest.mark.parametrize("size", [2, 12])
def test_degen_verify_refuses_a_basis_of_the_wrong_size_at_once(tmp_path, capsys, size):
    basis = [["t" if i == j else "1/(t+%d)" % (i + j) for j in range(size)] for i in range(size)]
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"source": {"name": "T3,2"}, "target": {"name": "T3,1"},
                                "basis": basis}))
    start = time.monotonic()
    assert main(["degen", "verify", str(path)]) == 2
    assert time.monotonic() - start < 1
    assert "MalformedInput" in capsys.readouterr().err


def test_cohomology_eliminates_for_z3_once(t32_file, capsys, monkeypatch):
    calls = []

    def counting(rows, width):
        calls.append(width)
        return nullspace(rows, width)

    monkeypatch.setattr(cohomology_module, "nullspace", counting)
    assert main(["cohomology", t32_file]) == 0
    assert calls == [len(cohomology_module.delta_indices(3))]


def test_degen_graph(capsys):
    assert main(["degen", "graph", "--dim", "4"]) == 0
    out = capsys.readouterr().out
    assert "maximal nodes: T4,6*, T4,7" in out
    assert "T4,7 -> T4,8" in out


def test_degen_nondegen(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(dg.separating_set_to_dict(dg.table3_separating_set(3))))
    assert main(["degen", "nondegen", str(path), "--target", "T4,3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("borel-symbolic: pass")
    assert lines[1].startswith("target-membership: pass - target outside the locus")
    assert lines[2].startswith("orbit question: not decided")
    assert main(["--format", "json", "degen", "nondegen", str(path), "--target", "T4,3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["evidenceLevel"] == "separating-set (symbolic stability proof)"
    assert payload["stability"]["kind"] == "borel-symbolic"
    assert payload["targetInLocus"] is False and "escape" not in payload


def test_degen_nondegen_fails_on_a_target_inside_the_locus(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(dg.separating_set_to_dict(dg.table3_separating_set(3))))
    assert main(["--format", "json", "degen", "nondegen", str(path), "--target", "T4,9"]) == 1
    assert json.loads(capsys.readouterr().out)["targetInLocus"] is True
    assert main(["degen", "nondegen", str(path), "--target", "T3,2"]) == 2
    assert "dimension mismatch" in capsys.readouterr().err


def test_degen_nondegen_on_a_relation_with_equal_indices(tmp_path, capsys):
    # c_1213 = 2*c_1213 forces that constant to 0: its relation row is the one entry 1 - 2
    doc = {"dim": 4, "equal": [[[1, 2, 1, 3], [1, 2, 1, 3], "2"], [[1, 2, 1, 4], [2, 1, 1, 4], "-1"]]}
    one = GaussianRational(1)
    assert dg.separating_set_from_dict(doc).basis() == [{(0, 1, 0): {3: one}, (1, 0, 0): {3: -one}}]
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert main(["degen", "nondegen", str(path), "--target", "T4,2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "borel-symbolic: pass - locus stable under the lower-triangular Lie algebra",
        "target-membership: pass - target outside the locus: relation (1, 2, 1, 3) = 2*(1, 2, 1, 3) fails",
        "orbit question: not decided here (the target's orbit may still meet the locus)",
    ]
    assert main(["--format", "json", "degen", "nondegen", str(path), "--target", "T4,1"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "evidenceLevel": "separating-set (symbolic stability proof)",
        "stability": {"detail": "locus stable under the lower-triangular Lie algebra",
                      "kind": "borel-symbolic", "ok": True},
        "targetInLocus": True,
    }


@pytest.mark.parametrize("doc", [
    {"dim": 4, "equal": [[[1, 2, 1, 9], [2, 1, 1, 3], "-1"]]},  # was an IndexError
    {"dim": 4, "equal": [[[0, 2, 1, 3], [2, 1, 1, 3], "-1"]]},  # was read as index -1
    {"dim": 4, "equal": [[[1, 2, 1], [2, 1, 1, 3], "-1"]]},  # was a ValueError
    {"dim": 4, "equal": [], "zero_otherwise": "no"},  # was read as true
], ids=["index-9", "index-0", "three-indices", "zero-otherwise-string"])
def test_degen_nondegen_rejects_malformed_sets(tmp_path, capsys, doc):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert main(["degen", "nondegen", str(path), "--target", "T4,3"]) == 2
    assert "borel-symbolic" not in capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [("mode", "randomized"), ("trials", "200"), ("seed", "0")])
def test_degen_nondegen_has_no_mode_flag(tmp_path, capsys, flag, value):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(dg.separating_set_to_dict(dg.table3_separating_set(3))))
    with pytest.raises(SystemExit) as exc:
        main(["degen", "nondegen", str(path), "--target", "T4,3", f"--{flag}", value])
    assert exc.value.code == 2


def test_readme_usage_lines_parse():
    # every `lts ...` line of the README must be accepted by the real parser,
    # and every leaf command the parser registers must have such a line
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line for line in readme.read_text().splitlines() if line.startswith("lts ")]
    assert len(lines) >= 10
    parser = build_parser()
    shown = set()
    for line in lines:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        assert callable(args.func), line
        shown.add(args.func)
    leaves = _leaf_handlers(parser)
    assert len(leaves) == 11 and leaves <= shown


def _leaf_handlers(parser):
    """The handlers bound to the leaf parsers under parser, one per leaf command."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not actions:
        return {parser.get_default("func")}
    return set().union(*(_leaf_handlers(sub) for a in actions for sub in a.choices.values()))


def test_field_restriction(tmp_path, capsys):
    # a document that declares Q and holds i is refused by the loader
    doc = lts_to_dict(catalog.instantiate("T4,6", GaussianRational(0, 1)))
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 0
    path.write_text(json.dumps(dict(doc, field="Q")))
    capsys.readouterr()
    assert main(["check", str(path)]) == 2
    assert "MalformedInput" in capsys.readouterr().err


def test_field_option_is_gone(t32_file, capsys):
    with pytest.raises(SystemExit) as info:
        main(["--field", "Q", "check", t32_file])
    assert info.value.code == 2


@pytest.mark.parametrize("text", ["0^-1", "(1-1)^-2", "t/t"])
def test_check_refuses_values_outside_the_field(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 3, "field": "Q",
                                "products": [{"args": [1, 2, 1], "value": {"3": text}}]}))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: MalformedInput: products: ")


def test_json_output_deterministic(t47_file, capsys):
    main(["--format", "json", "invariants", t47_file])
    first = capsys.readouterr().out
    main(["--format", "json", "invariants", t47_file])
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["dimDer"] == 5 and payload["orbitDim"] == 11


def test_loader_round_trip(tmp_path, capsys):
    system = catalog.instantiate("T4,8")
    doc = lts_to_dict(system)
    path = tmp_path / "t48.json"
    path.write_text(json.dumps(doc, sort_keys=True))
    assert main(["--format", "json", "catalog", "show", "T4,8"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert lts_from_dict(shown) == system


@pytest.mark.parametrize("field,value", [("name", ["T3,2"]), ("index_fn", 5)])
def test_degen_verify_malformed_source(tmp_path, capsys, field, value):
    doc = dg.witness_to_dict(dg.table4_witness())
    doc["source"][field] = value
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    assert main(["degen", "verify", str(path)]) == 2
    assert "MalformedInput" in capsys.readouterr().err


_SCALED = [["t", "0", "0", "0"], ["0", "t", "0", "0"], ["0", "0", "t", "0"], ["0", "0", "0", "t"]]
_IDENTITY = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]


@pytest.mark.parametrize("source,target,basis", [
    ({"name": "T4,2", "lambda": "3"}, {"name": "T4,1", "lambda": "5"}, _SCALED),
    ({"name": "T4,2", "index_fn": "t"}, {"name": "T4,1"}, _SCALED),
    ({"name": "T4,2"}, {"name": "T4,1", "lambda": "5"}, _SCALED),
    ({"name": "T4,6", "lambda": "2"}, {"name": "T4,6", "lambda": "2", "index_fn": "t"}, _IDENTITY),
], ids=["lambda-on-fixed-ends", "index-fn-on-fixed-source", "lambda-on-fixed-target",
        "index-fn-on-target"])
def test_degen_verify_refuses_parameters_an_end_does_not_use(tmp_path, capsys, source, target,
                                                              basis):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"source": source, "target": target, "basis": basis}))
    assert main(["degen", "verify", str(path)]) == 2
    assert "MalformedInput" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["2^99999999999", "((2^64)^64)^64",
                                   pytest.param("7" * 5000, id="5000-digit-literal")])
def test_huge_power_rejected_at_once(tmp_path, capsys, value):
    path = tmp_path / "power.json"
    path.write_text(json.dumps({"dim": 2, "products": [{"args": [1, 2, 1],
                                                        "value": {"1": value}}]}))
    start = time.monotonic()
    assert main(["check", str(path)]) == 2
    assert time.monotonic() - start < 1
    assert capsys.readouterr().err.startswith("error: MalformedInput: products: ")


DEEP_SIGNS, DEEP_PARENS = "-" * 5000 + "1", "(" * 1000 + "1" + ")" * 1000


def deep_value_argv(tmp_path, entry, value):
    """argv for an entry point that parses value, writing the document it reads."""
    path = tmp_path / "deep.json"
    if entry == "catalog show":
        return ["catalog", "show", "T4,6", f"--lambda={value}"]
    if entry == "check":
        doc = {"dim": 3, "products": [{"args": [1, 2, 1], "value": {"3": value}}]}
    elif entry == "extend":
        doc = {"base": "T2,1", "thetas": [{"coeffs": [{"ijk": [1, 2, 1], "value": value}]}]}
    else:
        doc = {"source": {"name": "T3,2"}, "target": {"name": "T3,1"},
               "basis": [[value, "0", "0"], ["0", "t", "0"], ["0", "0", "t"]]}
    path.write_text(json.dumps(doc))
    return [*entry.split(), str(path)]


@pytest.mark.parametrize("entry", ["check", "extend", "catalog show", "degen verify"])
def test_parentheses_nested_past_the_bound_exit_2(tmp_path, capsys, entry):
    assert main(deep_value_argv(tmp_path, entry, DEEP_PARENS)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "parentheses nested more than 100 deep" in err


@pytest.mark.parametrize("entry", ["check", "extend", "catalog show", "degen verify"])
def test_a_long_run_of_signs_reads_as_one_sign(tmp_path, capsys, entry):
    # 5000 minus signs are an even number of them: the value is 1
    outcomes = []
    for value in (DEEP_SIGNS, "1"):
        outcomes.append((main(deep_value_argv(tmp_path, entry, value)), capsys.readouterr()))
    assert outcomes[0] == outcomes[1]


def test_json_nested_past_the_interpreter_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: MalformedInput: file: ") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["-1/2", "-i", "-2", "-(1+i)"])
@pytest.mark.parametrize("command", [
    ["catalog", "show", "T4,6"],
    ["degen", "nondegen", "{r}", "--target", "T4,6"],
], ids=["catalog-show", "degen-nondegen"])
def test_a_negative_lambda_reads_as_with_an_equals_sign(tmp_path, capsys, command, value):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(dg.separating_set_to_dict(dg.table3_separating_set(3))))
    argv = [arg.format(r=path) for arg in command]
    assert build_parser().parse_args(argv + ["--lambda", value]).lam == value
    outcomes = []
    for option in (["--lambda", value], [f"--lambda={value}"]):
        outcomes.append((main(argv + option), capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] in (0, 1) and outcomes[0][1].err == ""


def test_a_value_starting_with_two_dashes_stays_an_option(capsys):
    with pytest.raises(SystemExit) as info:
        main(["catalog", "show", "T4,6", "--lambda", "--format"])
    assert info.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["catalog", "show", "T4,6", "--lambda=--"],
    ["catalog", "show", "T4,6", "--lam=--"],
    ["degen", "nondegen", "r.json", "--target=--"],
    ["degen", "graph", "--dim=--"],
    ["--format=--", "catalog", "list"],
])
def test_an_option_given_the_value_double_dash_is_a_usage_error(capsys, argv):
    # argparse drops an explicit "--" value and hands the handler an empty list
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_an_empty_lambda_is_a_parse_error_on_both_commands(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(dg.separating_set_to_dict(dg.table3_separating_set(3))))
    for argv in (["catalog", "show", "T4,6"], ["degen", "nondegen", str(path), "--target", "T4,6"]):
        for value, text in (("", "''"), ("1+", "'1+'"), ("(2*", "'(2*'")):
            assert main(argv + [f"--lambda={value}"]) == 2
            assert capsys.readouterr().err == (
                f"error: ParseError: input ended where an operand was expected in {text}\n")


@pytest.mark.parametrize("source,target,field", [
    ({"name": "T4,6", "lambda": "2", "index_fn": "t"}, {"name": "T4,1"}, "source"),
    ({"name": "T4,6"}, {"name": "T4,1"}, "source"),
    ({"name": "T4,7"}, {"name": "T4,6"}, "target"),
    ({"name": "T4,2"}, {"name": "T9,9"}, "target"),
], ids=["both-parameters", "family-source-without-one", "family-target-without-one",
        "unknown-target"])
def test_degen_verify_refuses_an_end_at_load(tmp_path, capsys, monkeypatch, source, target,
                                             field):
    doc = {"source": source, "target": target, "basis": _SCALED}
    with pytest.raises(MalformedInput) as info:
        dg.witness_from_dict(doc)
    assert info.value.field == field
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(dg, "verify_degeneration", None)  # refused before verification
    assert main(["degen", "verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: MalformedInput: {field}: ") and err.count("\n") == 1


def _long_error_argv(tmp_path, case):
    path = tmp_path / "long.json"
    if case == "extend-long-cocycle-value":
        path.write_text(json.dumps({"base": "T2,1", "thetas": [
            {"coeffs": [{"ijk": [1, 2, 1], "value": "1" + "+x" * 3000}]}]}))
        return ["extend", str(path)], "MalformedInput: coeffs: unexpected character 'x'", "+x+x'"
    if case == "degen-verify-long-name":
        path.write_text(json.dumps({"source": {"name": "T" * 5000}, "target": {"name": "T3,1"},
                                    "basis": [["t"]]}))
        return ["degen", "verify", str(path)], "MalformedInput: source: unknown system", "TTT'"
    path.write_text(json.dumps({"dim": 3, "products": [
        {"args": [1, 2, 1], "value": {"3": "1" + "+x" * 3000}}]}))
    return ["check", str(path)], "MalformedInput: products: unexpected character 'x'", "+x+x'"


@pytest.mark.parametrize("case", ["extend-long-cocycle-value", "degen-verify-long-name",
                                  "check-long-value"])
def test_a_long_error_keeps_its_head_and_tail_in_200_characters(tmp_path, capsys, case):
    argv, head, tail = _long_error_argv(tmp_path, case)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) <= 201
    assert err.startswith("error: " + head) and " ... " in err and err.endswith(tail + "\n")



# One rule per document element: the same bad element gets the same answer from every reader
# that takes it.  A case is (command, document, path to the element, bad value, field).
_SYSTEM = {"dim": 3, "products": [{"args": [1, 2, 1], "value": {"3": "1"}}]}
_SPEC = {"base": "T2,1", "thetas": [{"system": "T2,1",
                                     "coeffs": [{"ijk": [1, 2, 1], "value": "1"}]}]}
_SEPARATING = {"dim": 4, "equal": [[[1, 2, 1, 3], [2, 1, 1, 3], "-1"]]}
_INDEXED = [  # readers of a scalar and an index tuple: the field, where each sits, the tuple
    ("check", _SYSTEM, "products", ("products", 0, "value", "3"), ("products", 0, "args"),
     [1, 2, 1], 3),
    ("extend", _SPEC, "coeffs", ("thetas", 0, "coeffs", 0, "value"),
     ("thetas", 0, "coeffs", 0, "ijk"), [1, 2, 1], 2),
    ("degen nondegen", _SEPARATING, "equal", ("equal", 0, 2), ("equal", 0, 0), [1, 2, 1, 3], 4),
]


def _bad_element_cases():
    for command, doc, field, scalar, index, good, dim in _INDEXED:
        yield f"{command}-scalar-int", command, doc, scalar, 1, field
        for label, bad in (("zero", 0), ("above-dim", dim + 1), ("bool", True)):
            yield f"{command}-index-{label}", command, doc, index, [bad] + good[1:], field
    for name, doc, path in (("source-lambda", dg.TABLE2_WITNESSES[-1], ("source", "lambda")),
                            ("target-lambda", dg.TABLE2_WITNESSES[0], ("target", "lambda")),
                            ("index_fn", dg.TABLE4_WITNESS, ("source", "index_fn"))):
        yield f"degen verify-{name}-int", "degen verify", doc, path, 2, path[1]
    for label, bad in (("int", 1), ("null", None), ("list", ["t"])):
        yield f"degen verify-basis-{label}", "degen verify", dg.DIM3_WITNESS, ("basis", 0, 0), \
            bad, "basis"
    for command, doc, bads in (("check", _SYSTEM, (17, -1, True, "3", None)),
                               ("degen nondegen", _SEPARATING, (0, 17, True, "4"))):
        for bad in bads:
            yield f"{command}-dim-{bad!r}", command, doc, ("dim",), bad, "dim"
    for bad in ("T4,6", 5, "T9,9", [1]):
        yield f"extend-base-{bad!r}", "extend", _SPEC, ("base",), bad, "base"
        yield f"extend-system-{bad!r}", "extend", _SPEC, ("thetas", 0, "system"), bad, "system"


_BAD_ELEMENT_CASES = list(_bad_element_cases())


def _element_argv(command, path):
    return command.split() + [str(path)] + (["--target", "T4,2"] if command == "degen nondegen"
                                            else [])


@pytest.mark.parametrize("command,doc,path,bad,field", [case[1:] for case in _BAD_ELEMENT_CASES],
                         ids=[case[0] for case in _BAD_ELEMENT_CASES])
def test_a_bad_element_is_malformed_input_naming_its_field(tmp_path, capsys, command, doc, path,
                                                           bad, field):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(doc))
    assert main(_element_argv(command, file)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: MalformedInput: {field}: ") and err.count("\n") == 1
    assert "--lambda" not in err
    assert not any(text in err for text in ("bytes-like", "unpack", "NoneType", "object of type"))


def test_a_well_formed_reference_document_still_loads(tmp_path, capsys):
    # the documents the bad-element cases start from are accepted as they are
    for command, doc in (("check", _SYSTEM), ("extend", _SPEC), ("degen verify", dg.DIM3_WITNESS),
                         ("degen nondegen", _SEPARATING)):
        file = tmp_path / "good.json"
        file.write_text(json.dumps(doc))
        assert main(_element_argv(command, file)) in (0, 1)
        assert capsys.readouterr().err == ""
