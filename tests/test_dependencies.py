"""The package runs on the Python standard library alone."""

import ast
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_cli_imports_only_the_standard_library():
    code = ("import sys; before = set(sys.modules); import lietriple.cli; "
            "print(*sorted(set(sys.modules) - before))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                            text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
                            check=True)
    loaded = result.stdout.split()
    tops = {name.split(".")[0] for name in loaded}
    assert sorted(tops - sys.stdlib_module_names) == ["lietriple"]


def test_no_verdict_rests_on_randomness():
    # every verdict is proved exactly; the seeded sampler lives in tests/conftest.py
    refused = {"random", "secrets"}
    found = []
    for path in sorted((ROOT / "src" / "lietriple").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in modules
                      if name.split(".")[0] in refused]
    assert found == []


def test_no_runtime_dependency_declared():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project.get("dependencies", []) == []


def test_invariants_are_cached_only_through_the_memo():
    # _set_rows creates a system's cache and _memo alone reads and fills it
    package = ROOT / "src" / "lietriple"
    tree = ast.parse((package / "core.py").read_text())
    allowed = [range(node.lineno, node.end_lineno + 1) for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name in ("_set_rows", "_memo")]
    assert len(allowed) == 2
    stray = [f"{path.name}:{number}" for path in sorted(package.glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), start=1)
             if "_cache" in line
             and not (path.name == "core.py" and any(number in lines for lines in allowed))]
    assert stray == []


def test_every_import_is_used():
    # no linter runs on the package, so a name imported and then left unused stays
    stale = []
    for path in sorted((ROOT / "src" / "lietriple").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}  # bound name -> line
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                exported = set(ast.literal_eval(node.value))
        stale += [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
                  if name not in used | exported]
    assert stale == []


def test_validity_is_checked_not_carried():
    # a check's result lives in the memo or is read where it is needed, never in a flag
    flags = {"verified", "_closed"}
    refused = {ast.arg: ("arg", flags), ast.keyword: ("arg", flags),
               ast.Attribute: ("attr", {"verified", "closed", "_closed", "_known",
                                        "_ensure_closed"}),
               ast.Name: ("id", {"_known", "_ensure_closed"}),
               ast.FunctionDef: ("name", {"_known", "_ensure_closed"})}
    found = []
    for path in sorted((ROOT / "src" / "lietriple").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            field, names = refused.get(type(node), (None, ()))
            if field is not None and getattr(node, field) in names:
                found.append(f"{path.name}:{node.lineno} {getattr(node, field)}")
    assert found == []


def test_field_constants_live_in_scalars():
    # zero, one and coercion come from the field (scalars.field_of, coerce, .zero, .one),
    # not from a per-module helper or a product with the integer 0
    retired = {"_normalize_scalar", "_zero_like", "_zero_one", "_inv"}
    found = []
    for path in sorted((ROOT / "src" / "lietriple").glob("*.py")):
        if path.name == "scalars.py":
            continue
        tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
                  if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT,
                                      tokenize.INDENT, tokenize.DEDENT)]
        for before, tok, after in zip([None] + tokens, tokens, tokens[1:] + [None]):
            if tok.type == tokenize.NAME and tok.string in retired:
                found.append(f"{path.name}:{tok.start[0]} {tok.string}")
            zero = tok.type == tokenize.NUMBER and tok.string == "0"
            if zero and any(other is not None and other.string == "*" for other in (before, after)):
                found.append(f"{path.name}:{tok.start[0]} * 0")
    assert found == []


def test_gaussian_integer_encoding_lives_in_scalars_and_packed():
    # only scalars.py reads a GaussianRational's triple and only packed.py chooses
    # a packing width; every other module clears Q(i) values through
    # scalars.gaussian_integers and packs through lietriple.packed
    found = []
    for path in sorted((ROOT / "src" / "lietriple").glob("*.py")):
        if path.name in ("scalars.py", "packed.py"):
            continue
        found += [f"{path.name}:{node.lineno} {node.attr}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and node.attr in ("_t", "bit_length")]
    assert found == []


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_document_elements_are_read_by_the_shared_helpers():
    # a scalar is a JSON string: no reader turns a value into one with str() before parsing it,
    # and the JSON-integer test (an int that is not a bool) is core._integer_in's alone
    parsers = {"parse_scalar", "parse_rational_function", "_scalar"}
    coerced, integer_tests = [], []
    for path in sorted((ROOT / "src" / "lietriple").glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) in parsers:
                coerced += [f"{path.name}:{node.lineno}" for arg in node.args
                            if isinstance(arg, ast.Call) and _called_name(arg) == "str"]
            if isinstance(node, ast.BoolOp):
                kinds = {name.id for call in ast.walk(node) if isinstance(call, ast.Call)
                         and _called_name(call) == "isinstance" and len(call.args) == 2
                         for name in ast.walk(call.args[1]) if isinstance(name, ast.Name)}
                if {"int", "bool"} <= kinds:
                    owner = min((f for f in functions
                                 if f.lineno <= node.lineno <= f.end_lineno),
                                key=lambda f: f.end_lineno - f.lineno, default=None)
                    integer_tests.append(f"{path.name}:{getattr(owner, 'name', None)}")
    assert coerced == []
    assert integer_tests == ["core.py:_integer_in"]


def test_scalar_texts_are_parsed_only_through_the_memo():
    # scalars._read alone builds a scalars._Parser, so every reader of a scalar string
    # shares its memo; cli._Parser is an argparse class of the same name
    found = []
    for path in sorted((ROOT / "src" / "lietriple").glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name != "scalars.py":
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(
                          "scalars") and "_Parser" in [alias.name for alias in node.names]
                      or isinstance(node, ast.Attribute) and node.attr == "_Parser"]
            continue
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        found += [f"{path.name}:" + min((f for f in functions
                                         if f.lineno <= node.lineno <= f.end_lineno),
                                        key=lambda f: f.end_lineno - f.lineno).name
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "_Parser"]
    assert found == ["scalars.py:_read"]


def test_a1_is_compared_in_one_helper():
    # core._antisymmetric alone compares a row with its mirror, a value equal to a negated
    # one (on lanes and on plain rows), and Lts._satisfies_a1 and the axiom kernel both
    # call it; scalars.py compares parts of a canonical form that way, and is left out
    compared, callers = [], set()
    for path in sorted((ROOT / "src" / "lietriple").glob("*.py")):
        if path.name == "scalars.py":
            continue
        tree = ast.parse(path.read_text())
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

        def owner(node):
            return path.name + ":" + min((f for f in functions
                                          if f.lineno <= node.lineno <= f.end_lineno),
                                         key=lambda f: f.end_lineno - f.lineno).name

        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
                if any(isinstance(side, ast.UnaryOp) and isinstance(side.op, ast.USub)
                       and not isinstance(side.operand, ast.Constant)
                       for side in [node.left, *node.comparators]):
                    compared.append(owner(node))
            if isinstance(node, ast.Call) and _called_name(node) == "_antisymmetric":
                callers.add(owner(node))
    assert compared == ["core.py:_antisymmetric"] * 2
    assert callers == {"core.py:_satisfies_a1", "core.py:_axiom_residuals"}


def test_only_eliminate_reduces_rows():
    # _eliminate is the package's one row reduction, and it is exact: rref stays public
    # for callers outside the package, no module names it, no dense determinant loop is
    # left, and linalg does no arithmetic mod p
    found = []
    for path in sorted((ROOT / "src" / "lietriple").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [getattr(node, "id", None), getattr(node, "attr", None)])
            found += [f"{path.name}:{node.lineno}" for name in names if name == "rref"]
    assert found == []
    tree = ast.parse((ROOT / "src" / "lietriple" / "linalg.py").read_text())
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "rref" in functions
    assert not set(functions) & {"determinant", "_kernel_basis"}
    # every elimination is exact: no modular row picking, no prime, no residue arithmetic
    assert not set(functions) & {"_cleared_rows", "_independent_mod_p", "_kernel_holds"}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not names & {"_P", "_IOTA"}
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pow"
                and len(node.args) == 3]
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(getattr(node, "op", None), ast.Mod)]
    assert [arg.arg for arg in functions["_eliminate"].args.args] == ["rows", "ncols"]


def test_mat_inverse_is_the_only_matrix_inverse():
    # witness bases take (A^T)^-1 from their Cartan form or from linalg.mat_inverse;
    # packed.py keeps no inverse of its own over Z[i][t]
    tree = ast.parse((ROOT / "src" / "lietriple" / "packed.py").read_text())
    functions = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not functions & {"_fraction_free_inverse", "_pair_product"}
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "prod" not in imported
    assert "mat_inverse" in imported
