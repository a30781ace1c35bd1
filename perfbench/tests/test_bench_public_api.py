"""Guard: the benchmark reaches lietriple only through public, lasting names.

Private (single-underscore) names, the sampling module, the randomized
non-degeneration tools and helpers slated for removal may change or go away
as the library is reworked; a benchmark that used them would have to be
edited by the same change it is meant to measure.
"""

import ast
import os

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FORBIDDEN = {"sampling", "ExactRandom", "orbit_escape_search", "random_point",
             "mat_vec", "transpose", "field_arithmetic", "gl_action"}


def _sources():
    for name in sorted(os.listdir(BENCH)):
        if name.endswith(".py"):
            path = os.path.join(BENCH, name)
            with open(path) as handle:
                yield name, ast.parse(handle.read(), path)


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _lietriple_aliases(tree):
    """Names bound by `import lietriple...` or `from lietriple... import ...`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "lietriple":
                    names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lietriple"):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def violations(name, tree):
    found = []
    aliases = _lietriple_aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lietriple"):
            parts = node.module.split(".") + [a.name for a in node.names]
            found += [f"{name}: imports {p}" for p in parts if _private(p) or p in FORBIDDEN]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "lietriple":
                    found += [f"{name}: imports {p}" for p in parts
                              if _private(p) or p in FORBIDDEN]
        elif isinstance(node, ast.Attribute):
            if _private(node.attr):
                found.append(f"{name}: uses private attribute .{node.attr}")
            if node.attr in FORBIDDEN:
                found.append(f"{name}: uses .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN and node.id in aliases:
            found.append(f"{name}: uses {node.id}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
            if text in FORBIDDEN or text == "randomized" or "lietriple.sampling" in text \
                    or text.startswith("lietriple._"):
                found.append(f"{name}: names {text!r}")
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if called == "getattr" and len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
                if _private(str(node.args[1].value)):
                    found.append(f"{name}: getattr of {node.args[1].value!r}")
            if called == "borel_stability_evidence":
                modes = [k.value for k in node.keywords if k.arg == "mode"]
                if not (len(modes) == 1 and isinstance(modes[0], ast.Constant)
                        and modes[0].value == "symbolic"):
                    found.append(f"{name}: borel_stability_evidence without mode='symbolic'")
    return found


def test_benchmark_uses_only_public_lietriple_names():
    problems = []
    for name, tree in _sources():
        problems += violations(name, tree)
    assert problems == []


def test_guard_catches_each_forbidden_use():
    samples = {
        "from lietriple.core import _zero_tensor": "imports _zero_tensor",
        "import lietriple.sampling": "imports sampling",
        "from lietriple.degeneration import orbit_escape_search": "imports orbit_escape_search",
        "from lietriple.linalg import mat_vec, transpose": "imports mat_vec",
        "from lietriple.scalars import field_arithmetic": "imports field_arithmetic",
        "from lietriple.cohomology import gl_action": "imports gl_action",
        "x = system._cache": "private attribute ._cache",
        "dg.borel_stability_evidence(s, trials=100)": "without mode='symbolic'",
        "dg.borel_stability_evidence(s, mode='randomized')": "names 'randomized'",
        "getattr(core, '_a3_residual')": "getattr of '_a3_residual'",
    }
    for source, expected in samples.items():
        found = violations("sample", ast.parse(source))
        assert any(expected in line for line in found), (source, found)
