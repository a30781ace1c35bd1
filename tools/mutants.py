"""Mutation check of one module: flip one operator, comparison or boolean at a time.

    python tools/mutants.py src/lietriple/linalg.py [--workdir DIR] [--function NAME ...]

Every mutant is written into a copy of the repository (made under ``--workdir``,
a temporary directory by default; the checkout itself is never changed).  The
test files that import the module must pass unmutated; they run against each
mutant first, the module's own test file leading, stopping at the first
failure, and a mutant they all pass then runs against the full tier-1.  The
mutants that survive both are printed with their line, to be pinned by a test
or recorded as equivalent.  Each ``--function NAME`` (repeatable) limits the
flips to the sites inside the functions or methods of that name.  Not part of
tier-1.
"""

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FLIPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
         ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.And: ast.Or, ast.Or: ast.And}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def sites(tree, functions=()):
    """(node, index) of every flippable operator or boolean constant, in walk order;
    the index picks one operator of a comparison chain.  With ``functions``, only the
    sites inside the functions of those names count, each once."""
    roots = [node for node in ast.walk(tree) if isinstance(node, DEFS)
             and node.name in functions] if functions else [tree]
    nodes = {id(node): node for root in roots for node in ast.walk(root)}  # a nested def once
    for node in nodes.values():
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in FLIPS:
            yield node, None
        elif isinstance(node, ast.Compare):
            yield from ((node, k) for k, op in enumerate(node.ops) if type(op) in FLIPS)
        elif isinstance(node, ast.Constant) and isinstance(node.value, bool):
            yield node, None


def mutate(source, k, functions=()):
    """The source with its k-th site flipped, and a description of the flip."""
    tree = ast.parse(source)
    node, index = list(sites(tree, functions))[k]
    if isinstance(node, ast.Constant):
        old = node.value
        new = node.value = not old
    elif isinstance(node, ast.Compare):
        old = node.ops[index]
        new = node.ops[index] = FLIPS[type(old)]()
    else:
        old = node.op
        new = node.op = FLIPS[type(old)]()
    name = lambda x: x if isinstance(x, bool) else type(x).__name__
    return ast.unparse(tree), f"line {node.lineno}: {name(old)} -> {name(new)}"


def passes(work, files):
    """Whether pytest passes in the copy: on the given files, or on everything when none
    are given.  A run that times out counts as failing."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"))
    try:
        return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *files], cwd=work, env=env, capture_output=True,
                              timeout=900).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def run(work, module, functions=()):
    """(number of mutants, the flips that survived) of the module, or of the named
    functions in it, in a copy at ``work``."""
    shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis"))
    stem, source = module.stem, (ROOT / module).read_text()
    imports = re.compile(rf"lietriple\.{stem}\b|from lietriple import [^\n]*\b{stem}\b")
    files = sorted((str(p.relative_to(work)) for p in (work / "tests").glob("test_*.py")
                    if imports.search(p.read_text())), key=lambda f: stem not in f)
    if not passes(work, files):
        sys.exit(f"{' '.join(files)} fail before any mutation")
    count, survivors = len(list(sites(ast.parse(source), functions))), []
    for k in range(count):
        mutant, flip = mutate(source, k, functions)
        (work / module).write_text(mutant)
        survived = passes(work, files) and passes(work, [])
        survivors += [flip] * survived
        print(f"{k + 1}/{count} {flip}: {'SURVIVED' if survived else 'killed'}", flush=True)
    return count, survivors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", type=Path)
    parser.add_argument("--workdir", type=Path, default=None)
    parser.add_argument("--function", action="append", default=[], metavar="NAME",
                        help="mutate only inside the functions of this name (repeatable)")
    args = parser.parse_args()
    if args.workdir and args.workdir.resolve().is_relative_to(ROOT):
        parser.error("--workdir must lie outside the repository, which is copied into it")
    module = args.module.resolve().relative_to(ROOT)
    defined = {node.name for node in ast.walk(ast.parse((ROOT / module).read_text()))
               if isinstance(node, DEFS)}
    if missing := sorted(set(args.function) - defined):
        parser.error(f"{module} defines no function {', '.join(missing)}")
    work = Path(tempfile.mkdtemp(dir=args.workdir)) / "repo"
    try:
        count, survivors = run(work, module, args.function)
    finally:
        shutil.rmtree(work.parent)
    scope = f" ({', '.join(args.function)})" if args.function else ""
    print(f"{module}{scope}: {count - len(survivors)} of {count} mutants killed")
    print("\n".join(f"  survivor {flip}" for flip in survivors))


if __name__ == "__main__":
    main()
