"""Command-line front end: ``lts <subcommand> ...``.

Exit codes: 0 on success, 1 when a verification fails (axioms, degeneration,
classification mismatch), 2 on malformed input.  ``--format json`` emits
machine-stable documents (sorted keys, canonical scalar strings).  A system
document's constants are parsed in the field it declares, Q or Q(i).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog, degeneration
from .cohomology import (
    coboundary_space,
    cocycle_from_dict,
    cocycle_space,
    cohomology,
)
from .core import AxiomReport, lts_from_dict, lts_to_dict
from .errors import AxiomViolation, InputError, LietripleError, MalformedInput
from .extension import ExtensionSpec, extend
from .scalars import parse_scalar, scalar_str

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_MALFORMED = 2


def _emit(args, payload, text_lines, ok=True):
    """Print the payload as JSON or the text lines; the exit code is 0 if ok, else 1."""
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)
    return EXIT_OK if ok else EXIT_FAILED


def _load_json(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise MalformedInput("file", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise MalformedInput("file", f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise MalformedInput("file", f"{path} nests too deeply to read")


def _cmd_check(args):
    try:
        lts_from_dict(_load_json(args.file))  # loading checks the axioms
        report = AxiomReport(True)
    except AxiomViolation as exc:
        report = AxiomReport(False, exc.identity, exc.indices, exc.residual)
    payload = {"ok": report.ok}
    if not report.ok:
        payload.update({"identity": report.identity, "indices": list(report.indices)})
    return _emit(args, payload, [str(report)], report.ok)


def _cmd_invariants(args):
    system = lts_from_dict(_load_json(args.file))
    fp = system.fingerprint()
    nil = system.nilpotency()
    payload = {
        "dim": fp.dim,
        "dimAnn": fp.dim_ann,
        "dimDerived": fp.dim_derived,
        "dimDer": fp.dim_der,
        "nilpotent": nil.is_nilpotent,
        "nilpotencyIndex": fp.nilpotency_index,
        "seriesDims": list(nil.series_dims),
        "dimZ3": fp.dim_z3,
        "dimH3": fp.dim_h3,
        "orbitDim": system.orbit_dimension(),
    }
    shown = dict(payload, nilpotent=f"{nil.is_nilpotent} (index {fp.nilpotency_index}, "
                                    f"series {payload['seriesDims']})")
    labels = {"dim": "dim", "dimAnn": "dim Ann", "dimDerived": "dim [T,T,T]", "dimDer": "dim Der",
              "nilpotent": "nilpotent", "dimZ3": "dim Z3", "dimH3": "dim H3",
              "orbitDim": "orbit dim"}
    return _emit(args, payload, [f"{label:12s} = {shown[key]}" for key, label in labels.items()])


def _cocycle_text(cocycle):
    parts = []
    for (i, j, k), val in sorted(cocycle.coeffs.items()):
        body = f"D[{i},{j},{k}]"
        if val == 1:
            parts.append(body)
        elif val == -1:
            parts.append(f"-{body}")
        else:
            text = scalar_str(val)
            if "+" in text[1:] or "-" in text[1:]:
                text = f"({text})"
            parts.append(f"{text}*{body}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _cmd_cohomology(args):
    system = lts_from_dict(_load_json(args.file))
    z3 = cocycle_space(system)
    b3 = coboundary_space(system)
    dim_h3, reps = cohomology(system)
    payload = {"dimZ3": z3.dim, "dimB3": b3.dim, "dimH3": dim_h3}
    lines = [f"dim Z3 = {z3.dim}", f"dim B3 = {b3.dim}", f"dim H3 = {dim_h3}"]
    for title, key, space in (("Z3 basis:", "z3Basis", z3), ("B3 basis:", "b3Basis", b3),
                              ("H3 representatives:", "h3Representatives", reps)):
        payload[key] = [_cocycle_text(c) for c in space.basis]
        lines += [title] + [f"  {text}" for text in payload[key]]
    return _emit(args, payload, lines)


def _cmd_extend(args):
    doc = _load_json(args.file)
    if not isinstance(doc, dict) or "base" not in doc or "thetas" not in doc:
        raise MalformedInput("spec", "extension spec needs base and thetas")
    base = catalog._system(doc["base"], "base")
    if not isinstance(doc["thetas"], list) or not all(
            isinstance(entry, (list, dict)) for entry in doc["thetas"]):
        raise MalformedInput("thetas", "expected a list of cocycle documents or coeffs lists")
    thetas = []
    for entry in doc["thetas"]:
        entry = entry if isinstance(entry, dict) else {"coeffs": entry}
        thetas.append(cocycle_from_dict(entry, ambient=base))
    extended = extend(ExtensionSpec(base, thetas))
    payload = lts_to_dict(extended)
    lines = [f"extension has dimension {extended.dim}", json.dumps(payload, sort_keys=True)]
    return _emit(args, payload, lines)


def _cmd_classify(args):
    system = lts_from_dict(_load_json(args.file))
    result = catalog.classify(system)
    lam = None if result.lam is None else scalar_str(result.lam)
    payload = {
        "name": result.name,
        "lambda": lam,
        "confidence": result.confidence,
        "xi": None if result.xi is None else scalar_str(result.xi),
    }
    line = result.name + ("" if lam is None else f" (lambda = {lam})") + f" [{result.confidence}]"
    if result.note:
        payload["note"] = result.note
        line += f" - {result.note}"
    return _emit(args, payload, [line])


def _lambda(args):
    """The ``--lambda`` value as a scalar, or None when it is not given."""
    return None if args.lam is None else parse_scalar(args.lam)


def _cmd_catalog_list(args):
    names = list(catalog.ENTRIES)
    return _emit(args, {"entries": names}, names)


def _cmd_catalog_show(args):
    payload = lts_to_dict(catalog.instantiate(args.name, _lambda(args)))
    return _emit(args, payload, [json.dumps(payload, sort_keys=True)])


def _cmd_catalog_table1(args):
    rows = catalog.table1_report()
    width = max(len(row["table"]) for row in rows)
    lines = [f"{'system':8s} {'lambda':8s} {'multiplication table':{width}s} "
             f"{'computed':>8s} {'published':>9s}  match"]
    for row in rows:
        lam = row["lambda"] if row["lambda"] is not None else "-"
        lines.append(f"{row['system']:8s} {lam:8s} {row['table']:{width}s} "
                     f"{row['computed']:8d} {row['published']:9d}  "
                     f"{'yes' if row['match'] else 'NO'}")
    return _emit(args, {"rows": rows}, lines, all(r["match"] for r in rows))


def _cmd_degen_verify(args):
    witness = degeneration.witness_from_dict(_load_json(args.file))
    report = degeneration.verify_degeneration(witness)
    payload = {"ok": report.ok,
               "problems": [{"kind": kind, "indices": list(idx), "detail": detail}
                            for kind, idx, detail in report.problems]}
    return _emit(args, payload, [str(report)], report.ok)


def _cmd_degen_graph(args):
    graph = degeneration.degeneration_graph(args.dim)
    edges = sorted(graph.edges, key=lambda e: (e.source, e.target))
    payload = {
        "dim": graph.dim,
        "nodes": [{"name": n.name, "orbitDim": n.orbit_dim,
                   "figureStratum": n.figure_stratum, "kind": n.kind,
                   "closureDim": n.closure_dim} for n in graph.nodes],
        "edges": [{"source": e.source, "target": e.target, "kind": e.kind} for e in edges],
        "maximal": graph.maximal,
    }
    lines = []
    for stratum in sorted({n.figure_stratum for n in graph.nodes
                           if n.figure_stratum is not None}, reverse=True):
        members = [n for n in graph.nodes if n.figure_stratum == stratum]
        names = ", ".join(f"{n.name} (orbit {n.orbit_dim})" for n in members)
        lines.append(f"stratum {stratum:2d}: {names}")
    lines.append("edges:")
    lines.extend(f"  {e.source} -> {e.target}  [{e.kind}]" for e in edges)
    lines.append(f"maximal nodes: {', '.join(graph.maximal)}")
    return _emit(args, payload, lines)


def _cmd_degen_nondegen(args):
    separating = degeneration.separating_set_from_dict(_load_json(args.file))
    target = catalog.instantiate(args.target, _lambda(args))
    if target.dim != separating.dim:
        raise MalformedInput("target", "dimension mismatch with separating set")
    stability = degeneration.borel_stability_evidence(separating)
    violation = separating.first_violation(target.rows())
    membership = degeneration.EvidenceReport(
        "target-membership", violation is not None,
        f"target outside the locus: {violation}" if violation else "target lies in the locus")
    payload = {
        "stability": {"kind": stability.kind, "ok": stability.ok, "detail": stability.detail},
        "targetInLocus": violation is None,
        "evidenceLevel": "separating-set (symbolic stability proof)",
    }
    lines = [str(stability), str(membership),
             "orbit question: not decided here (the target's orbit may still meet the locus)"]
    return _emit(args, payload, lines, stability.ok and membership.ok)


class _Parser(argparse.ArgumentParser):
    """Reads ``--lambda -1/2`` as ``--lambda=-1/2`` (argparse alone takes ``-2``, not ``-i``)
    and refuses ``--option=--``, which argparse would hand on as an empty list."""

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for token in sys.argv[1:] if args is None else args:
            if joined[-1:] == ["--lambda"] and token.startswith("-") and not token.startswith("--"):
                joined[-1] += "=" + token
            else:
                joined.append(token)
        return super().parse_known_args(joined, namespace)

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            self.error(f"argument {'/'.join(action.option_strings)}: expected one argument")
        return super()._get_values(action, arg_strings)


def build_parser():
    parser = _Parser(prog="lts", description="Exact computations with nilpotent Lie triple systems")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler in (
            ("check", "axiom-check a system document", _cmd_check),
            ("invariants", "structural invariants and fingerprint", _cmd_invariants),
            ("cohomology", "Z3/B3/H3 bases and dimensions", _cmd_cohomology),
            ("extend", "build an annihilator extension from a spec", _cmd_extend),
            ("classify", "match a system against the catalog", _cmd_classify)):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        p.set_defaults(func=handler)
    catalog_sub = sub.add_parser("catalog", help="catalog access").add_subparsers(
        dest="catalog_cmd", required=True)
    catalog_sub.add_parser("list").set_defaults(func=_cmd_catalog_list)
    show = catalog_sub.add_parser("show")
    show.add_argument("name")
    show.add_argument("--lambda", dest="lam", default=None, metavar="VALUE")
    show.set_defaults(func=_cmd_catalog_show)
    catalog_sub.add_parser("table1").set_defaults(func=_cmd_catalog_table1)

    degen_sub = sub.add_parser("degen", help="degeneration tooling").add_subparsers(
        dest="degen_cmd", required=True)
    verify = degen_sub.add_parser("verify")
    verify.add_argument("file")
    verify.set_defaults(func=_cmd_degen_verify)
    graph = degen_sub.add_parser("graph")
    graph.add_argument("--dim", type=int, choices=(3, 4), default=4)
    graph.set_defaults(func=_cmd_degen_graph)
    nondegen = degen_sub.add_parser("nondegen")
    nondegen.add_argument("file")
    nondegen.add_argument("--target", required=True)
    nondegen.add_argument("--lambda", dest="lam", default=None, metavar="VALUE")
    nondegen.set_defaults(func=_cmd_degen_nondegen)
    return parser


_MAX_LINE = 200  # a longer error line keeps its kind, field and reason around " ... "


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LietripleError as exc:
        line = f"error: {type(exc).__name__}: {exc}"
        if len(line) > _MAX_LINE:
            line = f"{line[:_MAX_LINE // 2 - 2]} ... {line[3 - _MAX_LINE // 2:]}"
        print(line, file=sys.stderr)
        return EXIT_MALFORMED if isinstance(exc, InputError) else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
