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
from .errors import (
    AxiomViolation,
    DimensionMismatch,
    DimensionUnsupported,
    LietripleError,
    MalformedInput,
    MissingParameter,
    ParseError,
    SingularParameter,
    UnknownName,
)
from .extension import ExtensionSpec, extend
from .scalars import parse_scalar, scalar_str

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_MALFORMED = 2


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


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
    _emit(args, payload, [str(report)])
    return EXIT_OK if report.ok else EXIT_FAILED


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
    lines = [f"dim          = {fp.dim}",
             f"dim Ann      = {fp.dim_ann}",
             f"dim [T,T,T]  = {fp.dim_derived}",
             f"dim Der      = {fp.dim_der}",
             f"nilpotent    = {nil.is_nilpotent} (index {fp.nilpotency_index}, series {list(nil.series_dims)})",
             f"dim Z3       = {fp.dim_z3}",
             f"dim H3       = {fp.dim_h3}",
             f"orbit dim    = {system.orbit_dimension()}"]
    _emit(args, payload, lines)
    return EXIT_OK


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
    payload = {
        "dimZ3": z3.dim,
        "dimB3": b3.dim,
        "dimH3": dim_h3,
        "z3Basis": [_cocycle_text(c) for c in z3.basis],
        "b3Basis": [_cocycle_text(c) for c in b3.basis],
        "h3Representatives": [_cocycle_text(c) for c in reps.basis],
    }
    lines = [f"dim Z3 = {z3.dim}", f"dim B3 = {b3.dim}", f"dim H3 = {dim_h3}",
             "Z3 basis:"] + [f"  {t}" for t in payload["z3Basis"]] + \
            ["B3 basis:"] + [f"  {t}" for t in payload["b3Basis"]] + \
            ["H3 representatives:"] + [f"  {t}" for t in payload["h3Representatives"]]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_extend(args):
    doc = _load_json(args.file)
    if not isinstance(doc, dict) or "base" not in doc or "thetas" not in doc:
        raise MalformedInput("spec", "extension spec needs base and thetas")
    base_doc = doc["base"]
    if isinstance(base_doc, str):
        base = catalog.instantiate(base_doc)
    else:
        base = lts_from_dict(base_doc)
    if not isinstance(doc["thetas"], list) or not doc["thetas"] or not all(
            isinstance(entry, (list, dict)) for entry in doc["thetas"]):
        raise MalformedInput("thetas", "expected a non-empty list of cocycle documents "
                                       "or coeffs lists")
    thetas = []
    for entry in doc["thetas"]:
        entry = entry if isinstance(entry, dict) else {"coeffs": entry}
        thetas.append(cocycle_from_dict(entry, ambient=base))
    extended = extend(ExtensionSpec(base, thetas))
    payload = lts_to_dict(extended)
    lines = [f"extension has dimension {extended.dim}", json.dumps(payload, sort_keys=True)]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_classify(args):
    system = lts_from_dict(_load_json(args.file))
    result = catalog.classify(system)
    payload = {
        "name": result.name,
        "lambda": None if result.lam is None else scalar_str(result.lam),
        "confidence": result.confidence,
        "xi": None if result.xi is None else scalar_str(result.xi),
    }
    if result.note:
        payload["note"] = result.note
    line = f"{result.name}"
    if result.lam is not None:
        line += f" (lambda = {scalar_str(result.lam)})"
    line += f" [{result.confidence}]"
    if result.note:
        line += f" - {result.note}"
    _emit(args, payload, [line])
    return EXIT_OK


def _cmd_catalog(args):
    if args.catalog_cmd == "list":
        names = list(catalog.ENTRIES)
        payload = {"entries": names}
        _emit(args, payload, names)
        return EXIT_OK
    if args.catalog_cmd == "show":
        lam = parse_scalar(args.lam) if args.lam is not None else None
        system = catalog.instantiate(args.name, lam)
        payload = lts_to_dict(system)
        lines = [json.dumps(payload, sort_keys=True)]
        _emit(args, payload, lines)
        return EXIT_OK
    if args.catalog_cmd == "table1":
        rows = catalog.table1_report()
        payload = {"rows": rows}
        width = max(len(row["table"]) for row in rows)
        lines = [f"{'system':8s} {'lambda':8s} {'multiplication table':{width}s} "
                 f"{'computed':>8s} {'published':>9s}  match"]
        for row in rows:
            lam = row["lambda"] if row["lambda"] is not None else "-"
            lines.append(f"{row['system']:8s} {lam:8s} {row['table']:{width}s} "
                         f"{row['computed']:8d} {row['published']:9d}  "
                         f"{'yes' if row['match'] else 'NO'}")
        _emit(args, payload, lines)
        return EXIT_OK if all(r["match"] for r in rows) else EXIT_FAILED
    raise MalformedInput("catalog", f"unknown catalog command {args.catalog_cmd!r}")


def _cmd_degen(args):
    if args.degen_cmd == "verify":
        witness = degeneration.witness_from_dict(_load_json(args.file))
        report = degeneration.verify_degeneration(witness)
        payload = {"ok": report.ok,
                   "problems": [{"kind": kind, "indices": list(idx), "detail": detail}
                                for kind, idx, detail in report.problems]}
        _emit(args, payload, [str(report)])
        return EXIT_OK if report.ok else EXIT_FAILED
    if args.degen_cmd == "graph":
        graph = degeneration.degeneration_graph(args.dim)
        payload = {
            "dim": graph.dim,
            "nodes": [{"name": n.name, "orbitDim": n.orbit_dim,
                       "figureStratum": n.figure_stratum, "kind": n.kind,
                       "closureDim": n.closure_dim} for n in graph.nodes],
            "edges": [{"source": e.source, "target": e.target, "kind": e.kind}
                      for e in sorted(graph.edges, key=lambda e: (e.source, e.target))],
            "maximal": graph.maximal,
        }
        lines = []
        for stratum in sorted({n.figure_stratum for n in graph.nodes
                               if n.figure_stratum is not None}, reverse=True):
            members = [n for n in graph.nodes if n.figure_stratum == stratum]
            names = ", ".join(f"{n.name} (orbit {n.orbit_dim})" for n in members)
            lines.append(f"stratum {stratum:2d}: {names}")
        lines.append("edges:")
        for e in sorted(graph.edges, key=lambda e: (e.source, e.target)):
            lines.append(f"  {e.source} -> {e.target}  [{e.kind}]")
        lines.append(f"maximal nodes: {', '.join(graph.maximal)}")
        _emit(args, payload, lines)
        return EXIT_OK
    if args.degen_cmd == "nondegen":
        separating = degeneration.separating_set_from_dict(_load_json(args.file))
        target = catalog.instantiate(args.target,
                                     parse_scalar(args.lam) if args.lam else None)
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
        _emit(args, payload, lines)
        return EXIT_OK if stability.ok and membership.ok else EXIT_FAILED
    raise MalformedInput("degen", f"unknown degen command {args.degen_cmd!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lts",
        description="Exact computations with nilpotent Lie triple systems")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="axiom-check a system document")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("invariants", help="structural invariants and fingerprint")
    p.add_argument("file")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("cohomology", help="Z3/B3/H3 bases and dimensions")
    p.add_argument("file")
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("extend", help="build an annihilator extension from a spec")
    p.add_argument("file")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("classify", help="match a system against the catalog")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("catalog", help="catalog access")
    catalog_sub = p.add_subparsers(dest="catalog_cmd", required=True)
    catalog_sub.add_parser("list")
    show = catalog_sub.add_parser("show")
    show.add_argument("name")
    show.add_argument("--lambda", dest="lam", default=None, metavar="VALUE")
    catalog_sub.add_parser("table1")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("degen", help="degeneration tooling")
    degen_sub = p.add_subparsers(dest="degen_cmd", required=True)
    verify = degen_sub.add_parser("verify")
    verify.add_argument("file")
    graph = degen_sub.add_parser("graph")
    graph.add_argument("--dim", type=int, choices=(3, 4), default=4)
    nondegen = degen_sub.add_parser("nondegen")
    nondegen.add_argument("file")
    nondegen.add_argument("--target", required=True)
    nondegen.add_argument("--lambda", dest="lam", default=None, metavar="VALUE")
    p.set_defaults(func=_cmd_degen)

    return parser


_MALFORMED = (MalformedInput, ParseError, UnknownName, MissingParameter,
               SingularParameter, DimensionUnsupported, DimensionMismatch)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _MALFORMED as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except LietripleError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
