"""One fresh interpreter: import lietriple, warm up, run a batch, report.

Usage (from the checkout root, with src/ on PYTHONPATH):

    python3 perfbench/worker.py setup WORKLOAD
    python3 perfbench/worker.py batch WORKLOAD BATCH.json OUT.json [--profile]

``setup`` prints the seconds spent importing lietriple plus one public
warm-up call.  ``batch`` does the same set-up, then runs every operation of
BATCH.json in order, timing each between two yardstick runs, and writes the
program's answers, the timings and the peak resident set size to OUT.json.  With ``--profile`` the
warm-up and the batch run under cProfile and OUT.json also carries per-layer
totals.  Only public lietriple names are used.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import yardstick

WARMUP_DIM3_WITNESS = {"source": {"name": "T3,2"}, "target": {"name": "T3,1"},
                       "basis": [["t", "0", "0"], ["0", "t", "0"], ["0", "0", "t"]]}
ONE_DIM_DOC = {"dim": 1, "field": "Q(i)", "products": []}


def setup(workload):
    """Import lietriple and make the workload's warm-up call; returns the module table."""
    import lietriple
    from lietriple import catalog, degeneration
    from lietriple.cohomology import cocycle_from_dict
    from lietriple.linalg import mat_mul

    lib = {"lt": lietriple, "catalog": catalog, "dg": degeneration,
           "cocycle_from_dict": cocycle_from_dict, "mat_mul": mat_mul}
    if workload == "classify":
        catalog.classify(lietriple.lts_from_dict(ONE_DIM_DOC))
    elif workload == "extend":
        lietriple.cohomology(lietriple.lts_from_dict(ONE_DIM_DOC))
    else:
        degeneration.verify_degeneration(degeneration.witness_from_dict(WARMUP_DIM3_WITNESS))
    return lib


# ---------------------------------------------------------------------------
# answers as JSON: Q(i) elements as ["re", "im"] Fraction strings

def pair(x, lib):
    z = lib["lt"].GaussianRational.of(x)
    return [str(z.re), str(z.im)]


def rf(x, lib):
    f = lib["lt"].RationalFunction.of(x)
    return {"num": [pair(c, lib) for c in f.num.coeffs],
            "den": [pair(c, lib) for c in f.den.coeffs]}


def tensor_out(system, lib):
    return [[i, j, k, p, pair(v, lib)] for i, j, k, p, v in system.nonzero_entries()]


def rf_tensor_out(tensor, lib):
    n = len(tensor)
    return [[i, j, k, p, rf(tensor[i][j][k][p], lib)]
            for i in range(n) for j in range(n) for k in range(n) for p in range(n)
            if tensor[i][j][k][p]]


# ---------------------------------------------------------------------------
# operations: run() is timed, the returned thunk serializes outside the timing

class Session:
    def __init__(self, lib):
        self.lib = lib
        self.bases = {}
        self.specs = {}

    def run(self, op):
        return getattr(self, "op_" + op["kind"])(op)

    def op_classify(self, op):
        lt, catalog = self.lib["lt"], self.lib["catalog"]
        result = catalog.classify(lt.lts_from_dict(op["doc"]))
        return lambda: {
            "name": result.name, "confidence": result.confidence, "note": result.note,
            "lam": None if result.lam is None else pair(result.lam, self.lib),
            "xi": None if result.xi is None else pair(result.xi, self.lib)}

    def op_cocycle_space(self, op):
        lt = self.lib["lt"]
        base = lt.lts_from_dict(op["doc"])
        self.bases[op["base"]] = base
        z3 = lt.cocycle_space(base)
        return lambda: {"dim": z3.dim}

    def op_cohomology(self, op):
        dim_h3, reps = self.lib["lt"].cohomology(self.bases[op["base"]])
        return lambda: {"h3": dim_h3, "reps": reps.dim}

    def op_extend(self, op):
        lt = self.lib["lt"]
        base = self.bases[op["base"]]
        thetas = [self.lib["cocycle_from_dict"](doc, ambient=base) for doc in op["thetas"]]
        spec = lt.ExtensionSpec(base, thetas)
        self.specs[op["spec"]] = spec
        extended = lt.extend(spec)
        return lambda: {"dim": extended.dim, "tensor": tensor_out(extended, self.lib)}

    def op_extension_annihilator(self, op):
        space = self.lib["lt"].extension_annihilator(self.specs[op["spec"]])
        return lambda: {"basis": [[pair(x, self.lib) for x in row] for row in space.basis]}

    def op_in_ts(self, op):
        verdict = self.lib["lt"].in_ts(self.specs[op["spec"]])
        return lambda: {"in_ts": bool(verdict)}

    def op_verify(self, op):
        dg = self.lib["dg"]
        report = dg.verify_degeneration(dg.witness_from_dict(op["witness"]))
        return lambda: {"ok": bool(report.ok), "problems": len(report.problems)}

    def op_transport(self, op):
        lt, dg = self.lib["lt"], self.lib["dg"]
        system = lt.lts_from_dict(op["doc"])
        first = dg.ParametrizedBasis.from_strings(op["first"])
        second = dg.ParametrizedBasis.from_strings(op["second"])
        once = dg.transport_constants(system, first)
        then = dg.transport_constants(lt.Lts(once), second)
        combined = dg.transport_constants(
            system, dg.ParametrizedBasis(self.lib["mat_mul"](second.rows, first.rows)))
        return lambda: {"then": rf_tensor_out(then, self.lib),
                        "combined": rf_tensor_out(combined, self.lib)}

    def op_graph(self, op):
        graph = self.lib["dg"].degeneration_graph(op["dim"])
        return lambda: {"edges": [list(e) for e in graph.edge_pairs()],
                        "maximal": list(graph.maximal)}

    def op_borel(self, op):
        dg = self.lib["dg"]
        report = dg.borel_stability_evidence(dg.separating_set_from_dict(op["set"]),
                                             mode="symbolic")
        return lambda: {"ok": bool(report.ok)}


def run_batch(lib, ops, measure=yardstick.measure):
    """Run ops in order; each record holds its time and the yardstick around it."""
    session = Session(lib)
    records = []
    before = measure()
    for op in ops:
        t0 = time.perf_counter()
        try:
            thunk = session.run(op)
            error = None
        except Exception as exc:  # a failed operation is reported, not fatal
            thunk, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        after = measure()
        records.append({"t": elapsed, "yardstick": [before, after], "error": error,
                        "out": thunk() if thunk else None})
        before = after
    return records


# ---------------------------------------------------------------------------
# per-layer totals from a cProfile run

def _code_key(prefix, fn):
    """The profiler's key of fn's own code, past any decorator; a missing target is an error."""
    import inspect

    code = getattr(inspect.unwrap(fn), "__code__", None) if fn is not None else None
    if code is None:
        raise LookupError(f"per-layer entry point {prefix} does not resolve to a function")
    return code.co_filename, code.co_firstlineno, code.co_name


def layer_targets():
    """(metric prefix, profiler key) pairs, resolved from public lietriple objects."""
    import importlib

    (catalog, coh_mod, core, dg, extension, linalg, scalars) = (
        importlib.import_module("lietriple." + name)
        for name in ("catalog", "cohomology", "core", "degeneration", "extension",
                     "linalg", "scalars"))
    gr, rfn = scalars.GaussianRational, scalars.RationalFunction
    return [(prefix, _code_key(prefix, fn)) for prefix, fn in [
        ("scalars.qi_mul", getattr(gr, "__mul__", None)),
        ("scalars.qi_add", getattr(gr, "__add__", None)),
        ("scalars.poly_gcd", getattr(scalars, "poly_gcd", None)),
        ("scalars.RationalFunction", getattr(rfn, "__init__", None)),
        ("linalg.rref", getattr(linalg, "rref", None)),
        ("core.check_axioms", getattr(core.Lts, "check_axioms", None)),
        ("core.derivations", getattr(core.Lts, "derivations", None)),
        ("core.fingerprint", getattr(core.Lts, "fingerprint", None)),
        ("core.change_basis_tensor", getattr(core, "change_basis_tensor", None)),
        ("core.complete_table", getattr(core, "complete_table", None)),
        ("cohomology.cocycle_space", getattr(coh_mod, "cocycle_space", None)),
        ("cohomology.cohomology", getattr(coh_mod, "cohomology", None)),
        ("extension.extend", getattr(extension, "extend", None)),
        ("extension.extension_annihilator", getattr(extension, "extension_annihilator", None)),
        ("catalog.classify", getattr(catalog, "classify", None)),
        ("catalog.instantiate", getattr(catalog, "instantiate", None)),
        ("degeneration.verify_degeneration", getattr(dg, "verify_degeneration", None)),
        ("degeneration.transport_constants", getattr(dg, "transport_constants", None)),
        ("degeneration.degeneration_graph", getattr(dg, "degeneration_graph", None)),
        ("degeneration.borel_stability_evidence",
         getattr(dg, "borel_stability_evidence", None)),
    ]]


def _module_of(filename):
    path = filename.replace("\\", "/")
    parts = path.rsplit("/", 2)
    if len(parts) == 3 and parts[1] == "lietriple" and parts[2].endswith(".py"):
        return parts[2][:-3]
    if "/mpmath/" in path:
        return "mpmath"
    if parts[-1] == "fractions.py":
        return "fractions"
    return None


def count_rows():
    """Wrap linalg.rref wherever lietriple modules bound it; returns the row counter."""
    import importlib
    import inspect

    linalg = importlib.import_module("lietriple.linalg")
    original = linalg.rref
    counter = {"rows": 0}

    def rref(rows):
        if not hasattr(rows, "__len__"):
            rows = list(rows)
        counter["rows"] += len(rows)
        return original(rows)

    for name, module in list(sys.modules.items()):
        if (name == "lietriple" or name.startswith("lietriple.")) and inspect.ismodule(module):
            if getattr(module, "rref", None) is original:
                setattr(module, "rref", rref)
    return counter


def layer_metrics(stats, targets, counter):
    self_s = {}
    by_key = {}
    for (filename, line, name), (_cc, nc, tt, ct, _callers) in stats.items():
        module = _module_of(filename)
        if module is not None:
            self_s[module] = self_s.get(module, 0.0) + tt
        by_key[(filename, line, name)] = (nc, ct)
    out = {}
    for module in ("scalars", "linalg", "core", "cohomology", "extension", "catalog",
                   "degeneration", "multipoly", "fractions", "mpmath"):
        out[f"{module}.self_s"] = self_s.get(module, 0.0)
    for prefix, key in targets:
        calls, busy = by_key.get(key, (0, 0.0))
        out[f"{prefix}.calls"] = calls
        out[f"{prefix}.busy_s"] = busy
    out["linalg.rref.rows"] = counter["rows"]
    return out


# ---------------------------------------------------------------------------
# scalar microbenchmarks

def _per_op(fn, pairs, rounds):
    """Median over rounds of the mean time of fn over all operand pairs."""
    import statistics

    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for a, b in pairs:
            fn(a, b)
        samples.append((time.perf_counter() - t0) / len(pairs))
    return statistics.median(samples)


def microbenchmarks(lib, operands):
    from fractions import Fraction

    lt = lib["lt"]
    qi = [lt.GaussianRational(Fraction(a), Fraction(b)) for a, b in operands["qi"]]
    pairs = list(zip(qi, qi[1:] + qi[:1]))
    t = lt.RationalFunction.variable()
    rf_pairs = []
    for (a, b), k in zip(operands["qi"], operands["powers"]):
        c = lt.RationalFunction.of(lt.GaussianRational(Fraction(a), Fraction(b)))
        rf_pairs.append((c, c * 3))  # constant times constant
        rf_pairs.append((c * t ** k, c / t ** (k + 1)))  # t^k times t^-(k+1)
    return {
        "scalars.qi_mul_ns": _per_op(lambda a, b: a * b, pairs, 30) * 1e9,
        "scalars.qi_add_ns": _per_op(lambda a, b: a + b, pairs, 30) * 1e9,
        "scalars.qi_zero_test_ns": _per_op(lambda a, b: a != 0, pairs, 30) * 1e9,
        "scalars.rf_mul_us": _per_op(lambda a, b: a * b, rf_pairs, 10) * 1e6,
    }


def timed_setup(workload):
    """setup() in a fresh interpreter, timed and bracketed by the yardstick."""
    before = yardstick.measure()
    t0 = time.perf_counter()
    lib = setup(workload)
    elapsed = time.perf_counter() - t0
    return lib, {"t": elapsed, "yardstick": [before, yardstick.measure()]}


def main(argv):
    mode, workload = argv[0], argv[1]
    if mode == "setup":
        print(json.dumps(timed_setup(workload)[1]))
        return 0
    batch_path, out_path = argv[2], argv[3]
    profile = "--profile" in argv[4:]
    with open(batch_path) as handle:
        batch = json.load(handle)
    if profile:
        import cProfile
        import pstats

        import lietriple  # noqa: F401  (import time is measured apart)

        targets = layer_targets()
        counter = count_rows()
        profiler = cProfile.Profile(builtins=False)
        profiler.enable()
        lib = setup(workload)
        records = run_batch(lib, batch["ops"], measure=lambda: 0.0)
        profiler.disable()
        layers = layer_metrics(pstats.Stats(profiler).stats, targets, counter)
        layers.update(microbenchmarks(lib, batch["micro"]))
        setup_time = None
    else:
        lib, setup_time = timed_setup(workload)
        records = run_batch(lib, batch["ops"])
        layers = None
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(out_path, "w") as handle:
        json.dump({"setup": setup_time, "peak_rss_mb": peak_kb / 1024.0,
                   "records": records, "layers": layers}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
