"""Seeded batches for the three workloads, with a check for every operation.

A batch is a fixed list of operations, the same inputs in the same order for a
given seed.  The seed chooses values (basis changes, family parameters,
cocycles, wrong witnesses), never the shape of the batch, so every seed costs
about the same.  Inputs are built with the oracle's own arithmetic and handed
to the program as JSON documents; each operation's check recomputes the answer
from the oracle or from a property the method must have.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import oracle as O
import paper as P

OK, FAILED = "ok", "failed"
UNITS = (O.q(1), O.q(-1), O.q(0, 1), O.q(0, -1))

# the family member whose parameter the program does not recover (fails every run)
LARGE_LAMBDA = O.q(Fraction(2 ** 70 + 1, 3 ** 30))


class Batch:
    """Operations for the worker, and a check per operation for the parent.

    A check takes the worker's answer and returns OK, FAILED (the program gave
    no answer) or a string naming the wrong answer.  Checks run in batch order
    and may keep what they learn in ``self.memo`` for later checks.
    """

    def __init__(self, workload, seed):
        self.rng = random.Random(f"{workload}:{seed}")
        self.ops = []
        self.checks = []
        self.labels = []
        self.memo = {}
        self.cli = None  # (argv, {file name: document}, check of the parsed JSON output)
        self.micro = micro_operands(random.Random(f"micro:{seed}"))

    def add(self, label, op, check):
        self.labels.append(label)
        self.ops.append(op)
        self.checks.append(check)

    def check(self, index, record):
        if record["error"] is not None:
            return FAILED
        return self.checks[index](record["out"])


def micro_operands(rng):
    qi = []
    for _ in range(64):
        den = rng.randint(2, 99)
        qi.append((str(Fraction(rng.randint(-999, 999) or 1, den)),
                   str(Fraction(rng.randint(-999, 999) or 1, den + 1))))
    return {"qi": qi, "powers": [rng.randint(1, 3) for _ in qi]}


def build(workload, seed):
    batch = Batch(workload, seed)
    {"classify": _classify, "extend": _extend, "degenerate": _degenerate}[workload](batch)
    return batch


# ---------------------------------------------------------------------------
# shared input generation

def dense_unimodular(rng, n):
    """g = L U with unit-triangular L, U whose off-diagonal entries are +-1, +-i."""
    if n == 1:
        return [[rng.choice(UNITS)]]
    lower = [[O.ONE if i == j else (rng.choice(UNITS) if i > j else O.ZERO)
              for j in range(n)] for i in range(n)]
    upper = [[O.ONE if i == j else (rng.choice(UNITS) if i < j else O.ZERO)
              for j in range(n)] for i in range(n)]
    return O.mat_mul(lower, upper)


def _support_size(t):
    return sum(len(vec) for vec in t.values())


_GENERIC = {}


def generic_support(key, t, n):
    """Nonzero count of a conjugate by a fixed matrix with large entries."""
    if key not in _GENERIC:
        rng = random.Random(0)
        g = [[O.q(rng.randint(-99, 99), rng.randint(-99, 99)) for _ in range(n)]
             for _ in range(n)]
        _GENERIC[key] = _support_size(O.conjugate(t, g))
    return _GENERIC[key]


def dense_conjugate(rng, key, t, n):
    """A conjugate as dense as a generic one: no constant cancels by accident."""
    want = generic_support(key, t, n)
    while True:
        c = O.conjugate(t, dense_unimodular(rng, n))
        if _support_size(c) == want:
            return c


def rational(rng, exclude=()):
    while True:
        den = rng.randint(2, 9)
        num = rng.choice([x for x in range(-9, 10) if x])
        value = Fraction(num, den)
        if gcd(num, den) == 1 and value not in exclude:
            return value


def gaussian(rng):
    den = rng.randint(2, 9)
    re = Fraction(rng.randint(-9, 9), den)
    return O.q(re, Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), den))


def _pair_ok(out_pair, expected):
    return out_pair is not None and O.parse_pair(out_pair) == expected


# ---------------------------------------------------------------------------
# classify: dense conjugates of every catalog entry and of family members

DIM4 = ("T4,1", "T4,2", "T4,3", "T4,4", "T4,5", "T4,7", "T4,8", "T4,9")
# copies of each small entry: with 26 cheap operations of 40 the median falls
# inside the T3,2 group and the upper quartile inside the dense dimension-4 ones
SMALL = (("T1,1", 4), ("T2,1", 4), ("T3,1", 4), ("T3,2", 13))
FAMILY_SAMPLES = 2  # rational and Gaussian members each


def _classify(b):
    rng = b.rng
    cases = [(name, None) for name, copies in SMALL for _ in range(copies)]
    cases += [(name, None) for name in DIM4]
    # one member of each special branch: the same work whichever the seed picks
    cases += [(P.FAMILY, rng.choice(P.LAMBDA_ORBIT_OF_ONE)),
              (P.FAMILY, rng.choice(P.LAMBDA_SINGULAR))]
    cases += [(P.FAMILY, O.q(rational(rng, exclude=(1, -2, Fraction(-1, 2)))))
              for _ in range(FAMILY_SAMPLES)]
    cases += [(P.FAMILY, gaussian(rng)) for _ in range(FAMILY_SAMPLES)]
    for name, lam in cases:
        dim, products = P.products(name, lam)
        t = O.tensor_from_products(products)
        key = name if lam is None else f"{name}^{O.text(lam)}"
        conj = dense_conjugate(rng, key, t, dim)
        b.add(f"classify {key}", {"kind": "classify", "doc": O.system_doc(dim, conj)},
              _classify_check(name, lam))
    # fixed input: fails every run, whatever the seed
    dim, products = P.products(P.FAMILY, LARGE_LAMBDA)
    conj = O.conjugate(O.tensor_from_products(products),
                       dense_unimodular(random.Random("large-height"), 4))
    b.add("classify T4,6^(2^70+1)/3^30", {"kind": "classify", "doc": O.system_doc(4, conj)},
          _classify_check(P.FAMILY, LARGE_LAMBDA))
    cli_doc = next(op["doc"] for op, label in zip(b.ops, b.labels) if label.endswith("T3,2"))

    def cli_check(out):
        return OK if out.get("name") == "T3,2" else f"cli classify said {out.get('name')}"

    b.cli = (["classify", "input.json"], {"input.json": cli_doc}, cli_check)


def _classify_check(name, lam):
    def check(out):
        if out["name"] != name:
            return f"named {out['name']}, conjugated from {name}"
        if lam is None:
            return OK if out["lam"] is None else f"{name} got a parameter"
        true_xi = O.xi(lam)
        if true_xi is None:  # lam in {0, -1}: the xi-singular pair
            got = None if out["lam"] is None else O.parse_pair(out["lam"])
            return OK if got in P.LAMBDA_SINGULAR else f"lambda {got} outside {{0, -1}}"
        if not _pair_ok(out["xi"], true_xi):
            return f"xi {out['xi']} != {O.text(true_xi)}"
        if out["lam"] is None:
            return FAILED  # parameter not recovered
        got = O.parse_pair(out["lam"])
        if O.xi(got) != true_xi:
            return f"lambda {O.text(got)} is outside the orbit of {O.text(lam)}"
        return OK
    return check


# ---------------------------------------------------------------------------
# extend: the Skjelbred-Sund step on sparse catalog bases, up to dimension 5

EXTEND_BASES = ("T3,1", "T3,2", "T4,1", "T4,2", "T4,3", "T4,4", "T4,5", "T4,7", "T4,8",
                "T4,9", P.FAMILY)


def _cochain_doc(dim, theta):
    return {"coeffs": [{"ijk": [i + 1, j + 1, k + 1], "value": O.text(v)}
                       for (i, j, k), v in zip(O.cochain_index(dim), theta)
                       if not O.is_zero(v)]}


def _small_int(rng):
    return O.q(rng.choice([-3, -2, -1, 1, 2, 3]))


def _extend(b):
    rng = b.rng
    dim, products = P.products("T2,1")
    _cohomology_ops(b, "T2,1", dim, O.tensor_from_products(products))
    for name in EXTEND_BASES:
        lam = O.q(rational(rng, exclude=(1, -2, Fraction(-1, 2)))) if name == P.FAMILY else None
        dim, products = P.products(name, lam)
        t = O.tensor_from_products(products)
        z3 = _cohomology_ops(b, name, dim, t)
        thetas = _extension_ops(b, rng, name, dim, t, z3)
        if name == "T4,8":
            b.cli = _extend_cli(dim, t, thetas)


def _extension_ops(b, rng, name, dim, t, z3):
    """theta through extend, annihilator and in_ts; theta + delta f through extend, in_ts."""
    s = 2 if dim == 3 else 1
    thetas = []
    for _ in range(s):
        theta = [O.ZERO] * len(O.cochain_index(dim))
        for z in z3:
            c = _small_int(rng)
            theta = [O.add(x, O.mul(c, y)) for x, y in zip(theta, z)]
        thetas.append(theta)
    functionals = [[_small_int(rng) for _ in range(dim)] for _ in range(s)]
    shifted = [[O.add(x, y) for x, y in zip(theta, O.coboundary(t, dim, f))]
               for theta, f in zip(thetas, functionals)]
    truth = (O.annihilator_rank(O.extension(t, dim, thetas), dim + s) == s
             and O.class_rank(t, dim, thetas) == s)
    for tag, cochains in (("theta", thetas), ("theta+df", shifted)):
        spec = f"{name}:{tag}"
        b.add(f"extend {spec}", {"kind": "extend", "base": name, "spec": spec,
                                 "thetas": [_cochain_doc(dim, c) for c in cochains]},
              _extend_check(b, spec, t, dim, cochains, functionals if tag != "theta" else None))
        if tag == "theta":
            b.add(f"annihilator {spec}", {"kind": "extension_annihilator", "spec": spec},
                  _annihilator_check(t, dim, cochains))
        b.add(f"in_ts {spec}", {"kind": "in_ts", "spec": spec}, _in_ts_check(truth))
    return thetas


def _extend_cli(dim, t, thetas):
    expected = O.extension(t, dim, thetas)

    def check(out):
        got = O.tensor_from_doc(out)
        if got != expected or O.axiom_violation(got, out["dim"]) is not None:
            return "cli extension differs from T_theta"
        return OK

    spec = {"base": O.system_doc(dim, t), "thetas": [_cochain_doc(dim, c) for c in thetas]}
    return ["extend", "spec.json"], {"spec.json": spec}, check


def _cohomology_ops(b, name, dim, t):
    z3 = O.cocycle_basis(t, dim)
    b3 = O.derived_rank(t)
    published = P.COHOMOLOGY_DIMS.get(name)

    def z3_check(out):
        if out["dim"] != len(z3):
            return f"dim Z3 {out['dim']} != {len(z3)}"
        if published and out["dim"] != published[0]:
            return f"dim Z3 {out['dim']} != published {published[0]}"
        b.memo[("z3", name)] = out["dim"]
        return OK

    def h3_check(out):
        z = b.memo.get(("z3", name), len(z3))
        if z - out["h3"] != b3:
            return f"dim B3 {z - out['h3']} != dim [T,T,T] = {b3}"
        if out["reps"] != out["h3"]:
            return "H3 representatives do not match dim H3"
        if published and (z, z - out["h3"], out["h3"]) != published:
            return f"(Z3, B3, H3) differs from published {published}"
        return OK

    b.add(f"cocycle_space {name}", {"kind": "cocycle_space", "base": name,
                                    "doc": O.system_doc(dim, t)}, z3_check)
    b.add(f"cohomology {name}", {"kind": "cohomology", "base": name}, h3_check)
    return z3


def _out_tensor(out):
    t = {}
    for i, j, k, p, v in out["tensor"]:
        t.setdefault((i, j, k), {})[p] = O.parse_pair(v)
    return t


def _extend_check(b, spec, t, dim, cochains, functionals):
    s = len(cochains)

    def check(out):
        got = _out_tensor(out)
        if out["dim"] != dim + s or got != O.extension(t, dim, cochains):
            return f"{spec}: extension differs from T_theta"
        if O.axiom_violation(got, dim + s) is not None:
            return f"{spec}: extension fails the axioms"
        if functionals is None:
            b.memo[spec.split(":")[0]] = got
            return OK
        # x -> x + f(x) e_{n+r} maps T_theta onto T_{theta + delta f}
        phi = O.identity(dim + s)
        for r, f in enumerate(functionals):
            for i in range(dim):
                phi[dim + r][i] = f[i]
        if O.conjugate(b.memo[spec.split(":")[0]], phi) != got:
            return f"{spec}: not isomorphic to T_theta through x + f(x)e"
        return OK
    return check


def _annihilator_check(t, dim, cochains):
    s = len(cochains)
    ext = O.extension(t, dim, cochains)
    want = O.annihilator_rank(ext, dim + s)
    units = [{c: O.ONE} for c in range(dim + s)]

    def check(out):
        basis = [[O.parse_pair(x) for x in row] for row in out["basis"]]
        r = O.rank(basis)
        if r != want:
            return f"dim Ann {r} != {want}"
        for row in basis:
            x = {c: v for c, v in enumerate(row) if not O.is_zero(v)}
            if any(O.bracket(ext, x, ej, ek) for ej in units for ek in units):
                return "a returned vector does not annihilate T_theta"
        for k in range(s):
            e = [O.ONE if c == dim + k else O.ZERO for c in range(dim + s)]
            if O.rank(basis + [e]) != r:
                return "V is not inside Ann"
        return OK
    return check


def _in_ts_check(truth):
    def check(out):
        return OK if out["in_ts"] == truth else f"in_ts {out['in_ts']} != {truth}"
    return check


# ---------------------------------------------------------------------------
# degenerate: witnesses over Q(i)(t), transport, the diagram, Borel stability

FAMILY_ROW_MEMBERS = 12
WRONG_WITNESSES = 24
WRONG_KINDS = ("target", "scale", "pole")
TRANSPORT_SYSTEMS = ("T3,2", "T4,5", "T3,2", "T4,7", "T3,2", "T4,8", "T3,2", "T4,9")
ROW2_MEMBERS = 3
T0_SAMPLES = (Fraction(1), Fraction(1, 2), Fraction(-2))


def _witness(source, target, rows, source_lambda=None, target_lambda=None):
    doc = {"source": {"name": source}, "target": {"name": target}, "basis": rows}
    if source_lambda is not None:
        doc["source"]["lambda"] = source_lambda
    if target_lambda is not None:
        doc["target"]["lambda"] = target_lambda
    return doc


def _expect(ok):
    def check(out):
        return OK if out["ok"] == ok else f"verified={out['ok']}, expected {ok}"
    return check


def _degenerate(b):
    rng = b.rng
    for source, slam, target, tlam, rows in P.TABLE2:
        b.add(f"verify {source} -> {target}",
              {"kind": "verify", "witness": _witness(source, target, rows, slam, tlam)},
              _expect(True))
    for label, doc in (("table4", P.TABLE4), ("dim3", P.DIM3)):
        b.add(f"verify {label}", {"kind": "verify", "witness": doc}, _expect(True))
    excluded = (1, -2, Fraction(-1, 2), 0, -1)
    for _ in range(FAMILY_ROW_MEMBERS):
        lam = rational(rng, exclude=excluded)
        b.add(f"verify T4,6^{lam} -> T4,4",
              {"kind": "verify", "witness": _witness(P.FAMILY, "T4,4",
                                                     P.family_to_t44_basis(lam), str(lam))},
              _expect(True))
    for n in range(WRONG_WITNESSES):
        # rows and kinds in a fixed rotation, so every seed verifies the same mix
        row = _PLAIN_ROWS[n % len(_PLAIN_ROWS)]
        kind = WRONG_KINDS[n // len(_PLAIN_ROWS) % len(WRONG_KINDS)]
        label, doc = _wrong_witness(rng, row, kind)
        b.add(f"verify wrong {label}", {"kind": "verify", "witness": doc}, _expect(False))
    for name in TRANSPORT_SYSTEMS:
        _transport_op(b, rng, name)
    b.add("degeneration_graph 4", {"kind": "graph", "dim": 4}, _graph_check)
    lams = [rational(rng, exclude=excluded) for _ in range(ROW2_MEMBERS)]
    for lam in [Fraction(2)] + lams:
        for set_name, doc in P.separating_sets(lam).items():
            if set_name == "table3-row2" or lam == 2:
                b.add(f"borel {set_name} lambda={lam}", {"kind": "borel", "set": doc},
                      _expect(True))
    b.cli = (["degen", "graph", "--dim", "4"], {}, lambda out: _graph_check(
        {"edges": [[e["source"], e["target"]] for e in out["edges"]], "maximal": out["maximal"]}))


# rows of the table whose source and target are single systems, not family members
_PLAIN_ROWS = [row for row in P.TABLE2 if row[1] is None and row[3] is None]


def _wrong_witness(rng, row, kind):
    """A published witness made wrong in a way that provably fails.

    wrong target: the limit tensor equals the published target, which differs
    from every other catalog tensor.  Scaling basis row i by s multiplies the
    transported constant c_abc^p by s^m, m = #{i in (a, b, c)} - [p = i]; at
    s = 2 a target constant with m != 0 changes its limit, at s = 1/t one with
    m >= 1 gets a pole.
    """
    source, _, target, _, rows = row
    if kind == "target":
        other = rng.choice([n for n in DIM4 if n != target])
        return f"{source} -> {other} (target of {target})", _witness(source, other, rows)
    tensor = O.tensor_from_products(P.products(target)[1])
    want = (lambda m: m != 0) if kind == "scale" else (lambda m: m >= 1)
    choices = sorted({i for (a, bb, c), vec in tensor.items() for p in vec
                      for i in range(4) if want((a, bb, c).count(i) - (p == i))})
    if not choices:  # the abelian target: every constant is zero
        other = rng.choice([n for n in DIM4 if n != target])
        return f"{source} -> {other} (target of {target})", _witness(source, other, rows)
    i = rng.choice(choices)
    factor = "2" if kind == "scale" else "1/t"
    bad = [list(r) for r in rows]
    bad[i] = [x if x == "0" else f"({factor})*({x})" for x in bad[i]]
    return f"{source} -> {target} (row {i + 1} times {factor})", _witness(source, target, bad)


def _laurent_text(c, k):
    body = f"({O.text(c)})"
    if k == 0:
        return body
    return f"{body}*t^{k}" if k > 0 else f"{body}/t^{-k}"


def _laurent_basis(rng, n):
    """Rows of an elementary unimodular matrix, scaled by t^k for k in -1..n-2."""
    u = O.identity(n)
    i, j = rng.sample(range(n), 2)
    u[i][j] = rng.choice(UNITS)
    powers = list(range(-1, n - 1))
    rng.shuffle(powers)
    rows = [[_laurent_text(c, k) if not O.is_zero(c) else "0" for c in row]
            for row, k in zip(u, powers)]
    return u, powers, rows


def _laurent_at(u, powers, t0):
    return [[O.mul(c, O.q(t0 ** k)) for c in row] for row, k in zip(u, powers)]


def _transport_op(b, rng, name):
    dim, products = P.products(name)
    t = O.tensor_from_products(products)
    first = _laurent_basis(rng, dim)
    second = _laurent_basis(rng, dim)

    def check(out):
        for t0 in T0_SAMPLES:
            point = O.q(t0)
            rows = O.mat_mul(_laurent_at(*second[:2], t0), _laurent_at(*first[:2], t0))
            want = O.transport(t, rows)
            for key in ("then", "combined"):
                got = {}
                for i, j, k, p, f in out[key]:
                    v = O.rf_at([O.parse_pair(c) for c in f["num"]],
                                [O.parse_pair(c) for c in f["den"]], point)
                    if not O.is_zero(v):
                        got.setdefault((i, j, k), {})[p] = v
                if got != want:
                    return f"transport {key} of {name} differs at t = {t0}"
        return OK

    b.add(f"transport {name}", {"kind": "transport", "doc": O.system_doc(dim, t),
                                "first": first[2], "second": second[2]}, check)


def _graph_check(out):
    edges = {tuple(e) for e in out["edges"]}
    if edges != P.FIGURE_EDGES:
        return f"diagram edges differ: {sorted(edges ^ P.FIGURE_EDGES)}"
    if sorted(out["maximal"]) != P.FIGURE_MAXIMAL:
        return f"maximal nodes {out['maximal']}"
    return OK
