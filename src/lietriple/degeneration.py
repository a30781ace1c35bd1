"""Orbit degenerations: parametrized-basis verification and non-degeneration evidence.

A degeneration witness transports the source structure constants into a
t-dependent basis E_i(t) = sum_j A[i][j](t) e_j over Q(i)(t) and checks that
every transported constant has a finite limit at t = 0 equal to the target
constant.  Family witnesses first substitute a parametrized index f(t) for the
family parameter.  Verification takes one of two paths.  When
A(t) = diag(t^u) g0 diag(t^v), a contraction along a one-parameter subgroup
composed with a constant basis change, and the source's constants lie in Q(i)
(no parametrized index), they are split by v-weight, conjugated by g0 and
read as Laurent polynomials with integer exponents; the basis's Z[i][t] form
is then never built.  Any other witness, and ``transport_constants``,
transport over Z[i][t], with the inverse basis read off the Cartan form when
there is one and inverted over Q(i)(t) otherwise.  Witnesses have one form,
the document that ``witness_from_dict`` reads; the built-in tables are such
documents, and a witness's label is read off its endpoints.

Non-degenerations come at two exact levels: necessary-condition certificates
(annihilator / derived-subspace / derivation dimensions, the three flattening
ranks and, on the systems with a one-dimensional annihilator, a relative
invariant of the T3,1 extension class), and separating-set membership with a
Borel-stability proof (each basis vector of the locus, moved by each matrix
unit of the lower-triangular Lie algebra, is checked exactly over Q(i)).  No
verdict rests on a search.  The degeneration diagram is read off the catalog
and the verified built-in witnesses, and reports its maximal nodes.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Optional

from . import catalog
from .core import Lts, _conjugate_rows, _dense_tensor, _dimension, _index, _lie_action, _scalar
from .errors import InconsistentGraph, MalformedInput, PoleAtZero, SingularBasis, SingularMatrix
from .linalg import mat_inverse, nullspace
from .packed import _cleared_basis, _packed_transport
from .scalars import (
    GaussianRational,
    Polynomial,
    QI_ONE,
    QI_ZERO,
    RationalFunction,
    field_of,
    parse_rational_function,
    parse_scalar,
    rational_function_str,
    scalar_str,
)

__all__ = [
    "ParametrizedBasis",
    "DegenerationWitness",
    "SeparatingSet",
    "transport_constants",
    "verify_degeneration",
    "necessary_conditions",
    "NecessaryConditionReport",
    "borel_stability_evidence",
    "degeneration_graph",
    "witness_from_dict",
    "witness_to_dict",
    "separating_set_from_dict",
    "separating_set_to_dict",
    "table2_witness",
    "table4_witness",
    "table3_separating_set",
    "table5_separating_set",
    "TABLE2_WITNESSES",
]


class ParametrizedBasis:
    """Square matrix A(t) over Q(i)(t); row i holds the coordinates of E_i(t).

    When A = diag(t^u) g0 diag(t^v), with g0 constant and u, v integer vectors
    (``_cartan_form``), the basis keeps (u, g0^T, (g0^T)^{-1}, v).  Transport
    reads its cleared form (``packed._cleared_basis``), built when first read:
    the rows of A and of g = (A^T)^{-1} over Z[i][t], each with its own
    denominator.  g is read off the Cartan form when there is one, and is
    otherwise inverted over Q(i)(t), which also decides singularity.
    """

    def __init__(self, rows):
        self.rows = [[RationalFunction.of(x) for x in row] for row in rows]
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise MalformedInput("basis", "parametrized basis must be square")
        self._form = _cartan_form(self.rows)
        # g0 of a Cartan form decides singularity; otherwise the inverse over Q(i)(t) does
        if (self._cleared if self._form is None else self._form[2]) is None:
            raise SingularBasis("parametrized basis is singular over Q(i)(t)")

    @functools.cached_property
    def _cleared(self):
        return _cleared_basis(self.rows, self._form)

    @property
    def dim(self):
        return len(self.rows)

    @staticmethod
    def from_strings(rows):
        return ParametrizedBasis([[_scalar(x, "basis", parse_rational_function) for x in row]
                                  for row in rows])

    def to_strings(self):
        return [[rational_function_str(x) for x in row] for row in self.rows]


@dataclass
class DegenerationWitness:
    source: str
    target: str
    basis: ParametrizedBasis
    source_lambda: Optional[GaussianRational] = None
    index_fn: Optional[RationalFunction] = None  # parametrized index for family rows
    target_lambda: Optional[GaussianRational] = None

    @property
    def label(self):
        """Source -> target, each name with ^lambda for a fixed member, ^* for an index_fn."""
        source_mark = "*" if self.index_fn is not None else self.source_lambda
        return " -> ".join(name if mark is None else f"{name}^{mark}" for name, mark in (
            (self.source, source_mark), (self.target, self.target_lambda)))

    def source_system(self):
        """Source tensor, with the family parameter substituted when present."""
        return catalog.instantiate(
            self.source, self.source_lambda if self.index_fn is None else self.index_fn)

    def target_system(self):
        return catalog.instantiate(self.target, self.target_lambda)


def _cartan_form(rows):
    """(u, h, g, v) with A = diag(t^u) g0 diag(t^v), h = g0^T and g = h^{-1}
    (None when g0 is singular), or None when A has no such form.

    It exists when every nonzero entry is a Laurent monomial c t^e and
    u_i + v_j = e_ij holds on the support; one propagation over the support
    decides that, with u_i = 0 at the first row of each connected part.
    """
    n = len(rows)
    h = [[QI_ZERO] * n for _ in range(n)]
    edges = [[] for _ in range(2 * n)]  # row i is node i, column j node n + j
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x:
                num, den = x.num.coeffs, x.den.coeffs
                if any(num[:-1]) or any(den[:-1]):
                    return None
                h[j][i] = num[-1]
                edges[i].append((n + j, len(num) - len(den)))
                edges[n + j].append((i, len(num) - len(den)))
    weight = [None] * (2 * n)
    for start in range(2 * n):
        if weight[start] is None:
            weight[start], stack = 0, [start]
            while stack:
                a = stack.pop()
                for b, e in edges[a]:
                    if weight[b] is None:
                        weight[b] = e - weight[a]
                        stack.append(b)
                    elif weight[b] != e - weight[a]:
                        return None
    try:
        return weight[:n], h, mat_inverse(h), weight[n:]
    except SingularMatrix:
        return weight[:n], h, None, weight[n:]


def _laurent_limits(system: Lts, basis: ParametrizedBasis):
    """Limits at t = 0 of the nonzero constants of the product in a basis of
    Cartan form, computed over Q(i) with integer exponents.

    With A^T = diag(t^v) h diag(t^u), h = g0^T and g = h^{-1}, the constant
    c_abc^q enters c'_ijk^p at the exponent w + u_i + u_j + u_k - u_p, where
    w = v_a + v_b + v_c - v_q is its v-weight.  Each weight component is
    conjugated once by (h, g) (``_conjugate_rows``), which sums every term of a
    constant at one exponent; the components give a constant distinct
    exponents, so its Laurent polynomial is read off before anything is
    decided.  Returns {(i, j, k): {p: limit}}, the limit a Q(i) value, or the
    constant's text at a pole.
    """
    u, h, g, v = basis._form
    _require_dim(system, basis)
    components = {}  # v-weight -> rows
    for (a, b, c), row in system.rows().items():
        weight = v[a] + v[b] + v[c]
        for q, val in row.items():
            components.setdefault(weight - v[q], {}).setdefault((a, b, c), {})[q] = val
    laurent = {}  # (i, j, k) -> {p: {exponent: nonzero coefficient}}
    for weight, rows in components.items():
        for (i, j, k), row in _conjugate_rows(rows, h, g).items():
            cells, shift = laurent.setdefault((i, j, k), {}), weight + u[i] + u[j] + u[k]
            for p, val in row.items():
                cells.setdefault(p, {})[shift - u[p]] = val
    limits = {}
    for key, cells in laurent.items():
        limits[key] = out = {}
        for p, terms in cells.items():
            low = min(terms)
            out[p] = terms.get(0, QI_ZERO) if low >= 0 else rational_function_str(RationalFunction(
                Polynomial([terms.get(e, QI_ZERO) for e in range(low, max(terms) + 1)]),
                Polynomial([QI_ZERO] * -low + [QI_ONE])))
    return limits


def _function_limits(system: Lts, basis: ParametrizedBasis):
    """The limits of ``_laurent_limits``, read off the transported rational functions."""
    limits = {}
    for key, row in _transported_rows(system, basis).items():
        cells = limits[key] = {}
        for p, value in row.items():
            try:
                cells[p] = value.limit_at_zero()
            except PoleAtZero:
                cells[p] = rational_function_str(value)
    return limits


def _require_dim(system: Lts, basis: ParametrizedBasis):
    if basis.dim != system.dim:
        raise MalformedInput("basis", "basis dimension differs from the system")


def _transported_rows(system: Lts, basis: ParametrizedBasis):
    """Nonzero rows of the product in the parametrized basis, over Q(i)(t).

    With A the row matrix of the new basis, the transported product is the
    conjugated product under g = (A^T)^{-1}: c'_ijk^p sums
    h[a][i] h[b][j] h[c][k] g[p][q] c_abc^q over (a, b, c, q), h = A^T, and
    ``_conjugate_rows`` computes it on the operands ``_packed_transport`` packs.
    """
    _require_dim(system, basis)
    rows = system.rows()
    if not rows:
        return {}
    packed, h, g, unpacked = _packed_transport(*basis._cleared, rows)
    return unpacked(_conjugate_rows(packed, h, g))


def transport_constants(system: Lts, basis: ParametrizedBasis):
    """Dense structure constants of the product in the parametrized basis."""
    return _dense_tensor(system.dim, _transported_rows(system, basis), RationalFunction.zero)


@dataclass
class DegenerationReport:
    ok: bool
    witness: DegenerationWitness
    problems: list
    elapsed: float

    def __str__(self):
        if self.ok:
            return f"{self.witness.label}: verified ({self.elapsed:.3f}s)"
        lines = [f"{self.witness.label}: FAILED"]
        for kind, idx, detail in self.problems:
            lines.append(f"  {kind} at {idx}: {detail}")
        return "\n".join(lines)


def verify_degeneration(witness: DegenerationWitness) -> DegenerationReport:
    """Check finite limits at t = 0 and exact match with the target constants.

    A basis of Cartan form over a source with constants in Q(i), so without
    ``index_fn``, is checked over Q(i) (``_laurent_limits``); any other runs
    transport over Z[i][t].
    """
    start = time.monotonic()
    source = witness.source_system()
    target = witness.target_system()
    problems = []
    if source.dim != target.dim:
        problems.append(("dimension", (), f"{source.dim} vs {target.dim}"))
        return DegenerationReport(False, witness, problems, time.monotonic() - start)
    # the Cartan path reads constants over Q(i); index_fn, or a lambda in Q(i)(t), gives others
    cartan = witness.basis._form is not None and field_of(source._zero) is GaussianRational
    moved = (_laurent_limits if cartan else _function_limits)(source, witness.basis)
    expected_rows = target.rows()
    for key in sorted(moved.keys() | expected_rows.keys()):  # elsewhere both sides vanish
        row, expected_row = moved.get(key, {}), expected_rows.get(key, {})
        for p in sorted(row.keys() | expected_row.keys()):
            lim, expected = row.get(p, QI_ZERO), expected_row.get(p, QI_ZERO)
            idx = tuple(x + 1 for x in key + (p,))
            if isinstance(lim, str):
                problems.append(("pole", idx, lim))
            elif lim != expected:
                problems.append(("mismatch", idx,
                                 f"limit {scalar_str(lim)} != {scalar_str(expected)}"))
    return DegenerationReport(not problems, witness, problems, time.monotonic() - start)


# ---------------------------------------------------------------------------
# necessary conditions


@dataclass
class NecessaryConditionReport:
    ann_ok: bool        # dim Ann(source) <= dim Ann(target)
    derived_ok: bool    # dim [S,S,S] >= dim [T',T',T']
    der_ok: bool        # dim Der(source) < dim Der(target)
    identical: bool
    values: dict
    ranks_ok: dict      # flattening name -> rank at the source >= rank at the target
    relative_ok: bool   # the relative invariant vanishes, or does not apply
    isomorphic: bool = False  # identical, or the same catalog class (name, xi)

    @property
    def violations(self):
        return self._violations(closure=False)

    @property
    def closure_violations(self):
        """Violations against the closure of the orbits of a one-parameter family.

        The source is a generic member.  The closed conditions (Ann, derived
        subspace, flattening ranks) hold on the closure; it is one dimension
        larger than an orbit, so dim Der may stay equal, and the relative
        invariant, constant on one orbit only, is not read."""
        return self._violations(closure=True)

    def _violations(self, closure):
        der, target_der = self.values["der"]
        checks = [(self.ann_ok, "annihilator dimension decreases"),
                  (self.derived_ok, "derived subspace dimension increases"),
                  (der <= target_der, "derivation dimension decreases") if closure else
                  (self.der_ok, "derivation dimension does not grow")]
        checks += [(ok, f"{name} flattening rank increases") for name, ok in self.ranks_ok.items()]
        if not closure:
            checks.append((self.relative_ok, "relative invariant q0^2 p^3 - p0^3 q^2 is nonzero"))
        return [message for ok, message in checks if not ok]

    @property
    def certifies_non_degeneration(self):
        # the derivation-count test assumes the systems are non-isomorphic
        return (not self.isomorphic) and bool(self.violations)

    def __str__(self):
        if self.isomorphic:
            return "isomorphic ends: degeneration is trivial"
        if not self.violations:
            return "all necessary conditions hold (no obstruction found)"
        return "; ".join(self.violations)


def necessary_conditions(source: Lts, target: Lts) -> NecessaryConditionReport:
    """Exact obstructions to a degeneration of ``source`` to ``target``.

    Under a degeneration to a non-isomorphic target dim Der grows, dim Ann
    cannot shrink, and neither dim [T,T,T] nor any of the three flattening
    ranks can grow.  The relative invariant decides pairs with equal ranks in
    dimension 4.  Let C be the closed set where [T,T,T] lies in Ann and
    dim [T,T,T] <= 1, and U the part of C where dim Ann <= 1; U is open in C.
    On U the coefficients p and q of the characteristic polynomial of a_theta
    have weights 2 and 3: a basis change scales them to (c^2 p, c^3 q),
    through det(phi) phi^-1 A phi on T3,1 and the scaling of the Ann line.
    So f = q0^2 p^3 - p0^3 q^2, with (p0, q0) read at the source, vanishes on
    the source's orbit and on its closure within U.  A target in U with
    f != 0 lies outside that closure.  Isomorphic ends, identical tensors or
    one catalog class, get no certificate.
    """
    values = {
        "ann": (source.annihilator().dim, target.annihilator().dim),
        "derived": (source.derived().dim, target.derived().dim),
        "der": (source.derivations()[0], target.derivations()[0]),
    }
    values.update(zip("LXZ", zip(source.flattening_ranks(), target.flattening_ranks())))
    pq = (catalog._t31_pq(source), catalog._t31_pq(target))
    values["pq"] = values["relative"] = None
    if None not in pq:
        (p0, q0), (p, q) = values["pq"] = pq
        values["relative"] = q0 * q0 * p * p * p - p0 * p0 * p0 * q * q
    identical = source == target
    return NecessaryConditionReport(
        ann_ok=values["ann"][0] <= values["ann"][1],
        derived_ok=values["derived"][0] >= values["derived"][1],
        der_ok=values["der"][0] < values["der"][1],
        identical=identical,
        values=values,
        ranks_ok={name: values[name][0] >= values[name][1] for name in "LXZ"},
        relative_ok=not values["relative"],
        isomorphic=identical or _same_catalog_class(source, target),
    )


def _same_catalog_class(source: Lts, target: Lts) -> bool:
    """Both ends nilpotent of one dimension <= 4 with the same (catalog name, xi)."""
    if source.dim != target.dim or source.dim > 4 or not (
            source.nilpotency().is_nilpotent and target.nilpotency().is_nilpotent):
        return False
    name_xi = catalog._name_and_xi(source)
    return name_xi[0] is not None and name_xi == catalog._name_and_xi(target)


# ---------------------------------------------------------------------------
# separating sets


class SeparatingSet:
    """Borel-stable linear locus of structure tensors, given by relations.

    ``relations`` is a list of (idx_a, idx_b, factor) meaning
    c_{idx_a} = factor * c_{idx_b} with 1-based (i, j, k, p) indices; every
    constant not mentioned in any relation must vanish (the printed
    "otherwise zero" convention), or is free when ``zero_otherwise`` is False.
    """

    def __init__(self, dim, relations, zero_otherwise=True, label=""):
        self.dim = dim
        self.relations = [(tuple(a), tuple(b), GaussianRational.of(f))
                          for a, b, f in relations]
        self.zero_otherwise = zero_otherwise
        self.label = label
        self.support = list(dict.fromkeys(idx for a, b, _ in self.relations for idx in (a, b)))

    def first_violation(self, rows):
        """First relation, then first off-support constant, that ``rows`` breaks.

        ``rows`` maps 0-based (i, j, k) to {p: value}; zero is tested by
        truthiness, so Q(i) and Q(i)(t) values both work.  Returns None when
        the rows lie in the locus, else a description of the violation.
        """
        def value(idx):
            i, j, k, p = idx
            return rows.get((i - 1, j - 1, k - 1), {}).get(p - 1, 0)

        for a, b, factor in self.relations:
            left, right = value(a), value(b)
            if (left - factor * right) if right else left:
                return f"relation {a} = {scalar_str(factor)}*{b} fails"
        if self.zero_otherwise:
            support = set(self.support)
            for (i, j, k), row in sorted(rows.items()):
                for p in sorted(row):
                    idx = (i + 1, j + 1, k + 1, p + 1)
                    if row[p] and idx not in support:
                        return f"constant {idx} is nonzero"
        return None

    def contains(self, system: Lts) -> bool:
        return self.first_violation(system.rows()) is None

    def basis(self):
        """Basis of the locus, as far as its Borel stability depends on it.

        The kernel of the relation rows c_a - factor*c_b over the support
        coordinates, one sparse Q(i) row dict, 0-based (i, j, k) -> {p: value},
        per kernel vector.  Borel stability is linear, so it depends only on
        the span: any basis of the locus gives the same verdict.  Without
        "otherwise zero" every constant off the support is free as well.  A
        matrix unit changes an index in at most one position, so only the free
        constants whose index differs from a support index in exactly one
        position are listed, as unit tensors; the Lie algebra moves the other
        free constants among free constants, inside the locus.
        """
        column = {idx: c for c, idx in enumerate(self.support)}
        equations = []
        for a, b, factor in self.relations:
            row = {column[a]: 1 - factor} if a == b else {column[a]: QI_ONE, column[b]: -factor}
            equations.append({c: x for c, x in row.items() if x})
        vectors = []
        for solution in nullspace(equations, len(self.support)):
            rows = {}
            for (i, j, k, p), value in zip(self.support, solution):
                if value:
                    rows.setdefault((i - 1, j - 1, k - 1), {})[p - 1] = value
            vectors.append(rows)
        if not self.zero_otherwise:
            support = set(self.support)
            neighbours = {idx[:pos] + (value,) + idx[pos + 1:]
                          for idx in support for pos in range(4)
                          for value in range(1, self.dim + 1)}
            for i, j, k, p in sorted(neighbours - support):
                vectors.append({(i - 1, j - 1, k - 1): {p - 1: GaussianRational(1)}})
        return vectors


@dataclass
class EvidenceReport:
    kind: str
    ok: bool
    detail: str

    def __str__(self):
        return f"{self.kind}: {'pass' if self.ok else 'FAIL'} - {self.detail}"


def borel_stability_evidence(separating: SeparatingSet, mode="symbolic") -> EvidenceReport:
    """Proof that the locus is stable under lower-triangular basis changes.

    The group B of invertible lower-triangular matrices is connected and the
    field has characteristic 0, so the linear locus R is B-stable iff it is
    stable under the Lie algebra of B: E_xy . v lies in R for every matrix
    unit E_xy with x >= y and every basis vector v of R.  Free constants whose
    index differs from every support index in two or more positions stay free
    under E_xy, so ``SeparatingSet.basis`` leaves them out.  Membership is
    ``first_violation``; all arithmetic is exact in Q(i).
    """
    if mode != "symbolic":
        raise MalformedInput("mode", f"unknown mode {mode!r}")
    n = separating.dim
    for vector in separating.basis():
        for x in range(n):
            for y in range(x + 1):
                violation = separating.first_violation(_lie_action(vector, x, y))
                if violation:
                    return EvidenceReport(
                        "borel-symbolic", False,
                        f"{violation} under E_{(x + 1, y + 1)} of the lower-triangular "
                        "Lie algebra")
    return EvidenceReport("borel-symbolic", True,
                          "locus stable under the lower-triangular Lie algebra")


# ---------------------------------------------------------------------------
# built-in witness and separating-set tables


def _family_to_t44_document(lam):
    """The family -> T4,4 witness document at a member lam outside the orbit of 1."""
    lam = GaussianRational.of(lam)
    if lam in catalog.FAMILY_SPECIAL_LAMBDAS:
        raise MalformedInput("lambda", f"witness undefined at lambda = {scalar_str(lam)}")
    c1 = scalar_str(1 / (lam - 1))
    c2 = scalar_str(-1 / (2 * lam + 1))
    c3 = scalar_str(-1 / (lam * lam + lam - 2))
    return {"source": {"name": "T4,6", "lambda": scalar_str(lam)}, "target": {"name": "T4,4"},
            "basis": [["0", "1", "0", "0"], ["1", f"({c1})/t", "0", "0"],
                      [f"({c2})/t", f"({c3})/t^2", "1", "0"], ["0", "0", "0", "1/t"]]}


TABLE2_WITNESSES = [
    {"source": {"name": "T4,7"}, "target": {"name": "T4,6", "lambda": "0"}, "basis": [
        ["1", "0", "0", "0"], ["0", "1", "0", "0"],
        ["0", "0", "1/t", "0"], ["0", "0", "0", "-1/t"]]},
    {"source": {"name": "T4,5"}, "target": {"name": "T4,6", "lambda": "1"}, "basis": [
        ["1", "0", "0", "0"], ["0", "t", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "t"]]},
    {"source": {"name": "T4,8"}, "target": {"name": "T4,3"}, "basis": [
        ["t", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "t^2", "0"], ["0", "0", "0", "t"]]},
    {"source": {"name": "T4,8"}, "target": {"name": "T4,9"}, "basis": [
        ["1", "0", "0", "0"], ["0", "t", "0", "0"], ["0", "0", "t", "0"], ["0", "0", "0", "t"]]},
    {"source": {"name": "T4,4"}, "target": {"name": "T4,2"}, "basis": [
        ["0", "1", "0", "0"], ["0", "0", "t", "0"], ["0", "0", "0", "t"], ["t", "0", "0", "0"]]},
    {"source": {"name": "T4,9"}, "target": {"name": "T4,2"}, "basis": [
        ["1", "0", "0", "0"], ["0", "t", "0", "0"], ["0", "0", "t", "0"], ["0", "0", "0", "1"]]},
    {"source": {"name": "T4,3"}, "target": {"name": "T4,2"}, "basis": [
        ["1", "0", "0", "0"], ["0", "t", "0", "0"], ["0", "0", "t", "0"], ["0", "0", "0", "1"]]},
    {"source": {"name": "T4,2"}, "target": {"name": "T4,1"}, "basis": [
        ["t", "0", "0", "0"], ["0", "t", "0", "0"], ["0", "0", "t", "0"], ["0", "0", "0", "t"]]},
    {"source": {"name": "T4,8"}, "target": {"name": "T4,4"}, "basis": [
        ["0", "0", "1/t", "0"], ["0", "-i", "0", "0"],
        ["t", "0", "0", "0"], ["0", "0", "0", "t"]]},
    {"source": {"name": "T4,6", "lambda": "1"}, "target": {"name": "T4,2"}, "basis": [
        ["t", "0", "-1/(3*t)", "0"], ["0", "1", "0", "0"],
        ["0", "0", "0", "1"], ["0", "0", "1", "0"]]},
    {"source": {"name": "T4,7"}, "target": {"name": "T4,8"}, "basis": [
        ["1", "-1/(2*t^3)", "-1/(4*t^5)", "0"], ["0", "1/(2*t)", "-1/(4*t^3)", "0"],
        ["0", "0", "1/(2*t)", "0"], ["0", "0", "0", "-1/(4*t^4)"]]},
    {"source": {"name": "T4,5"}, "target": {"name": "T4,4"}, "basis": [
        ["t/3", "0", "0", "0"], ["0", "1", "0", "0"],
        ["-1/(3*t)", "1/t", "1", "0"], ["0", "0", "0", "1"]]},
    _family_to_t44_document(2),  # any member outside the orbit of 1 degenerates
]

TABLE4_WITNESS = {
    "source": {"name": "T4,6", "index_fn": "(1-t)/(1+t)"}, "target": {"name": "T4,5"}, "basis": [
        ["1/2", "1/(2*t)", "0", "0"], ["-1/(2*t)", "1/(2*t^2)", "0", "0"],
        ["0", "0", "1", "0"], ["0", "0", "0", "1/(2*t^2)"]]}

DIM3_WITNESS = {"source": {"name": "T3,2"}, "target": {"name": "T3,1"},
                "basis": [["t", "0", "0"], ["0", "t", "0"], ["0", "0", "t"]]}


def table2_witness(row_index: int, lam=None) -> DegenerationWitness:
    """1-based access to the rows of the main degeneration table.

    ``lam`` picks the member of the last row, family -> T4,4 (2 by default).
    """
    if not 1 <= row_index <= len(TABLE2_WITNESSES):
        raise MalformedInput("row", f"must be from 1 to {len(TABLE2_WITNESSES)}, got {row_index}")
    if lam is None:
        return witness_from_dict(TABLE2_WITNESSES[row_index - 1])
    if row_index != len(TABLE2_WITNESSES):
        raise MalformedInput("lambda", f"row {row_index} has no family parameter")
    return witness_from_dict(_family_to_t44_document(lam))


def table4_witness() -> DegenerationWitness:
    return witness_from_dict(TABLE4_WITNESS)


def _skew(i, j, k, p):
    return ((i, j, k, p), (j, i, k, p), GaussianRational(-1))


def table3_separating_set(row: int, lam=None) -> SeparatingSet:
    """Separating sets of the printed non-degeneration rows (1, 2 and 3)."""
    if row == 1:
        relations = [
            _skew(1, 2, 1, 3), _skew(1, 2, 1, 4), _skew(1, 2, 2, 4), _skew(1, 2, 3, 4),
            _skew(1, 3, 1, 4), _skew(1, 3, 2, 4),
            ((1, 3, 2, 4), (1, 2, 3, 4), GaussianRational(1)),
        ]
        return SeparatingSet(4, relations, label="T4,7 not-> T4,5, T4,6^lam (lam != 0,-1)")
    if row == 2:
        if lam is None:
            raise MalformedInput("lambda", "row 2 separating set is per fixed lambda")
        lam = GaussianRational.of(lam)
        relations = [
            _skew(1, 2, 1, 4), _skew(1, 2, 2, 4), _skew(1, 2, 3, 4),
            ((1, 2, 3, 4), (1, 3, 2, 4), 1 + lam),
            _skew(1, 3, 1, 4), _skew(1, 3, 2, 4), _skew(2, 3, 1, 4),
            ((2, 3, 1, 4), (1, 3, 2, 4), -lam),
        ]
        return SeparatingSet(4, relations, label=f"T4,6^{scalar_str(lam)} not-> T4,6^1")
    if row == 3:
        relations = [_skew(1, 2, 1, 3), _skew(1, 2, 1, 4), _skew(1, 3, 1, 4)]
        return SeparatingSet(4, relations, label="T4,9 not-> T4,3")
    raise MalformedInput("row", f"no separating set for row {row}")


def table5_separating_set(literal=False) -> SeparatingSet:
    """Separating set for the family non-degenerations.

    The printed table contains the self-referential relation
    c_{1,3,2}^4 = -c_{1,3,2}^4, which would force that constant to vanish and
    exclude every family member from its own separating set; the operative set
    replaces it with the (3,1,2) antisymmetry partner, the evident intention.
    ``literal=True`` keeps the printed self-relation, for inspection.
    """
    relations = [
        _skew(1, 2, 1, 4), _skew(1, 2, 2, 4), _skew(1, 2, 3, 4), _skew(1, 3, 1, 4),
        ((1, 3, 2, 4), (1, 3, 2, 4), GaussianRational(-1)) if literal else _skew(1, 3, 2, 4),
        _skew(2, 3, 1, 4),
    ]
    label = "T4,6^* not-> T4,9, T4,3" + (" [literal]" if literal else "")
    return SeparatingSet(4, relations, label=label)


# ---------------------------------------------------------------------------
# graph assembly


@dataclass
class GraphNode:
    name: str
    orbit_dim: int
    figure_stratum: Optional[int]
    kind: str = "system"  # "system" | "family"
    closure_dim: Optional[int] = None


@dataclass
class GraphEdge:
    source: str
    target: str
    kind: str  # "table2" | "table4" | "family-member" | "dim3"
    label: str = ""


@dataclass
class DegenerationGraph:
    dim: int
    nodes: list
    edges: list
    maximal: list

    def node(self, name):
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)

    def edge_pairs(self):
        return sorted((e.source, e.target) for e in self.edges)


_GENERIC_FAMILY_SAMPLE = GaussianRational(2)
# the family's distinguished members, the orbits of 0 and 1, at their published strata
_FAMILY_MEMBER_STRATA = {QI_ZERO: 10, GaussianRational(1): 8}
# edge kind: the table that holds the witness
_WITNESS_TABLES = {"table2": TABLE2_WITNESSES, "table4": [TABLE4_WITNESS],
                   "dim3": [DIM3_WITNESS]}


def _node_name(name, lam=None):
    """Diagram node of a system; a family member outside the orbits of 0 and 1,
    or a parametrized index (lam None), is the family node ``name*``."""
    if not catalog.ENTRIES[name].family:
        return name
    for member in _FAMILY_MEMBER_STRATA:
        if lam is not None and lam in catalog.lambda_orbit(member):
            return f"{name}^{scalar_str(member)}"
    return f"{name}*"


def degeneration_graph(dim=4) -> DegenerationGraph:
    """Assemble and verify the degeneration diagram for dimension 3 or 4.

    Nodes are the catalog entries of the dimension; the family appears as one
    node followed by its two distinguished members, joined to them by
    family-member edges.  The other edges are the verified built-in
    witnesses.  Every verified edge is cross-checked against the necessary
    conditions; a contradiction raises ``InconsistentGraph``, since it would
    mean a bug on one side or the other, so a returned graph is consistent.
    Orbit dimensions are computed from the derivation formula; the published
    strata are carried alongside as data.
    """
    if dim not in (3, 4):
        raise MalformedInput("dim", "graph supports dimensions 3 and 4")
    nodes, edges = [], []
    for name, entry in catalog.ENTRIES.items():
        if entry.dim != dim:
            continue
        if not entry.family:
            nodes.append(GraphNode(name, catalog.instantiate(name).orbit_dimension(),
                                   entry.figure_stratum))
            continue
        orbit = catalog.instantiate(name, _GENERIC_FAMILY_SAMPLE).orbit_dimension()
        nodes.append(GraphNode(_node_name(name), orbit, entry.figure_stratum,
                               kind="family", closure_dim=orbit + 1))
        for lam, stratum in _FAMILY_MEMBER_STRATA.items():
            member = _node_name(name, lam)
            nodes.append(GraphNode(member, catalog.instantiate(name, lam).orbit_dimension(),
                                   stratum))
            edges.append(GraphEdge(_node_name(name), member, "family-member", "family closure"))

    for kind, docs in _WITNESS_TABLES.items():
        for doc in docs:
            if catalog.ENTRIES[doc["source"]["name"]].dim != dim:
                continue
            witness = witness_from_dict(doc)
            report = verify_degeneration(witness)
            if not report.ok:
                raise InconsistentGraph(f"built-in witness failed: {report}")
            indexed = witness.index_fn is not None
            src_name = _node_name(witness.source, None if indexed else witness.source_lambda)
            tgt_name = _node_name(witness.target, witness.target_lambda)
            edges.append(GraphEdge(src_name, tgt_name, kind, witness.label))

            source = catalog.instantiate(witness.source, _GENERIC_FAMILY_SAMPLE) \
                if indexed else witness.source_system()
            conditions = necessary_conditions(source, witness.target_system())
            family = catalog.ENTRIES[witness.source].family
            closure = family and src_name == _node_name(witness.source)
            if conditions.closure_violations if closure else conditions.violations:
                raise InconsistentGraph(
                    f"verified edge {src_name} -> {tgt_name} violates a necessary condition")

    incoming = {n.name: 0 for n in nodes}
    for e in edges:
        if e.source != e.target:
            incoming[e.target] += 1
    maximal = sorted(name for name, count in incoming.items() if count == 0)
    return DegenerationGraph(dim, nodes, edges, maximal)


# ---------------------------------------------------------------------------
# JSON forms


def witness_to_dict(witness: DegenerationWitness) -> dict:
    source = {"name": witness.source}
    if witness.source_lambda is not None:
        source["lambda"] = scalar_str(witness.source_lambda)
    if witness.index_fn is not None:
        source["index_fn"] = rational_function_str(witness.index_fn)
    target = {"name": witness.target}
    if witness.target_lambda is not None:
        target["lambda"] = scalar_str(witness.target_lambda)
    return {"source": source, "target": target, "basis": witness.basis.to_strings()}


def witness_from_dict(doc: dict) -> DegenerationWitness:
    try:
        source = doc["source"]
        target = doc["target"]
        basis = doc["basis"]
    except (KeyError, TypeError):
        raise MalformedInput("witness", "needs source, target and basis")
    # each end names a catalog entry; a family end names exactly one parameter,
    # lambda or, at the source only, index_fn; no other end names one
    for end, spec in (("source", source), ("target", target)):
        if not isinstance(spec, dict) or not isinstance(spec.get("name"), str):
            raise MalformedInput(end, "needs a system name")
        entry = catalog.ENTRIES.get(spec["name"])
        if entry is None:
            raise MalformedInput(end, f"unknown system {spec['name']!r}")
        named = [key for key in ("lambda", "index_fn") if spec.get(key) is not None]
        for key in named:
            if not entry.family or (end, key) == ("target", "index_fn"):
                raise MalformedInput(key, f"the {end} {spec['name']} takes no {key}")
        if entry.family and len(named) != 1:
            raise MalformedInput(end, "a family end takes lambda or index_fn, not both" if named
                                 else "a family end needs lambda (or, at the source, index_fn)")
    dim = catalog.ENTRIES[source["name"]].dim
    # refused before ParametrizedBasis inverts it over Q(i)(t)
    if not (isinstance(basis, list) and len(basis) == dim
            and all(isinstance(row, list) and len(row) == dim for row in basis)):
        raise MalformedInput("basis", f"needs {dim} rows of {dim} entries for {source['name']}")
    try:
        basis = ParametrizedBasis.from_strings(basis)
    except SingularBasis as exc:
        raise MalformedInput("basis", str(exc))

    def parameter(spec, key, parse):
        return None if spec.get(key) is None else _scalar(spec[key], key, parse)

    return DegenerationWitness(source["name"], target["name"], basis,
                               parameter(source, "lambda", parse_scalar),
                               parameter(source, "index_fn", parse_rational_function),
                               parameter(target, "lambda", parse_scalar))


def separating_set_to_dict(separating: SeparatingSet) -> dict:
    return {
        "dim": separating.dim,
        "equal": [[list(a), list(b), scalar_str(f)] for a, b, f in separating.relations],
        "zero_otherwise": separating.zero_otherwise,
    }


def separating_set_from_dict(doc: dict) -> SeparatingSet:
    try:
        dim = doc["dim"]
        rels = doc["equal"]
    except (KeyError, TypeError):
        raise MalformedInput("separating set", "needs dim and equal relations")
    dim = _dimension(dim, 1)
    zero_otherwise = doc.get("zero_otherwise", True)
    if not isinstance(zero_otherwise, bool):
        raise MalformedInput("zero_otherwise", "must be true or false")
    if not isinstance(rels, (list, tuple)):
        raise MalformedInput("equal", "expected a list of relations")

    relations = []
    for item in rels:
        if not (isinstance(item, list) and len(item) == 3):
            raise MalformedInput("equal", f"a relation is [index, index, factor], got {item!r}")
        a, b, f = item
        relations.append((_index(a, 4, dim, "equal"), _index(b, 4, dim, "equal"),
                          _scalar(f, "equal", parse_scalar)))
    return SeparatingSet(dim, relations, zero_otherwise)
