"""Lie triple systems stored as their nonzero structure constants.

A system of dimension n is stored as its nonzero rows: 0-based (i, j, k) maps
to {p: c_{ijk}^p} with [e_i, e_j, e_k] = sum_p c_{ijk}^p e_p, and a product
that vanishes has no row.  Public indices, table keys and JSON documents are
1-based.  The defining identities:

    (A1)  [x,y,z] + [y,x,z] = 0
    (A2)  [x,y,z] + [y,z,x] + [z,x,y] = 0
    (A3)  [u,v,[x,y,z]] = [[u,v,x],y,z] + [x,[u,v,y],z] + [x,y,[u,v,z]]

Partial multiplication tables list only generating products; completion closes
them in one pass under (A1) and the two-known-one-forced case of (A2),
zero-fills the rest and then checks all three identities on the rows they touch.
The check settles (A1) first, comparing each row with its mirror (j, i, k);
when every row passes it reads no (A1) cell, (A2) only at i < j < k and (A3)
only at x < y, since the other cells are zero or minus one of those.
The (A3) residual at (u, v, x, y, z) is linear in ad(u, v) = [u, v, .], so
``Lts.check_axioms``, and no other caller, reads it only at the pairs whose
ad(u, v) span the inner derivations L(T, T) (Lister, Trans. AMS 72, 1952).  A
pair left out has ad(u, v) in the span of the kept pairs before it, so the
first failing pair is a kept one: the report is the full scan's, with no fallback.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Optional

from .errors import (
    AxiomViolation,
    DimensionMismatch,
    InconsistentTable,
    MalformedInput,
    NotALieAlgebra,
    ParseError,
    axiom_failure_text,
)
from .linalg import Subspace, _eliminate, identity_matrix, mat_inverse, mat_mul, nullspace, rank
from .packed import _add_lanes, _packed_gaussian_rows, _unpacked_residual
from .scalars import QI_ONE, QI_ZERO, GaussianRational, coerce, field_of, parse_scalar, scalar_str

__all__ = [
    "Lts",
    "AxiomReport",
    "NilpotencyReport",
    "Fingerprint",
    "complete_table",
    "direct_sum",
    "lts_from_lie",
    "change_basis_tensor",
    "first_axiom_failure",
    "lts_to_dict",
    "lts_from_dict",
]


# Documents may not ask for more: completion passes over dim^3 triples and the
# derivation system has dim^2 unknowns.  The catalog stops at 4, extensions at 5.
MAX_DIM = 16


def _integer_in(value, least, most):
    """Whether a JSON value is an integer from least to most; a boolean is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and least <= value <= most


def _dimension(value, least):
    """A document's ``dim``: an integer from least to MAX_DIM."""
    if not _integer_in(value, least, MAX_DIM):
        raise MalformedInput("dim", f"must be an integer from {least} to {MAX_DIM}")
    return value


def _index(value, length, dim, field):
    """An index tuple: a list of ``length`` integers from 1 to dim."""
    if not (isinstance(value, list) and len(value) == length
            and all(_integer_in(x, 1, dim) for x in value)):
        raise MalformedInput(field, f"expected {length} integers from 1 to {dim}, got {value!r}")
    return tuple(value)


def _scalar(value, field, parse):
    """A scalar: a JSON string, read by ``parse_scalar`` or ``parse_rational_function``."""
    if not isinstance(value, str):
        raise MalformedInput(field, f"expected a string, got {value!r}")
    try:
        return parse(value)
    except ParseError as exc:
        raise MalformedInput(field, str(exc)) from None


def _memo(fn):
    """``fn(system)`` computed once and kept in ``system._cache`` under fn's
    qualified name; a string key keeps the system picklable, and ``wraps``
    lets ``inspect.unwrap`` find the original code."""
    key = fn.__qualname__

    @functools.wraps(fn)
    def memoized(system):
        if key not in system._cache:
            system._cache[key] = fn(system)
        return system._cache[key]
    return memoized


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    identity: Optional[str] = None  # "A1" | "A2" | "A3"
    indices: Optional[tuple] = None  # 1-based witness tuple
    residual: Optional[tuple] = None

    def __str__(self):
        if self.ok:
            return "(A1)(A2)(A3) pass"
        return axiom_failure_text(self.identity, self.indices, self.residual)


@dataclass(frozen=True)
class NilpotencyReport:
    is_nilpotent: bool
    index: Optional[int]  # smallest m with T^(m) = 0, None if not nilpotent
    series: tuple  # the subspaces T^(0) ⊇ T^(1) ⊇ ... as computed

    @property
    def series_dims(self):
        return tuple(s.dim for s in self.series)


@dataclass(frozen=True, order=True)
class Fingerprint:
    """Isomorphism-invariant signature; equality is necessary for isomorphism."""

    dim: int
    dim_ann: int
    dim_derived: int
    dim_der: int
    nilpotency_index: Optional[int]
    dim_z3: int
    dim_h3: int


class Lts:
    """Immutable Lie triple system over an exact scalar field.

    ``constants`` is a dense nested list c[i][j][k][p]; ``Lts.from_rows``
    builds a system from its nonzero rows without a dense tensor.
    """

    def __init__(self, constants):
        n = len(constants)
        self._set_rows(n, {(i, j, k): dict(enumerate(constants[i][j][k]))
                           for i in range(n) for j in range(n) for k in range(n)})

    @classmethod
    def from_rows(cls, dim, rows):
        """System of dimension ``dim`` from 0-based (i, j, k) -> {p: value}."""
        system = cls.__new__(cls)
        system._set_rows(dim, rows)
        return system

    def _set_rows(self, dim, rows):
        clean = {}
        for key in sorted(rows):
            row = {}
            for p, val in sorted(rows[key].items()):
                val = coerce(val)
                if val:
                    row[p] = val
            if row:
                clean[key] = row
        self._rows = clean
        first = next(iter(clean.values()), None)
        self._zero = field_of(next(iter(first.values()))).zero if first else QI_ZERO
        self.dim = dim
        self._cache = {}

    # -- raw access ---------------------------------------------------------

    def rows(self):
        """Read-only map of 0-based (i, j, k) to {p: value}, nonzero rows only."""
        return MappingProxyType(self._rows)

    def constant(self, i, j, k, p):
        """1-based structure constant c_{ijk}^p."""
        return self._rows.get((i - 1, j - 1, k - 1), {}).get(p - 1, self._zero)

    def product(self, i, j, k):
        """1-based basis product [e_i, e_j, e_k] as a coordinate vector."""
        row = self._rows.get((i - 1, j - 1, k - 1), {})
        return [row.get(p, self._zero) for p in range(self.dim)]

    def nonzero_entries(self):
        """Iterate (i, j, k, p, value) over nonzero constants, 0-based."""
        for (i, j, k), row in self._rows.items():
            for p, val in row.items():
                yield i, j, k, p, val

    def __eq__(self, other):
        if not isinstance(other, Lts):
            return NotImplemented
        # a constant of Q(i)(t) equals its Q(i) value, so the rows alone do not tell the field
        return (self.dim == other.dim and self._rows == other._rows
                and field_of(self._zero) is field_of(other._zero))

    def __hash__(self):
        return hash((self.dim, tuple((key, tuple(row.items()))
                                     for key, row in self._rows.items())))

    def __repr__(self):
        nz = sum(len(row) for row in self._rows.values())
        return f"Lts(dim={self.dim}, nonzero={nz})"

    # -- axioms ---------------------------------------------------------------

    @_memo
    def check_axioms(self) -> AxiomReport:
        """The first failing identity of an exhaustive scan, or a pass; (A3) is
        read at the ``_inner_pairs`` only, as the module docstring says."""
        failure = first_axiom_failure(self.dim, self._rows, self._inner_pairs())
        if failure is not None:
            return AxiomReport(False, *failure)
        return AxiomReport(True)

    def require_axioms(self) -> "Lts":
        """The system itself if (A1)-(A3) hold; raise AxiomViolation otherwise."""
        report = self.check_axioms()
        if not report.ok:
            raise AxiomViolation(report.identity, report.indices, report.residual)
        return self

    # -- structural invariants -------------------------------------------------

    @_memo
    def annihilator(self) -> Subspace:
        """Ann(T) = {x : [x, T, T] = 0}, as a canonical subspace."""
        return _first_slot_kernel(self.dim, self._rows)

    def derived(self) -> Subspace:
        """T^(1) = [T, T, T], the series' first step; T itself when the series stops at once."""
        series = self.nilpotency().series
        return series[1] if len(series) > 1 else series[0]

    @_memo
    def nilpotency(self) -> NilpotencyReport:
        """Series T^(0) = T, T^(m+1) = [T^(m), T, T] until zero or stabilization."""
        n, zero, mirrored = self.dim, self._zero, self._satisfies_a1()
        current = Subspace._echelon(n, identity_matrix(n, field_of(zero)))
        series = [current]
        # T^(1) = [T, T, T] is spanned by the rows, by those at i < j under (A1)
        vectors = [[row.get(p, zero) for p in range(n)]
                   for (i, j, _), row in self._rows.items() if not mirrored or i < j]
        while current.dim > 0:
            nxt = Subspace(n, vectors)
            if nxt.dim == current.dim:  # stabilized above zero
                break
            current = nxt
            series.append(current)
            vectors = []
            for v in current.basis:
                cells = {}  # (j, k) -> [v, e_j, e_k] = sum_i v_i row(i, j, k)
                for (i, j, k), row in self._rows.items():
                    if v[i]:
                        _add_row(cells, (j, k), row, v[i])
                vectors.extend([cell.get(p, zero) for p in range(n)]
                               for cell in cells.values() if any(cell.values()))
        nilpotent = current.dim == 0
        return NilpotencyReport(nilpotent, len(series) - 1 if nilpotent else None,
                                tuple(series))

    @_memo
    def adapted_basis(self):
        """Rows of a basis through Ann(T) and the series, or None for the standard basis.

        The canonical rows of Ann and then of the series terms, deepest first,
        are stacked, and the independent ones sorted by first nonzero coordinate.
        A system whose every product is a multiple of one basis vector, as a
        catalog table is, keeps its basis.
        """
        if all(len(row) == 1 for row in self._rows.values()):
            return None
        stacked = [*self.annihilator().basis,
                   *(v for term in reversed(self.nilpotency().series) for v in term.basis)]
        kept = _eliminate([{c: x for c, x in enumerate(v) if x} for v in stacked], self.dim)[1]
        basis = sorted((stacked[r] for r in kept),
                       key=lambda v: next(c for c, x in enumerate(v) if x))
        return None if basis == identity_matrix(self.dim, field_of(self._zero)) else basis

    @_memo
    def _adapted(self):
        """(h, g, g*T) with h = g^-1 the transposed ``adapted_basis``, or None without one."""
        if (basis := self.adapted_basis()) is not None:
            h = [list(column) for column in zip(*basis)]
            g = mat_inverse(h)
            return h, g, self.change_basis(g)

    @_memo
    def derivations(self):
        """Dimension and matrix basis of Der(T), the stabilizer Lie algebra of the product.

        D = sum_ab D_ab E_ab, with D e_b = sum_a D_ab e_a, is a derivation when
        D . mu = sum_ab D_ab (E_ab . mu) vanishes; one equation per constant of
        the infinitesimal action, unknowns D_ab in the order a*n + b.  The
        action keeps (A1), so on rows that satisfy it the equation at (j, i, k)
        is minus the one at (i, j, k) and the one at (i, i, k) is zero: only
        keys with i < j are read.  With an adapted basis the sparse equations of
        g*T are solved: Der(g*T) = g Der(T) g^-1, so each D' maps back to h D' g.
        """
        n, adapted = self.dim, self._adapted()
        h, g, image = adapted or (None, None, self)
        mirrored = image._satisfies_a1()
        forms = {}  # (i, j, k, p) -> {a*n + b: coefficient}
        for a in range(n):
            for b in range(n):
                for (i, j, k), row in _lie_action(image._rows, a, b).items():
                    if mirrored and i >= j:
                        continue
                    for p, val in row.items():
                        forms.setdefault((i, j, k, p), {})[a * n + b] = val
        vectors = nullspace(forms.values(), n * n)
        if adapted:
            squares = ([vec[a * n:(a + 1) * n] for a in range(n)] for vec in vectors)
            vectors = Subspace(n * n, [sum(mat_mul(mat_mul(h, d), g), []) for d in squares]).basis
        matrices = [[vec[a * n:(a + 1) * n] for a in range(n)] for vec in vectors]
        return len(matrices), matrices

    @_memo
    def flattening_ranks(self):
        """Ranks (L, X, Z) of x^y -> [x,y,.], x -> [x,.,.] and z -> [.,.,z].

        Each is GL-invariant with Zariski-closed sublevel sets, so it can only
        drop under degeneration (Burde-Steinhoff, J. Algebra 214, 1999;
        Grunewald-O'Halloran, J. Algebra 112, 1988).  Only nonzero columns are
        built; L's rank is the number of ``_inner_pairs``, and the kernel of X
        is Ann(T), so X = dim - dim Ann.  On rows that satisfy (A1), column
        (j, i, p) of Z is minus column (i, j, p), and nothing sits at i = j:
        only i < j is read.
        """
        mirrored, table = self._satisfies_a1(), {}
        for i, j, k, p, val in self.nonzero_entries():
            if not mirrored or i < j:
                table.setdefault(k, {})[(i, j, p)] = val
        return len(self._inner_pairs()), self.dim - self.annihilator().dim, rank(table.values())

    @_memo
    def _inner_pairs(self):
        """The pairs (u, v) whose L-flattening rows (u, v) -> {(w, p): c_uvw^p}, in
        sorted order, one ``_eliminate`` keeps; their number is the rank of L.

        A pair is kept when its row is independent of the rows before it.  On
        rows that satisfy (A1), ad(v, u) = -ad(u, v) and ad(u, u) = 0, so only
        u < v is read, and the kept ad(u, v) span the inner derivations.
        """
        mirrored, table = self._satisfies_a1(), {}
        for (u, v, w), row in self._rows.items():
            if not mirrored or u < v:
                cell = table.setdefault((u, v), {})
                for p, val in row.items():
                    cell[(w, p)] = val
        pairs = list(table)
        return [pairs[r] for r in _eliminate(list(table.values()), len(pairs))[1]]

    @_memo
    def _satisfies_a1(self):
        """(A1) on nonzero rows, by ``_antisymmetric``."""
        return _antisymmetric(self._rows)

    def orbit_dimension(self) -> int:
        """dim O(T) = n^2 - dim Der(T) for the conjugation action of GL_n."""
        return self.dim * self.dim - self.derivations()[0]

    # -- transformations --------------------------------------------------------

    def change_basis(self, g) -> "Lts":
        """Conjugated product (g*mu)(x,y,z) = g mu(g^{-1}x, g^{-1}y, g^{-1}z)."""
        h, g = _basis_change(self.dim, g)
        return Lts.from_rows(self.dim, _conjugate_rows(self._rows, h, g))

    @_memo
    def fingerprint(self) -> Fingerprint:
        from .cohomology import cocycle_space  # cycle-free at runtime

        nil = self.nilpotency()
        z3 = cocycle_space(self)
        derived = self.derived().dim
        return Fingerprint(
            dim=self.dim,
            dim_ann=self.annihilator().dim,
            dim_derived=derived,
            dim_der=self.derivations()[0],
            nilpotency_index=nil.index,
            dim_z3=z3.dim,
            dim_h3=z3.dim - derived,  # dim B^3 = dim [T,T,T]
        )


def _first_slot_kernel(n, rows):
    """{x : sum_i x_i row(i, j, k) = 0 for every (j, k)}, as a canonical subspace.

    ``rows`` maps 0-based (i, j, k), i < n, to {p: value}; there is one
    equation per nonzero (j, k, p).  Ann(T) and the meet of Ann(T) with the
    radicals Rad(theta_r) are this kernel of the rows of T and of T_theta.
    """
    columns = {}  # (j, k, p) -> {i: value}
    for (i, j, k), row in rows.items():
        for p, val in row.items():
            columns.setdefault((j, k, p), {})[i] = val
    return Subspace._echelon(n, nullspace(columns.values(), n))


def _add_row(cells, key, row, factor):
    """cells[key] += factor * row, for sparse {p: value} rows."""
    cell = cells.setdefault(key, {})
    for q, val in row.items():
        val = factor * val
        cell[q] = cell[q] + val if q in cell else val


def _antisymmetric(rows, lanes=None):
    """Whether each row (i, j, k) has a mirror (j, i, k) equal to minus it, so (A1) holds:
    one int comparison a row, P(j, i, k) == -P(i, j, k), with ``lanes`` from
    ``_packed_gaussian_rows``, else entry by entry, where a row at i = j fails."""
    if lanes is not None:
        return all((mirror := lanes.get((j, i, k))) is not None and mirror[0] == -lane[0]
                   for (i, j, k), lane in lanes.items())
    return all(i != j and (mirror := rows.get((j, i, k))) is not None and len(mirror) == len(row)
               and all(mirror.get(p) == -val for p, val in row.items())
               for (i, j, k), row in rows.items())


def _axiom_residuals(rows, lanes=None, pairs=None):
    """Residual of every (A1)-(A3) cell the nonzero rows touch, in scan order.

    ``rows`` maps 0-based (i, j, k) to {p: value}.  Yields (identity, 0-based
    indices, cell): the residual {q: value}, which may be zero, or one int with
    ``lanes`` from ``_packed_gaussian_rows``.  (A1) is read once per pair
    at i <= j and (A2) once per cyclic class at its least rotation, where an
    exhaustive scan first meets the same residual; (A3) comes per pair u < v,
    then by (x, y, z), lexicographically; ``pairs``, a sorted list, limits
    (A3) to the pairs it lists.

    (A1) is settled first: when every row is minus its mirror (``_antisymmetric``),
    no (A1) cell is yielded and (A2) is read at i < j < k only, as class
    (i, k, j) is minus class (i, j, k) and a class with a repeated index
    vanishes.  (A3) is then read and indexed only at x < y: the residual at
    (u, v, y, x, z) is minus the one at (u, v, x, y, z) and the one at
    (u, v, x, x, z) is zero, so the scan's first failing (A3) cell has x < y.
    Any other rows have every cell read; on the rows of a system, or on
    lanes, a failed comparison means a nonzero (A1) cell.
    """
    if lanes is None:
        add, vectors, one = _add_row, rows, 1
    else:
        add, vectors, one = _add_lanes, lanes, QI_ONE

    def row_sum(keys):
        cells = {}
        for key in keys:
            if key in vectors:
                add(cells, None, vectors[key], one)
        return cells[None]

    mirrored = _antisymmetric(rows, lanes)
    if mirrored:  # (A2) classes at i < j < k, (A3) at x < y
        classes = {tuple(sorted(key)) for key in rows if len(set(key)) == 3}
    else:
        for i, j, k in sorted({(min(i, j), max(i, j), k) for i, j, k in rows}):
            yield "A1", (i, j, k), row_sum(((i, j, k), (j, i, k)))
        classes = {min((i, j, k), (j, k, i), (k, i, j)) for i, j, k in rows}
    for i, j, k in sorted(classes):
        yield "A2", (i, j, k), row_sum(((i, j, k), (j, k, i), (k, i, j)))

    ad = {}  # (u, v) -> {w: (row (u, v, w), its vector)}
    for key, row in rows.items():
        ad.setdefault(key[:2], {})[key[2]] = row, vectors[key]
    by_target = {}  # p -> [((x, y, z), c_{xyz}^p)] over the rows read
    for key, row in rows.items():
        if not mirrored or key[0] < key[1]:
            for p, val in row.items():
                by_target.setdefault(p, []).append((key, val))
    by_slot = ({}, {}, {})  # slot s, index p -> [(key[:s], key[s+1:], vector)] with key[s] = p
    for key, vector in vectors.items():
        for s in range(3) if not mirrored or key[0] < key[1] else range(2):
            by_slot[s].setdefault(key[s], []).append((key[:s], key[s + 1:], vector))
    for u, v in sorted(pair for pair in ad if pair[0] < pair[1]) if pairs is None else pairs:
        residuals = {}  # (x, y, z) -> cell
        for p, (_, vector) in ad[(u, v)].items():  # ad(u,v) [x,y,z]
            for key, val in by_target.get(p, ()):
                add(residuals, key, vector, val)
        for w, (ad_w, _) in ad[(u, v)].items():  # ad(u,v) e_w put in each slot
            for p, val in ad_w.items():
                val = -val
                for s in range(3):
                    for head, tail, vector in by_slot[s].get(p, ()):
                        target = head + (w,) + tail
                        if not mirrored or target[0] < target[1]:
                            add(residuals, target, vector, val)
        for key in sorted(residuals):
            yield "A3", (u, v) + key, residuals[key]


def first_axiom_failure(dim, rows, pairs=None):
    """The lexicographically first failing identity, read from nonzero rows.

    Returns None or (identity, 1-based indices, residual of length ``dim``),
    with (A1) before (A2) before (A3) and (u, v, x, y, z), u < v, ordered
    lexicographically as in an exhaustive scan; ``pairs`` limits (A3) to the
    pairs it lists, as ``Lts.check_axioms`` does.  Rows over Q(i) run the
    kernel on lane-packed Gaussian integers (``lietriple.packed``) and read
    back only the first nonzero cell; any other field runs it on the rows as
    they are.
    """
    (rows, lanes), scale, width = _packed_gaussian_rows(dim, rows) or ((rows, None), 1, 0)
    for identity, indices, cell in _axiom_residuals(rows, lanes, pairs):
        if lanes is not None and cell:
            residual = _unpacked_residual(identity, cell, dim, scale, width)
        elif lanes is None and any(cell.values()):
            zero = field_of(next(iter(cell.values()))).zero
            residual = tuple(cell.get(q, zero) for q in range(dim))
        else:
            continue
        return identity, tuple(x + 1 for x in indices), residual
    return None


def _lie_action(rows, x, y):
    """E_xy . mu for the 0-based matrix unit E_xy, on sparse rows.

    The derivative at t = 0 of the conjugation by I + t E_xy, in the
    convention of ``_conjugate_rows(rows, g^-1, g)``: the output index gains
    row[y] at x, and each input slot holding x hands its row, negated, to y.
    """
    out = {}
    for key, row in rows.items():
        if y in row:
            cell = out.setdefault(key, {})
            cell[x] = cell[x] + row[y] if x in cell else row[y]
        for slot in range(3):
            if key[slot] == x:
                cell = out.setdefault(key[:slot] + (y,) + key[slot + 1:], {})
                for p, val in row.items():  # negation is cheaper than a product with -1
                    cell[p] = cell[p] - val if p in cell else -val
    cleaned = ((key, {p: val for p, val in row.items() if val}) for key, row in out.items())
    return {key: row for key, row in cleaned if row}


def _conjugate_rows(rows, h, g):
    """Nonzero rows of sum h[a][i] h[b][j] h[c][k] (g . row_abc)[p] at (i, j, k), p.

    With h = g^{-1} this is g*mu.  Ring-generic: w = g . row is formed once per
    nonzero row and spread over the nonzero entries of h; zero tests are by
    truthiness.
    """
    n = len(g)
    h_support = [[(i, x) for i, x in enumerate(row) if x] for row in h]
    g_columns = [[(p, g[p][q]) for p in range(n) if g[p][q]] for q in range(n)]
    out = {}
    for (a, b, c), row in rows.items():
        w = {}
        for q, val in row.items():
            for p, x in g_columns[q]:
                x = x * val
                w[p] = w[p] + x if p in w else x
        w = {p: val for p, val in w.items() if val}
        if not w:
            continue
        for i, x in h_support[a]:
            for j, y in h_support[b]:
                xy = x * y
                for k, z in h_support[c]:
                    _add_row(out, (i, j, k), w, xy * z)
    cleaned = ((key, {p: val for p, val in row.items() if val}) for key, row in out.items())
    return {key: row for key, row in cleaned if row}


def _basis_change(n, g):
    """(g^{-1}, g) for a square basis-change matrix of size n."""
    if len(g) != n or any(len(row) != n for row in g):
        raise DimensionMismatch("basis-change matrix has wrong shape")
    g = [[coerce(x) for x in row] for row in g]
    return mat_inverse(g), g


def _dense_tensor(n, rows, zero):
    """Dense c[i][j][k][p] from 0-based nonzero rows, ``zero`` elsewhere."""
    out = [[[[zero] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for (i, j, k), row in rows.items():
        for p, val in row.items():
            out[i][j][k][p] = val
    return out


def change_basis_tensor(constants, g):
    """Dense structure constants of g*mu, given an Lts or a dense c[i][j][k][p]."""
    source = constants if isinstance(constants, Lts) else Lts(constants)
    h, g = _basis_change(source.dim, g)
    return _dense_tensor(source.dim, _conjugate_rows(source.rows(), h, g), field_of(g[0][0]).zero)


def complete_table(dim, generators):
    """Close a partial multiplication table under (A1) and forced (A2) cases.

    ``generators`` maps 1-based triples (i, j, k) with i != j to coefficient
    vectors of length ``dim``, or lists such pairs, a repeated triple with its
    one value.  Products still undetermined after the pass are zero.  The
    completed system is axiom-checked before being returned.
    """
    known = {}  # 0-based (i, j, k), i != j -> coefficient tuple
    for (i, j, k), vec in (generators.items() if hasattr(generators, "items") else generators):
        if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
            raise MalformedInput("products", f"index out of range in ({i},{j},{k})")
        if i == j:
            raise InconsistentTable(f"generator ({i},{j},{k}) must have i != j")
        v = tuple(coerce(x) for x in vec)
        if len(v) != dim:
            raise MalformedInput("products", f"value for ({i},{j},{k}) must have length {dim}")
        key, mirror = (i - 1, j - 1, k - 1), (j - 1, i - 1, k - 1)
        for (a, b, c), value in ((key, v), (mirror, tuple(-x for x in v))):
            if known.setdefault((a, b, c), value) != value:
                raise InconsistentTable(
                    f"conflicting values for [e{a+1},e{b+1},e{c+1}]: "
                    f"{[str(x) for x in known[(a, b, c)]]} vs {[str(x) for x in value]}"
                )

    # One pass over the cyclic classes that hold a known product suffices.  (A2)
    # ties together only the three rotations of a triple, so forcing a class
    # changes no other class's missing count.  The (A1) mirrors of a class form
    # a class that holds the negated products, so the same pass forces the
    # mirror of each forced product to its negation.
    for i, j, k in {min((i, j, k), (j, k, i), (k, i, j)) for i, j, k in known}:
        cyc = (i, j, k), (j, k, i), (k, i, j)
        missing = [t for t in cyc if t[0] != t[1] and t not in known]
        if len(missing) != 1:  # [e_i, e_i, e_k] = 0 is known
            continue
        total = [sum(col, QI_ZERO) for col in zip(*(known[t] for t in cyc if t in known))]
        known[missing[0]] = tuple(-x for x in total)

    system = Lts.from_rows(dim, {key: dict(enumerate(vec)) for key, vec in known.items()})
    return system.require_axioms()


def direct_sum(a: Lts, b: Lts) -> Lts:
    """Block sum on dim(a) + dim(b); all mixed products vanish."""
    n = a.dim
    rows = dict(a.rows())
    for (i, j, k), row in b.rows().items():
        rows[(n + i, n + j, n + k)] = {n + p: val for p, val in row.items()}
    return Lts.from_rows(n + b.dim, rows)


def lts_from_lie(bracket) -> Lts:
    """Triple system [x,y,z] = [[x,y],z] from Lie algebra structure constants.

    ``bracket[i][j]`` is the coordinate vector of [e_{i+1}, e_{j+1}].
    Antisymmetry is checked first.  It gives (A1), and (A2) is then the Jacobi
    identity, so the axiom check of the product is the Jacobi check.
    """
    n = len(bracket)
    b = [[[coerce(x) for x in bracket[i][j]] for j in range(n)] for i in range(n)]
    nonzero = {}  # i -> {j: [e_i, e_j] as {p: value}}, nonzero brackets only
    for i in range(n):
        for j in range(n):
            if any(x + y != 0 for x, y in zip(b[i][j], b[j][i])):
                raise NotALieAlgebra(f"bracket not antisymmetric at ({i+1},{j+1})")
            row = {p: x for p, x in enumerate(b[i][j]) if x}
            if row:
                nonzero.setdefault(i, {})[j] = row
    rows = {}  # [[e_i, e_j], e_k] = sum_p b_ij^p [e_p, e_k]
    for i, brackets in nonzero.items():
        for j, ij in brackets.items():
            for p, x in ij.items():
                for k, pk in nonzero.get(p, {}).items():
                    _add_row(rows, (i, j, k), pk, x)
    system = Lts.from_rows(n, rows)
    report = system.check_axioms()
    if not report.ok:
        raise NotALieAlgebra("Jacobi identity fails at ({},{},{})".format(*report.indices))
    return system


# ---------------------------------------------------------------------------
# JSON document form


def lts_to_dict(system: Lts) -> dict:
    """{"dim": n, "field": ..., "products": [...]} listing i<j nonzero generators.

    Documents are over Q or Q(i); a system over Q(i)(t) is refused.
    """
    products = []
    rational_only = True
    for (i, j, k), row in system.rows().items():
        if i >= j:
            continue
        value = {}
        for p, x in row.items():
            if not isinstance(x, GaussianRational):
                raise MalformedInput("field", "a document is over Q or Q(i), not Q(i)(t)")
            value[str(p + 1)] = scalar_str(x)
            if not x.is_rational:
                rational_only = False
        products.append({"args": [i + 1, j + 1, k + 1], "value": value})
    return {"dim": system.dim, "field": "Q" if rational_only else "Q(i)", "products": products}


def lts_from_dict(doc: dict) -> Lts:
    """Parse in the declared field, complete and axiom-check a JSON Lts document."""
    if not isinstance(doc, dict):
        raise MalformedInput("document", "expected a JSON object")
    dim = _dimension(doc.get("dim"), 0)
    field = doc.get("field", "Q(i)")
    if field not in ("Q", "Q(i)"):
        raise MalformedInput("field", f"unknown field {field!r}")
    products = doc.get("products", [])
    if not isinstance(products, list):
        raise MalformedInput("products", "expected a list")
    generators = []  # (triple, vector) pairs, so that complete_table sees a repeated triple
    for entry in products:
        try:
            value = [(int(key), text) for key, text in entry["value"].items()]
        except (KeyError, TypeError, ValueError, AttributeError):
            raise MalformedInput("products", f"bad product entry {entry!r}")
        args = _index(entry.get("args"), 3, dim, "products")
        if len({p for p, _ in value}) < len(value):  # "3" and "03" both name e3
            raise MalformedInput("products", f"a coordinate is named twice in {entry!r}")
        vec = [QI_ZERO] * dim
        for p, text in value:
            if not 1 <= p <= dim:
                raise MalformedInput("products", f"target index {p} out of range")
            vec[p - 1] = x = _scalar(text, "products", parse_scalar)
            if field == "Q" and not x.is_rational:
                raise MalformedInput("field", f"value {text!r} needs i in a document over Q")
        generators.append((args, vec))
    return complete_table(dim, generators)
