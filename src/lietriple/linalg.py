"""Exact linear algebra, generic over any of the scalar fields.

Equations are sparse rows {column: value}, as their callers build them.  One
sparse Gauss-Jordan elimination, ``_eliminate``, does every row reduction:
each row pivots on its highest column, the pivot rows stay zero at each
other's pivots, and the 1 at a row's own pivot is not stored, so no row
subtraction computes the 0 it leaves there.  ``nullspace`` reads its
canonical basis off the pivot rows and ``rank`` counts them; neither makes a
row dense.  ``Subspace`` and ``rref`` take dense rows and eliminate them with
the columns negated, so each row pivots on its lowest column: the reduced
echelon form.  ``mat_inverse`` reduces the sparse rows [A | I] the same way.
Entries are taken into one field, Q(i)(t) if one is a RationalFunction and
Q(i) otherwise, so an int matrix gives exact GaussianRationals, never floats.
Every elimination is exact and reads all of its rows.
"""

from __future__ import annotations

from .errors import SingularMatrix
from .scalars import GaussianRational, RationalFunction, field_of

__all__ = ["rref", "rank", "nullspace", "mat_mul", "identity_matrix", "mat_inverse", "Subspace"]


def rref(rows):
    """Reduced row echelon form: (rows, pivot columns), the zero rows kept at the end.

    Nothing in the package calls it; it stays public as the dense entry point
    for callers outside it, such as the benchmark's row counter.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    field, reduced = _reduced_echelon(rows, ncols)
    zeros = [[field.zero] * ncols for _ in range(len(rows) - len(reduced))]
    return list(reduced.values()) + zeros, list(reduced)


def _reduced_echelon(rows, ncols):
    """(field, {pivot column: row}) of dense rows' canonical reduced echelon form, in column order.

    ``_eliminate`` runs on the columns negated, so each row pivots on its
    lowest column and every row is zero at the other pivots.
    """
    field, rows = _negated(rows)
    reduced = {}
    for q, row in sorted(_eliminate(rows, ncols)[0].items(), reverse=True):
        dense = reduced[-q] = [field.zero] * ncols
        dense[-q] = field.one
        for c, x in row.items():
            dense[-c] = x
    return field, reduced


def _field(values):
    """Q(i)(t) if a value is a RationalFunction, Q(i) otherwise."""
    return next((RationalFunction for x in values if isinstance(x, RationalFunction)),
                GaussianRational)


def _negated(rows):
    """(field, dense rows as sparse rows in it on the columns negated), each row built once."""
    field = _field(x for row in rows for x in row)
    return field, [{-c: field.of(x) for c, x in enumerate(row) if x} for row in rows]


def rank(rows) -> int:
    """Rank of sparse rows {column: value}; the columns are any sortable keys."""
    _, rows = _in_field(rows)
    return len(_eliminate(rows, len({c for row in rows for c in row}))[1])


def _in_field(rows):
    """(field, copies of the sparse rows with their entries in it): zero entries and the
    rows left empty are dropped."""
    rows = list(rows)
    field = _field(x for row in rows for x in row.values())
    rows = ({c: field.of(x) for c, x in row.items() if x} for row in rows)
    return field, [row for row in rows if row]


def nullspace(rows, ncols):
    """Canonical dense basis of {x : row . x = 0} for sparse rows {column: value}.

    Columns are 0 .. ncols - 1.  The vector read off a free column f has its
    leading 1 at f and its other entries at pivot columns above f, so the
    basis is canonical as read.  It lies in Q(i)(t) when an entry is a
    RationalFunction, in Q(i) otherwise.
    """
    field, rows = _in_field(rows)
    pivots, _ = _eliminate(rows, ncols)
    basis = {f: [field.zero] * ncols for f in range(ncols) if f not in pivots}
    for f, vec in basis.items():
        vec[f] = field.one
    for pc, row in pivots.items():
        for f, x in row.items():
            basis[f][pc] = -x
    return list(basis.values())


def _eliminate(rows, ncols):
    """Gauss-Jordan on sparse rows: ({pivot column: row}, indices of the rows that gave them).

    A row reduced by the pivot rows before it pivots on its highest column
    and is cleared from the pivot rows; so every pivot row is zero at the
    other pivots, and its entries sit at free columns below its pivot.  The
    pivot's own entry, 1, is not stored, so a subtraction of a pivot row
    never computes the 0 it leaves there.  The rows are reduced in place;
    the scan stops once every column is a pivot.
    """
    pivots, kept = {}, []
    for r, row in enumerate(rows):
        for pc in [c for c in row if c in pivots]:
            _subtract(row, row.pop(pc), pivots[pc])
        if not row:
            continue
        q = max(row)
        lead = row.pop(q)
        if lead != 1:
            inv = 1 / lead
            row = {c: x * inv for c, x in row.items()}
        for other in pivots.values():
            if q in other:
                _subtract(other, other.pop(q), row)
        pivots[q] = row
        kept.append(r)
        if len(kept) == ncols:
            break
    return pivots, kept


def _subtract(row, f, tail):
    """row -= f * tail in place, on sparse rows; entries that cancel are dropped."""
    for c, y in tail.items():
        x = row[c] - f * y if c in row else -(f * y)
        if x:
            row[c] = x
        else:
            del row[c]


def mat_mul(A, B):
    m, inner = len(B[0]), len(B)
    return [[sum((row[k] * B[k][j] for k in range(inner) if row[k]), start=field_of(row[0]).zero)
             for j in range(m)] for row in A]


def identity_matrix(n, field=GaussianRational):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def mat_inverse(A):
    """A^-1 from the sparse rows [A | I], reduced as in ``_reduced_echelon`` on the columns
    negated: the pivot row at column j holds row j of A^-1 in the I block, and a pivot in
    the I block means A is singular."""
    n = len(A)
    field, rows = _negated(A)
    for j, row in enumerate(rows):
        row[-n - j] = field.one
    pivots, _ = _eliminate(rows, 2 * n)
    if any(q <= -n for q in pivots):
        raise SingularMatrix("matrix is not invertible")
    return [[pivots[-j].get(-n - c, field.zero) for c in range(n)] for j in range(n)]


class Subspace:
    """Subspace of F^n held as canonical reduced-echelon basis rows."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient, vectors=()):
        self.ambient = ambient
        self.basis = list(_reduced_echelon(vectors, ambient)[1].values())

    @classmethod
    def _echelon(cls, ambient, basis):
        """The span of rows already in canonical reduced echelon form, taken as they are."""
        space = cls.__new__(cls)
        space.ambient, space.basis = ambient, basis
        return space

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector) -> bool:
        return len(_reduced_echelon(self.basis + [vector], self.ambient)[1]) == self.dim

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient, tuple(tuple(r) for r in self.basis)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient})"
