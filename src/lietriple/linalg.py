"""Exact linear algebra, generic over any of the scalar fields.

Equations are sparse rows {column: value}, as their callers build them.  One
sparse Gauss-Jordan elimination, ``_eliminate``, does every row reduction:
each row pivots on its highest column, and the pivot rows stay zero at each
other's pivots.  ``nullspace`` reads its canonical basis off the pivot rows
and ``rank`` counts them; neither makes a row dense.  ``Subspace`` and
``rref`` take dense rows and eliminate them with the columns negated, so
each row pivots on its lowest column: the reduced echelon form.
``mat_inverse`` reduces the sparse rows [A | I] the same way.  Entries are
taken into one field, Q(i)(t) if one is a RationalFunction and Q(i)
otherwise, so an int matrix gives exact GaussianRationals, never floats.

``nullspace`` over Q(i) is modular-first.  Rows are mapped to F_p with
p = 998244353, which is 1 mod 4, so i maps to iota = 3^((p-1)/4), a square
root of -1 there; the same sparse elimination mod p picks the rows.  Rows
independent mod p are independent over Q(i), since a nonzero minor mod p is
a nonzero minor; the exact kernel is taken of those rows only and then
checked exactly, in Z[i], against every other row.  An unlucky prime can only
lower the rank seen mod p: a check then fails and the full exact elimination
decides.  Arithmetic mod p chooses rows; it never decides an answer.
"""

from __future__ import annotations

from .errors import SingularMatrix
from .scalars import GaussianRational, RationalFunction, field_of, gaussian_integers

_P = 998244353  # prime, 1 mod 4
_IOTA = pow(3, (_P - 1) // 4, _P)  # 3 generates F_p^*, so this squares to -1

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
    field, rows = _in_field([{-c: x for c, x in enumerate(row) if x} for row in rows])
    reduced = {}
    for q, row in sorted(_eliminate(rows, ncols)[0].items(), reverse=True):
        dense = reduced[-q] = [field.zero] * ncols
        for c, x in row.items():
            dense[-c] = x
    return field, reduced


def rank(rows) -> int:
    """Rank of sparse rows {column: value}; the columns are any sortable keys."""
    _, rows = _in_field(_nonzero(rows))
    return len(_eliminate(rows, len({c for row in rows for c in row}))[1])


def _in_field(rows):
    """(field, the sparse rows with their entries in it): Q(i)(t) if an entry is a
    RationalFunction, Q(i) otherwise."""
    field = next((RationalFunction for row in rows for x in row.values()
                  if isinstance(x, RationalFunction)), GaussianRational)
    return field, [{c: field.of(x) for c, x in row.items()} for row in rows]


def _nonzero(rows):
    """The sparse rows without their zero entries; rows left empty are dropped."""
    rows = (row if all(row.values()) else {c: x for c, x in row.items() if x} for row in rows)
    return [row for row in rows if row]


def nullspace(rows, ncols):
    """Canonical dense basis of {x : row . x = 0} for sparse rows {column: value}.

    Columns are 0 .. ncols - 1.  The vector ``_kernel`` reads off a free
    column f has its leading 1 at f and its other entries at pivot columns
    above f, so the basis is canonical as read.  When every entry is a
    GaussianRational, the exact kernel is taken of the rows independent mod p
    (at most ``ncols`` of them) and each basis vector is checked in Z[i]
    against every row left out; a failed check (an unlucky prime) or a
    denominator divisible by p falls back to the elimination of all rows.  The
    basis lies in Q(i)(t) when an entry is a RationalFunction, in Q(i) otherwise.
    """
    rows = _nonzero(rows)
    cleared = _cleared_rows(rows)
    if cleared is not None:
        kept = _independent_mod_p(cleared, ncols)
        if len(kept) == ncols:  # independent over Q(i) as well: the kernel is 0
            return []
        if len(kept) < len(rows):
            basis = _kernel([rows[r] for r in kept], ncols)
            kept = set(kept)
            if _kernel_holds(basis, [row for r, row in enumerate(cleared) if r not in kept]):
                return basis
    return _kernel(rows, ncols)


def _cleared_rows(rows):
    """Each sparse row as [(column, a, b)] over Z[i], the rows' common denominator cleared.

    None unless every entry is a GaussianRational whose denominator p does not
    divide.  One scale for all rows changes neither their rank mod p nor which
    vectors annihilate them.
    """
    cleared = gaussian_integers([x for row in rows for x in row.values()])
    if cleared is None or cleared[0] % _P == 0:
        return None
    pairs = iter(cleared[1])  # zip reads a column first, so it takes only that row's pairs
    return [[(c, a, b) for c, (a, b) in zip(row, pairs)] for row in rows]


def _independent_mod_p(cleared, ncols):
    """Indices of the rows independent mod p, in scan order, at most ncols of them."""
    return _eliminate([{c: x for c, a, b in row if (x := (a + b * _IOTA) % _P)}
                       for row in cleared], ncols, _P)[1]


def _kernel(rows, ncols):
    """Canonical kernel basis of the sparse rows: one vector per free column, in column order."""
    field, rows = _in_field(rows)
    pivots, _ = _eliminate(rows, ncols)
    basis = {f: [field.zero] * ncols for f in range(ncols) if f not in pivots}
    for f, vec in basis.items():
        vec[f] = field.one
    for pc, row in pivots.items():
        for f, x in row.items():
            if f != pc:
                basis[f][pc] = -x
    return list(basis.values())


def _eliminate(rows, ncols, modulus=0):
    """Gauss-Jordan on sparse rows: ({pivot column: row}, indices of the rows that gave them).

    Entries are integers mod ``modulus``, or field elements when it is 0.  A
    row reduced by the pivot rows before it pivots on its highest column, with
    a 1 there, and is cleared from the pivot rows; so every pivot row is zero
    at the other pivots, and its entries sit at its pivot and at free columns
    below it.  The rows are reduced in place; the scan stops once every column
    is a pivot.
    """
    pivots, kept = {}, []
    for r, row in enumerate(rows):
        for pc in [c for c in row if c in pivots]:
            _add_multiple(row, -row[pc], pivots[pc], modulus)
        if not row:
            continue
        q = max(row)
        if row[q] != 1:
            inv = pow(row[q], -1, modulus) if modulus else 1 / row[q]
            row = {c: x * inv % modulus if modulus else x * inv for c, x in row.items()}
        for other in pivots.values():
            if q in other:
                _add_multiple(other, -other[q], row, modulus)
        pivots[q] = row
        kept.append(r)
        if len(kept) == ncols:
            break
    return pivots, kept


def _add_multiple(row, f, pivot, modulus):
    """row += f * pivot in place, on sparse rows; entries that cancel are dropped."""
    for c, y in pivot.items():
        x = row[c] + f * y if c in row else f * y
        if modulus:
            x %= modulus
        if x:
            row[c] = x
        else:
            del row[c]


def _kernel_holds(basis, cleared):
    """Every basis vector annihilates every cleared row: integer dot products in Z[i]."""
    vectors = _cleared_rows([{c: x for c, x in enumerate(vec) if x} for vec in basis])
    if vectors is None:
        return False
    vectors = [{c: (a, b) for c, a, b in vec} for vec in vectors]
    for row in cleared:
        for vec in vectors:
            re = im = 0
            for c, a, b in row:
                if c in vec:
                    u, w = vec[c]
                    re += a * u - b * w
                    im += a * w + b * u
            if re or im:
                return False
    return True


def mat_mul(A, B):
    m, inner = len(B[0]), len(B)
    return [[sum((row[k] * B[k][j] for k in range(inner)), start=field_of(row[0]).zero)
             for j in range(m)] for row in A]


def identity_matrix(n, field=GaussianRational):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def mat_inverse(A):
    """A^-1 from the sparse rows [A | I], reduced as in ``_reduced_echelon`` on the columns
    negated: the pivot row at column j holds row j of A^-1 in the I block, and a pivot in
    the I block means A is singular."""
    n = len(A)
    rows = [{-c: x for c, x in enumerate(row) if x} for row in A]
    for j, row in enumerate(rows):
        row[-n - j] = 1
    field, rows = _in_field(rows)
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
