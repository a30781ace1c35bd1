"""Exact linear algebra, generic over any of the scalar fields.

Equations are sparse rows {column: value}, as their callers build them;
``nullspace`` and ``rank`` make dense only the rows they eliminate.  ``rref``,
``Subspace`` and ``mat_inverse`` take lists of lists, for small dense matrices.
The routines only assume field elements that support +, -, *, / and
comparison with 0/1, so the same code runs over Q(i), Q(i)(t), and anything
with the same operator surface.

``nullspace`` over Q(i) is modular-first.  Rows are mapped to F_p with
p = 998244353, which is 1 mod 4, so i maps to iota = 3^((p-1)/4), a square
root of -1 there.  Rows independent mod p are independent over Q(i), since a
nonzero minor mod p is a nonzero minor; the exact kernel is taken of those
rows only and then checked exactly, in Z[i], against every other row.  An
unlucky prime can only lower the rank seen mod p: a check then fails and the
full exact elimination decides.  Arithmetic mod p chooses rows; it never
decides an answer.
"""

from __future__ import annotations

from .errors import SingularMatrix
from .scalars import GaussianRational, RationalFunction, coerce, field_of, gaussian_integers

_P = 998244353  # prime, 1 mod 4
_IOTA = pow(3, (_P - 1) // 4, _P)  # 3 generates F_p^*, so this squares to -1

__all__ = [
    "rref",
    "rank",
    "nullspace",
    "mat_mul",
    "identity_matrix",
    "mat_inverse",
    "determinant",
    "Subspace",
]


def rref(rows):
    """Reduced row echelon form. Returns (new_rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for k in range(r, len(rows)):
            if rows[k][c] != 0:
                pivot_row = k
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        if rows[r][c] != 1:
            inv = 1 / coerce(rows[r][c])  # an int pivot gives Q(i), never a float
            rows[r] = [x * inv if x else x for x in rows[r]]
        pivot_row_vals = rows[r]
        for k in range(len(rows)):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [a - f * b if b else a
                           for a, b in zip(rows[k], pivot_row_vals)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(rows) -> int:
    """Rank of sparse rows {column: value}; the columns are any sortable keys."""
    rows = _dedupe_nonzero(rows)
    columns = sorted({c for row in rows for c in row})
    return len(rref([[row.get(c, 0) for c in columns] for row in rows])[1])


def _dedupe_nonzero(rows):
    seen = set()
    out = []
    for row in rows:
        if not all(row.values()):
            row = {c: x for c, x in row.items() if x}
        key = frozenset(row.items())
        if row and key not in seen:
            seen.add(key)
            out.append(row)
    return out


def nullspace(rows, ncols):
    """Canonical dense basis of {x : row . x = 0} for sparse rows {column: value}.

    Columns are 0 .. ncols - 1.  When every entry is a GaussianRational, the
    exact kernel is taken of the rows independent mod p (at most ``ncols`` of
    them) and each basis vector is checked in Z[i] against every row left out;
    a failed check (an unlucky prime) or a denominator divisible by p falls
    back to the elimination of all rows.  The kernel is the same either way,
    and the final ``rref`` makes its basis canonical.  The basis lies in
    Q(i)(t) when an entry is a RationalFunction, in Q(i) otherwise.
    """
    rows = _dedupe_nonzero(rows)
    cleared = _cleared_rows(rows)
    if cleared is not None:
        kept = _independent_mod_p(cleared, ncols)
        if len(kept) == ncols:  # independent over Q(i) as well: the kernel is 0
            return []
        if len(kept) < len(rows):
            basis = _kernel_basis([rows[r] for r in kept], ncols)
            kept = set(kept)
            if _kernel_holds(basis, [row for r, row in enumerate(cleared) if r not in kept]):
                return basis
    return _kernel_basis(rows, ncols)


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
    """Indices of the rows independent mod p, in scan order, at most ncols of them.

    Each kept row, reduced mod p, joins a semi-echelon basis: it is zero at
    the pivots of the rows kept before it, so one pass reduces a new row.
    """
    echelon = []  # (pivot column, row mod p with 1 at the pivot)
    kept = []
    for r, row in enumerate(cleared):
        v = [0] * ncols
        for c, a, b in row:
            v[c] = (a + b * _IOTA) % _P
        for pc, e in echelon:
            f = v[pc] % _P
            if f:
                v = [x - f * y for x, y in zip(v, e)]
        v = [x % _P for x in v]
        pc = next((c for c, x in enumerate(v) if x), None)
        if pc is None:
            continue
        inv = pow(v[pc], -1, _P)
        echelon.append((pc, [x * inv % _P for x in v]))
        kept.append(r)
        if len(kept) == ncols:
            break
    return kept


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


def _kernel_basis(rows, ncols):
    """Canonical kernel basis from the exact reduced echelon form of the sparse ``rows``."""
    field = next((RationalFunction for row in rows for x in row.values()
                  if isinstance(x, RationalFunction)), GaussianRational)
    reduced, pivots = rref([[field.of(row[c]) if c in row else field.zero for c in range(ncols)]
                            for row in rows])
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    basis, _ = rref(basis)
    return [row for row in basis if any(x != 0 for x in row)]


def mat_mul(A, B):
    m, inner = len(B[0]), len(B)
    return [[sum((row[k] * B[k][j] for k in range(inner)), start=field_of(row[0]).zero)
             for j in range(m)] for row in A]


def identity_matrix(n, field=GaussianRational):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def mat_inverse(A):
    n = len(A)
    field = field_of(A[0][0]) if n else GaussianRational  # the identity block's field
    aug = [list(row) + ident for row, ident in zip(A, identity_matrix(n, field))]
    reduced, pivots = rref(aug)
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    return [row[n:] for row in reduced]


def determinant(A):
    n = len(A)
    rows = [list(r) for r in A]
    det = 1
    sign = 1
    for c in range(n):
        pivot_row = None
        for k in range(c, n):
            if rows[k][c] != 0:
                pivot_row = k
                break
        if pivot_row is None:
            return field_of(A[0][0]).zero
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            sign = -sign
        p = rows[c][c]
        det = det * p
        inv = 1 / coerce(p)
        for k in range(c + 1, n):
            if rows[k][c] != 0:
                f = rows[k][c] * inv
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[c])]
    return det * sign


class Subspace:
    """Subspace of F^n held as canonical reduced-echelon basis rows."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient, vectors=()):
        self.ambient = ambient
        reduced, _ = rref([list(v) for v in vectors])
        self.basis = [row for row in reduced if any(x != 0 for x in row)]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector) -> bool:
        if all(x == 0 for x in vector):
            return True
        stacked, _ = rref(self.basis + [list(vector)])
        nonzero = [row for row in stacked if any(x != 0 for x in row)]
        return len(nonzero) == self.dim

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient != other.ambient or self.dim != other.dim:
            return False
        return all(
            a == b for ra, rb in zip(self.basis, other.basis) for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash((self.ambient, tuple(tuple(r) for r in self.basis)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient})"
