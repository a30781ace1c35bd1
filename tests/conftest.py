"""Shared fixtures, the seeded sampler and independent oracles for the test suite.

The oracles deliberately avoid the library's own elimination code: rank is
computed by fraction-free cross-multiplication with a different pivoting
strategy, so dimension claims are checked through two unrelated routes, and
``reference_rref`` and ``reference_determinant`` are the textbook dense loops;
``full_rref_nullspace`` is the kernel that ``reference_rref`` gives.  The
trilinear evaluators ``lts_eval`` and ``cochain_eval`` extend a system's or a
cochain's constants to coordinate vectors, as the reference that the row
kernels are tested against, and ``reference_transported_rows`` is transport
over Q(i)(t) without packing.  ``ExactRandom`` draws the seeded exact data that
the tests run on; no verdict of the library rests on it.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from lietriple import catalog
from lietriple import degeneration as dg
from lietriple.cohomology import CochainSpace, Cocycle, _theta_rows, cocycle_space
from lietriple.core import _conjugate_rows, _first_slot_kernel
from lietriple.extension import ExtensionSpec
from lietriple.linalg import Subspace, identity_matrix, nullspace
from lietriple.scalars import QI_ZERO, GaussianRational, RationalFunction, coerce, field_of

# The published cocycles on T3,2 whose extensions are T4,7, T4,8 and T4,9.  For
# T4,9, Rad D[1,3,1] = <e2> is not inside Ann(T3,2) = <e3>: only the Ann(T) half
# of the radical meet makes the meet zero.
T32_EXTENSIONS = {
    "T4,7": {(1, 2, 3): 1, (1, 3, 2): 1},
    "T4,8": {(1, 3, 1): 1, (1, 2, 2): 1},
    "T4,9": {(1, 3, 1): 1},
}

DEFAULT_HEIGHT = 10


class ExactRandom:
    """Seeded small-height exact scalars, vectors, matrices and cochains.

    Numerators and denominators are bounded by 10 unless stated otherwise, so
    exact arithmetic stays fast, and every draw comes from an explicit
    ``random.Random`` seed.
    """

    def __init__(self, seed=0):
        self.rng = random.Random(seed)

    def rational(self, height=DEFAULT_HEIGHT) -> Fraction:
        return Fraction(self.rng.randint(-height, height), self.rng.randint(1, height))

    def gaussian(self, height=DEFAULT_HEIGHT, imaginary=True) -> GaussianRational:
        re = self.rational(height)
        im = self.rational(height) if imaginary and self.rng.random() < 0.5 else 0
        return GaussianRational(re, im)

    def nonzero_gaussian(self, height=DEFAULT_HEIGHT, imaginary=True) -> GaussianRational:
        while True:
            z = self.gaussian(height, imaginary)
            if z:
                return z

    def vector(self, n, height=DEFAULT_HEIGHT, imaginary=True):
        return [self.gaussian(height, imaginary) for _ in range(n)]

    def matrix(self, n, height=DEFAULT_HEIGHT, imaginary=True):
        return [self.vector(n, height, imaginary) for _ in range(n)]

    def invertible(self, n, height=DEFAULT_HEIGHT, imaginary=True):
        while True:
            m = self.matrix(n, height, imaginary)
            if reference_determinant(m) != 0:
                return m

    def unimodularish(self, n, steps=6):
        """Product of elementary matrices with unit determinant factors.

        Entries stay tiny, which keeps basis-changed tensors cheap to handle
        while still exercising genuinely non-diagonal transformations.
        """
        m = identity_matrix(n)
        units = [GaussianRational(1), GaussianRational(-1),
                 GaussianRational(0, 1), GaussianRational(0, -1)]
        for _ in range(steps):
            kind = self.rng.randrange(3)
            if kind == 0:  # row swap
                i, j = self.rng.sample(range(n), 2) if n > 1 else (0, 0)
                m[i], m[j] = m[j], m[i]
            elif kind == 1:  # unit scaling
                i = self.rng.randrange(n)
                u = self.rng.choice(units)
                m[i] = [u * x for x in m[i]]
            else:  # shear
                if n < 2:
                    continue
                i, j = self.rng.sample(range(n), 2)
                f = GaussianRational(self.rng.randint(-2, 2), self.rng.choice((0, 0, 1)))
                m[i] = [a + f * b for a, b in zip(m[i], m[j])]
        if reference_determinant(m) == 0:  # cannot happen; defensive
            return identity_matrix(n)
        return m

    def cocycle(self, space, height=3):
        """Random element of a cochain space with small integer coordinates."""
        total = None
        for basis_elem in space.basis:
            coeff = GaussianRational(self.rng.randint(-height, height))
            term = coeff * basis_elem
            total = term if total is None else total + term
        if total is None:
            return Cocycle(space.ambient, {})
        return total

    def functional(self, n, height=3):
        return [GaussianRational(self.rng.randint(-height, height)) for _ in range(n)]


def lts_eval(system, x, y, z):
    """[x, y, z]: the trilinear extension of the structure constants to coordinate vectors."""
    out = [system._zero] * system.dim
    for (i, j, k), row in system.rows().items():
        if x[i] == 0 or y[j] == 0 or z[k] == 0:
            continue
        g = x[i] * y[j] * z[k]
        for p, val in row.items():
            out[p] = out[p] + g * val
    return out


def cochain_eval(theta, x, y, z):
    """theta(x, y, z): the trilinear extension of the cochain to coordinate vectors."""
    total = QI_ZERO
    for (i, j, k), val in theta.coeffs.items():
        total = total + val * ((x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]) * z[k - 1])
    return total


def reference_transported_rows(system, basis):
    """Rows of ``system`` in a parametrized basis: the conjugation kernel run on
    the constants lifted to Q(i)(t), as transport did before it was packed, by
    A^T and its inverse by cofactors over Q(i)(t) (``reference_inverse``), which
    shares no elimination with the basis's own cleared inverse."""
    lifted = {key: {p: RationalFunction.of(val) for p, val in row.items()}
              for key, row in system.rows().items()}
    transposed = [list(column) for column in zip(*basis.rows)]
    return _conjugate_rows(lifted, transposed, reference_inverse(transposed))


def reference_inverse(A):
    """A^-1 = adj(A) / det A by cofactors, each minor a ``reference_determinant``."""
    n = len(A)
    det = reference_determinant(A)
    minor = [[reference_determinant([row[:q] + row[q + 1:] for r, row in enumerate(A) if r != p])
              for q in range(n)] for p in range(n)]
    return [[(-1) ** (p + q) * minor[q][p] / det for q in range(n)] for p in range(n)]


def general_path_witness(witness):
    """A copy of ``witness`` whose basis records no Cartan form, so that
    ``verify_degeneration`` checks it by transport over Z[i][t]."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dg, "_cartan_form", lambda rows: None)
        return dataclasses.replace(witness, basis=dg.ParametrizedBasis(witness.basis.rows))


def span_coordinates(system, cochains):
    """Canonical reduced-echelon coordinates of the span of ``cochains``.

    Two subspaces of one ambient cochain space are equal exactly when these
    agree with their ``CochainSpace.coordinates``.
    """
    return CochainSpace(system, [c.coordinates() for c in cochains]).coordinates


def sparse_rows(rows):
    """Dense rows as the {column: value} rows that ``nullspace`` and ``rank`` take, zeros kept."""
    return [dict(enumerate(row)) for row in rows]


def oracle_rank(rows):
    """Row rank via fraction-free elimination (no division, last-row pivots)."""
    rows = [[GaussianRational.of(x) if isinstance(x, int) else x for x in row]
            for row in rows if any(x != 0 for x in row)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    used = [False] * len(rows)
    for col in range(ncols):
        pivot = None
        for r in range(len(rows) - 1, -1, -1):  # opposite scan order to rref
            if not used[r] and rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        used[pivot] = True
        rank += 1
        pv = rows[pivot][col]
        for r in range(len(rows)):
            if r != pivot and not used[r] and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [pv * a - f * b for a, b in zip(rows[r], rows[pivot])]
    return rank


def reference_rref(rows):
    """Textbook dense Gauss-Jordan, column by column: (reduced rows, pivot columns)."""
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


def full_rref_nullspace(rows, ncols):
    """Kernel basis from the reduced echelon form of every row, made canonical."""
    reduced, pivots = reference_rref([row for row in rows if any(x != 0 for x in row)])
    zero = next((x - x for row in rows for x in row), GaussianRational(0))
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[fc] = zero + 1
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return [row for row in reference_rref(basis)[0] if any(x != 0 for x in row)]


def reference_determinant(A):
    """Textbook determinant by Gaussian elimination with row swaps."""
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


def oracle_annihilator_dim(system):
    """dim Ann via the rank of the full evaluation matrix, computed by the oracle."""
    n = system.dim
    rows = []
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            for p in range(1, n + 1):
                rows.append([system.constant(i, j, k, p) for i in range(1, n + 1)])
    return n - oracle_rank(rows)


def oracle_derived_dim(system):
    """dim [T,T,T] as the oracle rank of the stacked product vectors."""
    n = system.dim
    rows = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                rows.append(system.product(i, j, k))
    return oracle_rank(rows)


def reference_radical(theta):
    """Rad(theta) = {x : theta(x, T, T) = 0} from the dense values theta(e_i, e_j, e_k)."""
    n = theta.ambient.dim
    rows = []
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            row = [theta.value(i, j, k) for i in range(1, n + 1)]
            if any(x != 0 for x in row):
                rows.append(row)
    return Subspace(n, nullspace(sparse_rows(rows), n))


def kernel_radical(theta):
    """Rad(theta) as ``extension._radical_meet`` reads it: the first-slot kernel of theta's rows."""
    return _first_slot_kernel(theta.ambient.dim, _theta_rows([theta]))


def basis_vector(n, k, scale=1):
    """1-based standard basis vector."""
    return [GaussianRational.of(scale) if q == k else GaussianRational(0)
            for q in range(1, n + 1)]


def t32_extension(name):
    """The extension spec of T3,2 by the published cocycle of ``name``."""
    base = catalog.instantiate("T3,2")
    return ExtensionSpec(base, [Cocycle(base, T32_EXTENSIONS[name])])


@pytest.fixture(scope="session")
def t21():
    return catalog.instantiate("T2,1")


@pytest.fixture(scope="session")
def t31():
    return catalog.instantiate("T3,1")


@pytest.fixture(scope="session")
def t32():
    return catalog.instantiate("T3,2")


@pytest.fixture(scope="session")
def seeded_specs():
    """Seeded closed cocycles, s = 1 and 2, on every catalog base of dimension <= 4.

    The family enters at a special and a generic parameter.  Generic cocycles
    have a zero radical, so these specs do not read the Ann(T) half of the
    radical meet; ``T32_EXTENSIONS`` does.
    """
    bases = [(name, catalog.instantiate(name))
             for name, entry in catalog.ENTRIES.items() if not entry.family]
    bases += [(f"T4,6^{lam}", catalog.instantiate("T4,6", GaussianRational(lam))) for lam in (1, 2)]
    rng = ExactRandom(67)
    specs = []
    for label, base in bases:
        space = cocycle_space(base)
        for s in (1, 2):
            for _ in range(3):
                specs.append((f"{label} s={s}",
                              ExtensionSpec(base, [rng.cocycle(space) for _ in range(s)])))
    return specs
