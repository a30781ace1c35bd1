"""Scalar-valued cocycles on a Lie triple system and their cohomology.

A cochain is stored by its values a_{i,j,k} = theta(e_i, e_j, e_k) for i < j;
antisymmetry in the first two arguments is built into the storage.  The
cocycle conditions, with [.,.,.] the ambient product:

    (B1)  theta(x,y,z) + theta(y,x,z) = 0                      (storage)
    (B2)  theta(x,y,z) + theta(y,z,x) + theta(z,x,y) = 0
    (B3)  theta(u,v,[x,y,z]) + theta([v,u,x],y,z)
          + theta(x,[v,u,y],z) + theta(x,y,[v,u,z]) = 0

(B2) and (B3) are (A2) and (A3) of the extension T_theta on its new
coordinate, so both the closedness check and Z^3 are read off the axiom
kernel of core: Z^3 from one extension carrying every elementary cochain on a
coordinate of its own.

Coboundaries are delta f (x,y,z) = f([x,y,z]) for linear functionals f, and
H^3 = Z^3 / B^3.  Coordinates throughout are taken over the standard basis of
elementary antisymmetric forms indexed by (i, j, k), i < j, in lexicographic
order.
"""

from __future__ import annotations

from functools import cached_property

from .errors import (
    DimensionMismatch,
    MalformedInput,
    NotAbelianDim3,
    NotAnAutomorphism,
    RelationViolated,
    SingularMatrix,
)
from .core import (Lts, _axiom_residuals, _conjugate_rows, _index, _memo, _scalar,
                   first_axiom_failure, lts_to_dict)
from .linalg import Subspace, identity_matrix, nullspace
from .scalars import QI_ZERO, coerce, parse_scalar, scalar_str

__all__ = [
    "Cocycle",
    "CochainSpace",
    "delta_indices",
    "cocycle_space",
    "coboundary_space",
    "cohomology",
    "coboundary_of",
    "aut_action",
    "matrix_form",
    "a_theta",
    "is_automorphism",
]


def delta_indices(n):
    """Lexicographic (i, j, k) with 1 <= i < j <= n, 1 <= k <= n."""
    return [(i, j, k) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            for k in range(1, n + 1)]


class Cocycle:
    """Scalar-valued trilinear cochain on an ambient system, antisymmetric in (x, y)."""

    def __init__(self, ambient: Lts, coeffs=None):
        self.ambient = ambient
        clean = {}
        for (i, j, k), val in (coeffs or {}).items():
            if not (1 <= i < j <= ambient.dim and 1 <= k <= ambient.dim):
                raise DimensionMismatch(f"bad cochain index ({i},{j},{k}) for dim {ambient.dim}")
            v = coerce(val)
            if v != 0:
                clean[(i, j, k)] = v
        self.coeffs = clean

    def value(self, a, b, c):
        """theta(e_a, e_b, e_c) with 1-based indices."""
        zero = self.ambient._zero
        if a == b:
            return zero
        if a < b:
            return self.coeffs.get((a, b, c), zero)
        return -self.coeffs.get((b, a, c), zero)

    def coordinates(self):
        """Coefficient vector over the lexicographic elementary-form basis."""
        idx = delta_indices(self.ambient.dim)
        return [self.coeffs.get(t, self.ambient._zero) for t in idx]

    def __add__(self, other):
        if self.ambient is not other.ambient and self.ambient != other.ambient:
            raise DimensionMismatch("cochains on different systems")
        keys, zero = set(self.coeffs) | set(other.coeffs), self.ambient._zero
        return Cocycle(self.ambient, {t: self.coeffs.get(t, zero) + other.coeffs.get(t, zero)
                                      for t in keys})

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Cocycle(self.ambient, {t: -v for t, v in self.coeffs.items()})

    def __rmul__(self, scalar):
        return Cocycle(self.ambient, {t: v * scalar for t, v in self.coeffs.items()})

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, Cocycle):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def check_closed(self):
        """Verify (B2) and (B3) on the nonzero rows; (B1) holds by storage.

        (B2) and (B3) are (A2) and (A3) of T_theta on its new coordinate.  The
        residual vanishes on every other coordinate of an ambient that satisfies
        the axioms, so the axiom kernel reports them at the same indices as an
        exhaustive scan.
        """
        ambient = self.ambient.require_axioms()
        failure = first_axiom_failure(ambient.dim + 1, extension_rows(ambient, [self]))
        if failure is not None:
            identity, indices, _ = failure
            return False, ("B" + identity[1:], indices)
        return True, None

    def __repr__(self):
        terms = ", ".join(f"({i},{j},{k}): {v}" for (i, j, k), v in sorted(self.coeffs.items()))
        return f"Cocycle({{{terms}}})"


def _theta_rows(thetas, p=0):
    """The thetas as 0-based rows (i, j, k) -> {p + r: value of theta_r}, in both
    orders of (i, j)."""
    rows = {}
    for r, theta in enumerate(thetas, p):
        for (i, j, k), val in theta.coeffs.items():
            rows.setdefault((i - 1, j - 1, k - 1), {})[r] = val
            rows.setdefault((j - 1, i - 1, k - 1), {})[r] = -val
    return rows


def extension_rows(base: Lts, thetas):
    """Nonzero rows of T_theta: theta_r is read on the new coordinate dim(base) + r."""
    rows = {key: dict(row) for key, row in base.rows().items()}
    for key, cell in _theta_rows(thetas, base.dim).items():
        rows.setdefault(key, {}).update(cell)
    return rows


class CochainSpace:
    """A subspace of cochains with a canonical reduced-echelon basis."""

    def __init__(self, ambient: Lts, vectors):
        self.ambient = ambient
        self._space = Subspace(len(delta_indices(ambient.dim)), vectors)
        self.coordinates = self._space.basis

    @classmethod
    def _canonical(cls, ambient: Lts, rows):
        """The span of rows already in canonical reduced echelon form, taken as they are."""
        space = cls.__new__(cls)
        space.ambient, space.coordinates = ambient, rows
        space._space = Subspace._echelon(len(delta_indices(ambient.dim)), rows)
        return space

    @cached_property
    def basis(self):
        """The basis rows as Cocycle objects, built when first read."""
        idx = delta_indices(self.ambient.dim)
        return [Cocycle(self.ambient, dict(zip(idx, row))) for row in self.coordinates]

    @property
    def dim(self):
        return len(self.coordinates)

    def contains(self, theta: Cocycle) -> bool:
        return self._space.contains(theta.coordinates())

    def __repr__(self):
        return f"CochainSpace(dim {self.dim} on Lts dim {self.ambient.dim})"


@_memo
def cocycle_space(system: Lts) -> CochainSpace:
    """Z^3, the solution space of (B1)-(B3) over all basis tuples.

    One extension carries every elementary cochain on a coordinate of its
    own; each axiom residual of it, read on those coordinates, is one
    (B2) or (B3) equation.  With an adapted basis the sparse equations of g*T
    are solved: theta' is in Z^3(g*T) exactly when theta(x, y, z) =
    theta'(gx, gy, gz) is in Z^3(T).
    """
    n, adapted = system.dim, system._adapted()
    _, g, image = adapted or (None, None, system)
    idx = delta_indices(n)
    units = [Cocycle(image, {t: 1}) for t in idx]
    equations = [{q - n: x for q, x in cell.items() if q >= n and x}
                 for _, _, cell in _axiom_residuals(extension_rows(image, units))]
    basis = nullspace(equations, len(idx))
    if not adapted:
        return CochainSpace._canonical(system, basis)
    thetas = _pulled_back([Cocycle(image, dict(zip(idx, row))) for row in basis], g)
    return CochainSpace(system, [[coeffs.get(t, system._zero) for t in idx] for coeffs in thetas])


def _pulled_back(thetas, phi):
    """The coefficients of theta(phi x, phi y, phi z) for each theta: one pass of
    ``_conjugate_rows``, theta_r on coordinate r, h = phi and g the identity."""
    coeffs = [{} for _ in thetas]
    rows = _conjugate_rows(_theta_rows(thetas), phi, identity_matrix(len(thetas)))
    for (i, j, k), row in rows.items():
        if i < j:
            for r, val in row.items():
                coeffs[r][(i + 1, j + 1, k + 1)] = val
    return coeffs


def coboundary_of(system: Lts, functional) -> Cocycle:
    """delta f for a linear functional given by its coefficient row."""
    coeffs = {}
    for (i, j, k), row in system.rows().items():
        if i < j:
            val = sum((functional[p] * x for p, x in row.items()), start=QI_ZERO)
            if val != 0:
                coeffs[(i + 1, j + 1, k + 1)] = val
    return Cocycle(system, coeffs)


@_memo
def coboundary_space(system: Lts) -> CochainSpace:
    """B^3 spanned by delta of the dual basis; dim B^3 = dim [T,T,T]."""
    position = {t: c for c, t in enumerate(delta_indices(system.dim))}
    vectors = [[QI_ZERO] * len(position) for _ in range(system.dim)]  # delta e_p^*: c_ijk^p
    for (i, j, k), row in system.rows().items():
        if i < j:
            for p, val in row.items():
                vectors[p][position[(i + 1, j + 1, k + 1)]] = val
    return CochainSpace(system, vectors)


def cohomology(system: Lts):
    """(dim H^3, representative cochains): an echelon complement of B^3 in Z^3.

    The Z^3 echelon vectors are reduced modulo the B^3 echelon rows.  That
    reduction has kernel B^3, which lies in Z^3, so the reduced vectors span a
    complement; its reduced-echelon basis is canonical and reproducible.
    """
    z3 = cocycle_space(system)
    b3 = coboundary_space(system)
    if b3.dim == 0:
        return z3.dim, z3
    b_rows = [(next(c for c, x in enumerate(row) if x), row) for row in b3.coordinates]
    reps = []
    for row in z3.coordinates:
        for bp, br in b_rows:
            f = row[bp]
            if f:
                row = [a - f * b for a, b in zip(row, br)]
        reps.append(row)
    return z3.dim - b3.dim, CochainSpace(system, reps)


def cocycle_to_dict(theta: Cocycle) -> dict:
    """{"system": <Lts doc>, "coeffs": [{"ijk": [i,j,k], "value": str}, ...]}"""
    return {"coeffs": [{"ijk": [i, j, k], "value": scalar_str(v)}
                       for (i, j, k), v in sorted(theta.coeffs.items())],
            "system": lts_to_dict(theta.ambient)}


def cocycle_from_dict(doc: dict, ambient: Lts = None) -> Cocycle:
    """Parse a cocycle document; i < j is enforced on load."""
    if not isinstance(doc, dict) or "coeffs" not in doc:
        raise MalformedInput("coeffs", "cocycle document needs a coeffs list")
    system = ambient
    if "system" in doc:
        from . import catalog

        loaded = catalog._system(doc["system"], "system")
        if system is not None and loaded != system:
            raise MalformedInput("system", "cocycle system differs from the given ambient")
        system = loaded
    if system is None:
        raise MalformedInput("system", "no ambient system given")
    if not isinstance(doc["coeffs"], list):
        raise MalformedInput("coeffs", "expected a list")
    coeffs = {}
    for item in doc["coeffs"]:
        if not (isinstance(item, dict) and "ijk" in item and "value" in item):
            raise MalformedInput("coeffs", f"bad entry {item!r}")
        i, j, k = _index(item["ijk"], 3, system.dim, "coeffs")
        value = _scalar(item["value"], "coeffs", parse_scalar)
        if not i < j:
            raise MalformedInput("coeffs", f"indices must satisfy i < j, got {item['ijk']}")
        if coeffs.setdefault((i, j, k), value) != value:
            raise MalformedInput("coeffs", f"conflicting values for ijk {[i, j, k]}")
    return Cocycle(system, coeffs)


def is_automorphism(system: Lts, phi) -> bool:
    """phi is an automorphism iff the conjugated product equals the original."""
    try:
        return system.change_basis(phi) == system
    except (SingularMatrix, DimensionMismatch):
        return False


def aut_action(phi, theta: Cocycle, check=True) -> Cocycle:
    """(phi theta)(x,y,z) = theta(phi x, phi y, phi z); phi in Aut(T) by default.

    Columns of phi are the images of the basis vectors.
    """
    system = theta.ambient
    if len(phi) != system.dim or any(len(row) != system.dim for row in phi):
        raise DimensionMismatch(f"phi must be {system.dim}x{system.dim}")
    if check and not is_automorphism(system, phi):
        raise NotAnAutomorphism("matrix does not preserve the product")
    return Cocycle(system, _pulled_back([theta], phi)[0])


def matrix_form(theta: Cocycle):
    """Antisymmetric blocks C_1..C_n with (C_t)_{ij} = theta(e_i, e_j, e_t)."""
    n = theta.ambient.dim
    blocks = []
    for t in range(1, n + 1):
        blocks.append([[theta.value(i, j, t) for j in range(1, n + 1)]
                       for i in range(1, n + 1)])
    return blocks


def a_theta(theta: Cocycle):
    """Trace-zero 3x3 matrix encoding of a cocycle on the abelian 3-dim system.

    Rows are (a_{2,3,1}, a_{2,3,2}, a_{2,3,3}), (-a_{1,3,1}, -a_{1,3,2},
    -a_{1,3,3}), (a_{1,2,1}, a_{1,2,2}, a_{1,2,3}); the (B2) relation
    a_{1,3,2} = a_{1,2,3} + a_{2,3,1} makes the trace vanish.
    """
    system = theta.ambient
    if system.dim != 3 or any(True for _ in system.nonzero_entries()):
        raise NotAbelianDim3("ambient must be the abelian 3-dimensional system")
    a = theta.value
    if a(1, 3, 2) != a(1, 2, 3) + a(2, 3, 1):
        raise RelationViolated("cochain violates the cyclic relation a132 = a123 + a231")
    return [
        [a(2, 3, 1), a(2, 3, 2), a(2, 3, 3)],
        [-a(1, 3, 1), -a(1, 3, 2), -a(1, 3, 3)],
        [a(1, 2, 1), a(1, 2, 2), a(1, 2, 3)],
    ]
