"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the library's own elimination code: rank is
computed by fraction-free cross-multiplication with a different pivoting
strategy, so dimension claims are checked through two unrelated routes.
"""

from __future__ import annotations

import pytest

from lietriple import catalog
from lietriple.cohomology import Cocycle, _theta_rows, cocycle_space
from lietriple.core import _first_slot_kernel
from lietriple.extension import ExtensionSpec
from lietriple.linalg import Subspace, nullspace
from lietriple.sampling import ExactRandom
from lietriple.scalars import GaussianRational

# The published cocycles on T3,2 whose extensions are T4,7, T4,8 and T4,9.  For
# T4,9, Rad D[1,3,1] = <e2> is not inside Ann(T3,2) = <e3>: only the Ann(T) half
# of the radical meet makes the meet zero.
T32_EXTENSIONS = {
    "T4,7": {(1, 2, 3): 1, (1, 3, 2): 1},
    "T4,8": {(1, 3, 1): 1, (1, 2, 2): 1},
    "T4,9": {(1, 3, 1): 1},
}


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
    return Subspace(n, nullspace(rows, n))


def kernel_radical(theta):
    """Rad(theta) as ``extension._radical_meet`` reads it: the first-slot kernel of theta's rows."""
    return _first_slot_kernel(theta.ambient.dim, _theta_rows(theta))


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
    bases += [(f"T4,6^{lam}", catalog.instantiate("T4,6", lam)) for lam in ("1", "2")]
    rng = ExactRandom(67)
    specs = []
    for label, base in bases:
        space = cocycle_space(base)
        for s in (1, 2):
            for _ in range(3):
                specs.append((f"{label} s={s}",
                              ExtensionSpec(base, [rng.cocycle(space) for _ in range(s)])))
    return specs
