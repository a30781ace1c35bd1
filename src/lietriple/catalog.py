"""The classification catalog for nilpotent systems of dimension <= 4.

Entries carry generating products only; instantiation closes the table and
axiom-checks it.  The one-parameter family "T4,6" is classified up to the
six-element parameter orbit by the invariant

    xi(lam) = (lam^2 + lam + 1)^3 / (lam^2 (lam + 1)^2),

and explicit basis-change witnesses (the maps sigma_1..sigma_6, one table that
gives both the witnesses and the orbit) realize every orbit identification
exactly.  A family-shaped input is read as the extension of T3,1 by a cocycle
theta; its 3x3 matrix is a_theta, whose characteristic polynomial gives xi.
The orbit is recovered from xi = -p^3/q^2, where x^3 + p x + q is that
characteristic polynomial, as the exact Gaussian-rational root set of the
xi-equation (``family_lambda_candidates``).  The same equation gives the orbit
of 1 at xi = 27/4 and the singular pair {0, -1} at the projective point
xi = 1/0 (q = 0), so every family-shaped input takes one path; T4,5 shares
xi = 27/4 with the orbit of 1, but its a_theta is not diagonalizable.  Off
that shape, the annihilator, [T,T,T], the nilpotency index and the flattening
ranks name the entry.  An uncertified
answer prints the orbit member (a + b i)/d of least height, ordered by
(max(|a|, |b|, d), |a|, |b|, d, a < 0, b < 0).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .errors import (
    DimensionUnsupported,
    MalformedInput,
    MissingParameter,
    NoMatch,
    NotNilpotent,
    SingularParameter,
    UnknownName,
)
from .cohomology import Cocycle, a_theta, delta_indices
from .core import Lts, _memo, complete_table, lts_from_dict
from .linalg import Subspace
from .scalars import (GaussianRational, Polynomial, QI_ZERO, coerce, field_of, gaussian_integers,
                      gaussian_roots, scalar_str)

__all__ = [
    "CatalogEntry",
    "ENTRIES",
    "FAMILY_NAME",
    "instantiate",
    "xi",
    "lambda_orbit",
    "family_isomorphism",
    "classify",
    "ClassifyResult",
    "table1_report",
    "FAMILY_SPECIAL_LAMBDAS",
]

FAMILY_NAME = "T4,6"


def _unit(dim, p, coeff=1):
    vec = [QI_ZERO] * dim
    vec[p - 1] = coerce(coeff)
    return vec


def _family_generators(lam):
    """Generating products of the family member; works over any scalar field."""
    dim = 4
    return {
        (1, 2, 3): _unit(dim, 4, -(lam + 1)),
        (2, 3, 1): _unit(dim, 4, lam),
        (3, 1, 2): _unit(dim, 4, field_of(lam).one),
    }


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    dim: int
    family: bool = False
    table1_der: Optional[int] = None  # published value; family handled separately
    figure_stratum: Optional[int] = None

    def generators(self, lam=None):
        if self.family:
            if lam is None:
                raise MissingParameter(f"{self.name} needs a family parameter")
            return _family_generators(lam)
        return dict(_FIXED_GENERATORS[self.name])


_FIXED_GENERATORS = {
    "T1,1": {},
    "T2,1": {},
    "T3,1": {},
    "T3,2": {(1, 2, 1): _unit(3, 3)},
    "T4,1": {},
    "T4,2": {(1, 2, 1): _unit(4, 3)},
    "T4,3": {(1, 2, 1): _unit(4, 3), (1, 2, 2): _unit(4, 4)},
    "T4,4": {(2, 3, 2): _unit(4, 4), (3, 1, 3): _unit(4, 4)},
    "T4,5": {(2, 3, 1): _unit(4, 4), (3, 1, 2): _unit(4, 4),
             (2, 1, 3): _unit(4, 4, 2), (2, 3, 2): _unit(4, 4)},
    "T4,7": {(1, 2, 1): _unit(4, 3), (1, 2, 3): _unit(4, 4), (1, 3, 2): _unit(4, 4)},
    "T4,8": {(1, 2, 1): _unit(4, 3), (1, 3, 1): _unit(4, 4), (1, 2, 2): _unit(4, 4)},
    "T4,9": {(1, 2, 1): _unit(4, 3), (1, 3, 1): _unit(4, 4)},
}

ENTRIES = {
    "T1,1": CatalogEntry("T1,1", 1),
    "T2,1": CatalogEntry("T2,1", 2),
    "T3,1": CatalogEntry("T3,1", 3, figure_stratum=0),
    "T3,2": CatalogEntry("T3,2", 3, figure_stratum=4),
    "T4,1": CatalogEntry("T4,1", 4, table1_der=16, figure_stratum=0),
    "T4,2": CatalogEntry("T4,2", 4, table1_der=9, figure_stratum=5),
    "T4,3": CatalogEntry("T4,3", 4, table1_der=8, figure_stratum=8),
    "T4,4": CatalogEntry("T4,4", 4, table1_der=7, figure_stratum=9),
    "T4,5": CatalogEntry("T4,5", 4, table1_der=6, figure_stratum=10),
    "T4,6": CatalogEntry("T4,6", 4, family=True, figure_stratum=10),
    "T4,7": CatalogEntry("T4,7", 4, table1_der=5, figure_stratum=11),
    "T4,8": CatalogEntry("T4,8", 4, table1_der=6, figure_stratum=10),
    "T4,9": CatalogEntry("T4,9", 4, table1_der=7, figure_stratum=9),
}

_instances: dict = {}
_MAX_INSTANCES = 128  # every distinct family parameter would otherwise stay cached


def family_table1_der(lam) -> int:
    lam = coerce(lam)
    return 8 if lam in FAMILY_SPECIAL_LAMBDAS else 6


def instantiate(name: str, lam=None) -> Lts:
    """Completed, axiom-checked catalog tensor; instances are cached."""
    if name not in ENTRIES:
        raise UnknownName(name)
    entry = ENTRIES[name]
    if lam is not None:
        if not entry.family:
            raise MissingParameter(f"{name} takes no family parameter")
        lam = coerce(lam)
    key = (name, field_of(lam), lam)  # a constant of Q(i)(t) equals its Q(i) value
    if key not in _instances:
        if len(_instances) >= _MAX_INSTANCES:  # the oldest family member; named systems stay
            del _instances[next(k for k in _instances if k[2] is not None)]
        _instances[key] = complete_table(entry.dim, entry.generators(lam))
    return _instances[key]


def _system(reference, field):
    """A system reference in a document: a fixed catalog name or a system document."""
    if isinstance(reference, dict):
        return lts_from_dict(reference)
    if not isinstance(reference, str):
        raise MalformedInput(field, "expected a system document or a catalog name")
    if reference not in ENTRIES:
        raise MalformedInput(field, f"unknown system {reference!r}")
    if ENTRIES[reference].family:
        raise MalformedInput(field, f"{reference} is a family, not a fixed system")
    return instantiate(reference)


def xi(lam):
    """The family invariant in lam's own field; defined away from lam^2 + lam = 0."""
    lam = coerce(lam)
    den = lam * lam * (lam + 1) * (lam + 1)
    if not den:
        raise SingularParameter(f"xi undefined at lambda = {lam}")
    num = lam * lam + lam + 1
    return num * num * num / den


# sigma_k: (images of e1, e2, e3 as basis indices, target lambda, scale of e4)
_SIGMAS = {
    1: ((1, 2, 3), lambda lam: lam, lambda lam: 1),
    2: ((3, 2, 1), lambda lam: -(lam + 1), lambda lam: -1),
    3: ((2, 1, 3), lambda lam: 1 / lam, lambda lam: -1 / lam),
    4: ((2, 3, 1), lambda lam: -(lam + 1) / lam, lambda lam: 1 / lam),
    5: ((3, 1, 2), lambda lam: -1 / (lam + 1), lambda lam: -1 / (lam + 1)),
    6: ((1, 3, 2), lambda lam: -lam / (lam + 1), lambda lam: 1 / (lam + 1)),
}


def family_isomorphism(k: int, lam):
    """(target lambda, basis-change matrix) for the k-th family isomorphism.

    The matrix g has the images of the basis vectors as columns, and
    change_basis(instantiate("T4,6", lam), g) equals the target member exactly.
    """
    lam = coerce(lam)
    if k not in _SIGMAS:
        raise UnknownName(f"sigma index {k} (expected 1..6)")
    images, target_of, scale_of = _SIGMAS[k]
    field = field_of(lam)
    try:
        target, scale = target_of(lam), field.of(scale_of(lam))
    except ZeroDivisionError:
        pair = "sigma_3 / sigma_4" if lam == 0 else "sigma_5 / sigma_6"
        raise SingularParameter(f"{pair} need lambda != {lam}") from None
    matrix = [[field.zero] * 4 for _ in range(4)]
    for col, image in enumerate(images):
        matrix[image - 1][col] = field.one
    matrix[3][3] = scale
    return target, matrix


def lambda_orbit(lam):
    """The (up to) six parameter values giving pairwise isomorphic members,
    in the order of the sigma maps defined at lam."""
    lam = coerce(lam)
    out = []
    for _, target_of, _ in _SIGMAS.values():
        try:
            value = target_of(lam)
        except ZeroDivisionError:
            continue
        if value not in out:
            out.append(value)
    return out


FAMILY_SPECIAL_LAMBDAS = tuple(lambda_orbit(1))


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ClassifyResult:
    name: str
    lam: Optional[GaussianRational]
    confidence: str  # "certified" | "fingerprint-only"
    xi: Optional[GaussianRational] = None
    note: str = ""


def _invariant_key(system: Lts):
    return (system.dim, system.annihilator().dim, system.derived().dim,
            system.nilpotency().index, system.flattening_ranks())


@functools.cache
def _key_names():
    """Invariant key -> name, one distinct key for each entry outside the family."""
    return {_invariant_key(instantiate(name)): name
            for name, entry in ENTRIES.items() if not entry.family}


@_memo
def family_cocycle_matrix(system: Lts):
    """a_theta of the cocycle theta that presents ``system`` as an extension of T3,1.

    Precondition: ``system`` has the T3,1-extension shape of ``_t31_pq``.
    Nilpotency index 2 puts [T,T,T] inside Ann, and both are one-dimensional,
    so both are the line of Ann's reduced basis vector w, and every product
    is a multiple of w.  On the basis vectors off w's pivot coordinate, where
    w has entry 1, theta is therefore the pivot coordinate of each product.
    """
    w = system.annihilator().basis[0]
    pivot = next(p for p, x in enumerate(w, start=1) if x)
    e = [p for p in range(1, 5) if p != pivot]
    theta = {(i, j, k): system.constant(e[i - 1], e[j - 1], e[k - 1], pivot)
             for i, j, k in delta_indices(3)}
    return a_theta(Cocycle(instantiate("T3,1"), theta))


@_memo
def _t31_pq(system: Lts):
    """(p, q) with char(a_theta) = x^3 + p x + q, or None off the T3,1-extension shape.

    The shape is dim 4, dim Ann = dim [T,T,T] = 1 and nilpotency index 2:
    T4,4, T4,5 and the family, the extensions of T3,1 by the line Ann.
    """
    if (system.dim, system.annihilator().dim, system.derived().dim) != (4, 1, 1) \
            or system.nilpotency().index != 2:
        return None
    m = family_cocycle_matrix(system)
    (a, b, c), (d, e, f), (g, h, k) = m
    p = a * e - b * d + a * k - c * g + e * k - f * h  # the principal 2x2 minors
    return p, a * (f * h - e * k) + b * (d * k - f * g) + c * (e * g - d * h)  # q = -det m


@_memo
def _name_and_xi(system: Lts):
    """(catalog name, xi) of a nilpotent system of dimension <= 4; no root finding.

    Off the T3,1-extension shape the invariant key names the entry, or None.
    On it a_theta decides up to similarity and scalar: nilpotent gives T4,4;
    a repeated eigenvalue c = -3q/(2p) with rank(a_theta - c) = 2, that is
    J_2(c) + (-2c), gives T4,5; every other class is the family member with
    xi = -p^3/q^2, None at q = 0.
    """
    pq = _t31_pq(system)
    if pq is None:
        return _key_names().get(_invariant_key(system)), None
    p, q = pq
    if not p and not q:
        return "T4,4", None
    if q and 4 * p * p * p == -27 * q * q:
        c = -3 * q / (2 * p)
        m = family_cocycle_matrix(system)
        if Subspace(len(m), [[x - c if a == b else x for b, x in enumerate(row)]
                             for a, row in enumerate(m)]).dim == 2:
            return "T4,5", None
    return FAMILY_NAME, -(p * p * p) / (q * q) if q else None


def family_lambda_candidates(xi_value):
    """Every parameter lambda with xi(lambda) equal to the given value, or [].

    The palindromic equation N (x^2+x+1)^3 - S x^2 (x+1)^2 = 0, with
    xi = S/N and N a nonnegative integer, has the whole parameter orbit as its
    root set: at xi = 27/4 the orbit of 1, and at the projective point
    xi = 1/0, given as None, the singular pair {0, -1}.  Its roots in Q(i)
    are found exactly, so an empty result proves that no Gaussian-rational
    parameter has this invariant.
    """
    if xi_value is None:
        n, s = 0, 1
    else:
        n, ((a, b),) = gaussian_integers([GaussianRational.of(xi_value)])
        s = GaussianRational(a, b)
    return gaussian_roots(Polynomial([n, 3 * n, 6 * n - s, 7 * n - 2 * s, 6 * n - s,
                                      3 * n, n]))


def _height(z: GaussianRational):
    """Sort key of (a + b i)/d that puts the member of least height first."""
    d, ((a, b),) = gaussian_integers([z])
    return (max(abs(a), abs(b), d), abs(a), abs(b), d, a < 0, b < 0)


def classify(system: Lts) -> ClassifyResult:
    """Match a nilpotent system over Q(i) of dimension <= 4 against the catalog.

    The family parameter is recovered up to its six-element orbit; the result
    is "certified" only when an explicit witness (the identity, here: exact
    tensor equality with a catalog representative) is at hand, otherwise
    "fingerprint-only", with the orbit member of least height.
    """
    if system.dim < 1 or system.dim > 4:
        raise DimensionUnsupported(f"classification covers dimensions 1..4, got {system.dim}")
    if any(type(x) is not GaussianRational
           for row in system.rows().values() for x in row.values()):
        raise MalformedInput("field", "classification is over Q(i), not Q(i)(t)")
    if not system.nilpotency().is_nilpotent:
        raise NotNilpotent("input is not nilpotent")
    name, xi_value = _name_and_xi(system)
    if name is None:
        raise NoMatch(f"no catalog entry with invariants {_invariant_key(system)}")
    if name != FAMILY_NAME:
        confidence = "certified" if system == instantiate(name) else "fingerprint-only"
        return ClassifyResult(name, None, confidence)
    candidates = family_lambda_candidates(xi_value)
    if not candidates:
        return ClassifyResult(FAMILY_NAME, None, "fingerprint-only", xi=xi_value,
                              note="parameter not recovered over Q(i)")
    # a literal member carries its parameter as c_{2,3,1}^4; a conjugate does not
    lam = system.constant(2, 3, 1, 4)
    if lam in candidates and system == instantiate(FAMILY_NAME, lam):
        confidence = "certified"
    else:
        lam, confidence = min(candidates, key=_height), "fingerprint-only"
    note = "" if xi_value is not None else "xi singular at this parameter"
    return ClassifyResult(FAMILY_NAME, lam, confidence, xi=xi_value, note=note)


def multiplication_table_text(name, lam=None):
    """Generating products of a catalog entry in compact text."""
    entry = ENTRIES[name]
    parts = []
    for (i, j, k), vec in sorted(entry.generators(lam).items()):
        terms = []
        for p, coeff in enumerate(vec, start=1):
            if coeff == 0:
                continue
            if coeff == 1:
                terms.append(f"e{p}")
            else:
                terms.append(f"({scalar_str(coeff)})e{p}")
        parts.append(f"[e{i},e{j},e{k}]={'+'.join(terms)}")
    return "  ".join(parts) if parts else "(abelian)"


def table1_report():
    """Computed versus published derivation dimensions, family branches sampled."""
    rows = []

    def add(name, lam):
        computed = instantiate(name, lam).derivations()[0]
        published = family_table1_der(lam) if lam is not None else ENTRIES[name].table1_der
        rows.append({
            "system": name,
            "lambda": None if lam is None else scalar_str(lam),
            "table": multiplication_table_text(name, lam),
            "computed": computed,
            "published": published,
            "match": computed == published,
        })

    for name in ("T4,1", "T4,2", "T4,3", "T4,4", "T4,5"):
        add(name, None)
    for lam in FAMILY_SPECIAL_LAMBDAS + (GaussianRational(2), GaussianRational(3)):
        add(FAMILY_NAME, lam)
    for name in ("T4,7", "T4,8", "T4,9"):
        add(name, None)
    return rows
