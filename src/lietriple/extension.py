"""Annihilator extensions T_theta and the predicates that drive classification.

Given a base system T of dimension n and closed cocycles theta_1..theta_s, the
extension lives on T + V with dim V = s and product

    [x + u, y + v, z + w] = [x, y, z]_T + sum_i theta_i(x, y, z) e_{n+i};

the new coordinates annihilate everything.  The useful predicates: the
annihilator of the extension is (intersection of radicals ∩ Ann T) + V; the
extension has an annihilator component iff the classes [theta_i] are linearly
dependent in H^3; membership in the good Grassmannian stratum needs the
radical condition plus independent classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedInput, NotClosed, PreconditionViolated, ZeroVector
from .core import Lts, _first_slot_kernel
from .cohomology import coboundary_space, extension_rows
from .linalg import Subspace
from .scalars import QI_ONE, QI_ZERO, coerce, field_of

__all__ = [
    "ExtensionSpec",
    "extend",
    "extension_annihilator",
    "in_ts",
    "has_annihilator_component",
    "normalize_line_2dim",
]


@dataclass(frozen=True)
class ExtensionSpec:
    """A base system and closed cocycles on it, checked once when the spec is made.

    Frozen, so a spec that passed its check cannot change afterwards.
    """
    base: Lts
    thetas: tuple

    def __post_init__(self):
        object.__setattr__(self, "thetas", tuple(self.thetas))
        if not self.thetas:
            raise MalformedInput("thetas", "extension needs at least one cocycle component")
        for theta in self.thetas:
            if theta.ambient != self.base:
                raise MalformedInput("thetas", "cocycle ambient differs from the extension base")
        self.base.require_axioms()
        for pos, theta in enumerate(self.thetas, start=1):
            ok, witness = theta.check_closed()
            if not ok:
                raise NotClosed(f"component {pos} fails {witness[0]} at {witness[1]}")

    @property
    def s(self):
        return len(self.thetas)


def _radical_meet(spec: ExtensionSpec) -> Subspace:
    """∩ Rad(theta_i) ∩ Ann(base): the base vectors x with [x, T, T] = 0 and
    every theta_i(x, T, T) = 0, the first-slot kernel of T_theta's rows."""
    return _first_slot_kernel(spec.base.dim, extension_rows(spec.base, spec.thetas))


def extend(spec: ExtensionSpec) -> Lts:
    """The extended system on dim(base) + s coordinates.

    Closed cocycles on a Lie triple system give a Lie triple system; the
    result is axiom-checked only if a caller requires it.
    """
    return Lts.from_rows(spec.base.dim + spec.s, extension_rows(spec.base, spec.thetas))


def extension_annihilator(spec: ExtensionSpec) -> Subspace:
    """(∩ Rad(theta_i) ∩ Ann(base)) + V inside the extended space.

    The formula holds for closed cocycles; the tests cross-check it against the
    directly computed annihilator of the extension.
    """
    n, s = spec.base.dim, spec.s
    vectors = [list(row) + [QI_ZERO] * s for row in _radical_meet(spec).basis]
    vectors += [[QI_ZERO] * (n + r) + [QI_ONE] + [QI_ZERO] * (s - r - 1) for r in range(s)]
    return Subspace(n + s, vectors)


def _class_rank(spec: ExtensionSpec):
    """Rank of the classes [theta_1..theta_s] in H^3(base, F)."""
    b3 = coboundary_space(spec.base)
    thetas = [theta.coordinates() for theta in spec.thetas]
    return Subspace(len(thetas[0]), b3.coordinates + thetas).dim - b3.dim


def in_ts(spec: ExtensionSpec) -> bool:
    """Membership in the stratum: zero radical meet and independent classes."""
    if _radical_meet(spec).dim != 0:
        return False
    return _class_rank(spec) == spec.s


def has_annihilator_component(spec: ExtensionSpec) -> bool:
    """Linear dependence of the classes, under the zero-radical-meet precondition."""
    if _radical_meet(spec).dim != 0:
        raise PreconditionViolated("Rad(theta) ∩ Ann(base) must vanish")
    return _class_rank(spec) < spec.s


def normalize_line_2dim(alpha, beta):
    """Invertible A with (alpha beta) A = (1 0) over the field; floats are refused."""
    alpha, beta = coerce(alpha), coerce(beta)
    if alpha == 0 and beta == 0:
        raise ZeroVector("(0, 0) spans no line")
    if alpha != 0:
        return [[1 / alpha, -beta], [field_of(alpha).zero, alpha]]
    field = field_of(beta)
    return [[field.zero, field.one], [1 / beta, field.zero]]
