"""Exact-arithmetic toolkit for nilpotent Lie triple systems.

Subpackages cover the scalar tower (Q, Q(i), Q(i)(t)), structure-constant
tensors and their invariants, cocycle cohomology, annihilator extensions, the
dimension <= 4 classification catalog, and orbit-degeneration verification.
"""

from .scalars import (
    GaussianRational,
    Polynomial,
    RationalFunction,
    QI_I,
    QI_ONE,
    QI_ZERO,
    parse_rational_function,
    parse_scalar,
    rational_function_str,
    scalar_str,
)
from .core import (
    AxiomReport,
    Fingerprint,
    Lts,
    NilpotencyReport,
    complete_table,
    direct_sum,
    lts_from_dict,
    lts_from_lie,
    lts_to_dict,
)
from .cohomology import (
    Cocycle,
    CochainSpace,
    a_theta,
    aut_action,
    coboundary_of,
    coboundary_space,
    cocycle_space,
    cohomology,
    matrix_form,
)
from .extension import (
    ExtensionSpec,
    extend,
    extension_annihilator,
    has_annihilator_component,
    in_ts,
    normalize_line_2dim,
)
from . import catalog, degeneration

__version__ = "0.1.0"
