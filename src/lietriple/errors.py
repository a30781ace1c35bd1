"""Exception types shared across the package."""


class LietripleError(Exception):
    pass


class InputError(LietripleError):
    """The input is malformed: the command line exits 2 on these kinds, and 1 on the rest."""


class PoleAtZero(LietripleError):
    """The reduced denominator vanishes at t = 0."""


class PoleAtPoint(LietripleError):
    """The reduced denominator vanishes at the evaluation point."""


class ParseError(InputError, ValueError):
    pass


class DimensionMismatch(InputError, ValueError):
    pass


class SingularMatrix(LietripleError, ValueError):
    pass


class InconsistentTable(LietripleError, ValueError):
    """Table completion forced two different values for the same product."""


def axiom_failure_text(identity, indices, residual):
    """``A2 fails at (1, 2, 3): residual (0, 0, 0, 1)``, scalars in their text form."""
    return f"{identity} fails at {indices}: residual ({', '.join(map(str, residual))})"


class AxiomViolation(LietripleError, ValueError):
    """A completed tensor fails one of the defining identities."""

    def __init__(self, identity, indices, residual):
        self.identity = identity
        self.indices = indices
        self.residual = residual
        super().__init__(axiom_failure_text(identity, indices, residual))


class NotALieAlgebra(LietripleError, ValueError):
    pass


class NotClosed(LietripleError, ValueError):
    """A cochain fails one of the cocycle conditions."""


class NotAnAutomorphism(LietripleError, ValueError):
    pass


class NotAbelianDim3(LietripleError, ValueError):
    pass


class RelationViolated(LietripleError, ValueError):
    pass


class ZeroVector(LietripleError, ValueError):
    pass


class UnknownName(InputError, KeyError):
    pass


class MissingParameter(InputError, ValueError):
    pass


class SingularParameter(InputError, ValueError):
    pass


class NotNilpotent(LietripleError, ValueError):
    pass


class DimensionUnsupported(InputError, ValueError):
    pass


class NoMatch(LietripleError, ValueError):
    """No catalog entry matches; indicates a bug or an unclassified input."""


class PreconditionViolated(LietripleError, ValueError):
    pass


class SingularBasis(LietripleError, ValueError):
    pass


class InconsistentGraph(LietripleError, ValueError):
    """A verified degeneration contradicts a necessary condition."""


class MalformedInput(InputError, ValueError):
    """A JSON document does not match the expected schema."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
