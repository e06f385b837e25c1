"""Exception types shared across the package.

Exit-code mapping used by the CLI:
  2 -> InputInvalid / schema problems
  3 -> internal invariant violations (and, in the CLI, any unexpected exception)
  4 -> cap exceeded (SearchTooLarge, DimCapExceeded)
"""


class GhcError(Exception):
    """Base class for all errors raised by this package."""


class InvalidCartanType(GhcError):
    pass


class DimensionMismatch(GhcError):
    pass


class LengthOutOfRange(GhcError):
    pass


class SearchTooLarge(GhcError):
    pass


class NonDominant(GhcError):
    pass


class ReducedToZero(GhcError):
    pass


class DegenerateRestriction(GhcError):
    pass


class NoRegularFound(GhcError):
    pass


class NotTInvariant(GhcError):
    pass


class InvariantViolation(GhcError):
    pass


class ContextMismatch(GhcError):
    pass


class DegenerateOnT(GhcError):
    pass


class DimCapExceeded(GhcError):
    pass


class NotAnMCharacter(GhcError):
    pass


class ComplexInconsistent(GhcError):
    pass


class GenericNuNotFound(GhcError):
    """Search bounds exhausted; raise the bounds, this is not a negative claim."""


class InputInvalid(GhcError):
    pass


class TNotInK(InputInvalid):
    """t is not inside k: an input fault."""


class PipelineError(GhcError):
    """Wraps a module error with the pipeline stage where it occurred."""

    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r}: {cause}")
        self.stage = stage
        self.cause = cause
