"""Exception types shared across the package."""

from __future__ import annotations


class NonlocalAuditError(Exception):
    """Base class for all errors raised by this package."""


class NotSquareError(NonlocalAuditError):
    """Matrix operation requires a square matrix."""


class NotHermitianError(NonlocalAuditError):
    """Matrix fails the Hermitian tolerance check."""


class DimensionMismatchError(NonlocalAuditError):
    """Operands have incompatible dimensions."""


class UsageError(NonlocalAuditError):
    """Base class of the refusals of bad input: the command line exits 2."""


class UnknownGameError(UsageError):
    """Requested id is not in the built-in catalog."""


class ParseError(UsageError):
    """Game file is not readable or not valid JSON."""


class ValidationError(UsageError):
    """Game data violates a structural invariant.

    ``violations`` lists one human-readable message per offending field.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class TooLargeError(UsageError):
    """The classical computation would exceed ``ENUMERATION_GUARD``.

    The guard bounds the best-response score table of the enumerated side
    (its response functions times the other side's inputs and outputs) and
    the candidate strategy pairs that are rescored, and so the time spent
    rescoring them.
    """


class NotPlanarApplicableError(UsageError):
    """Planar-qubit optimization only covers 2-input/2-output games."""


class AmbiguousDegenerateError(NonlocalAuditError):
    """A steered state is orthogonal to the degenerate certain space it should pick from."""
