"""Exception types shared across the package.

The CLI maps these onto its stable exit codes: enumeration budget
exhaustion is exit 3, infeasible inputs are exit 4, and any other domain
error is exit 1. Invariant violations are results rather than exceptions
and are reported with exit 2.
"""


class RipcertError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(RipcertError, ValueError):
    """A scalar argument is outside the operation's domain."""


class CongruenceError(InvalidParameterError):
    """An integer argument fails a required congruence condition."""


class InvalidSelectionError(InvalidParameterError):
    """A column or vertex selection is out of range or contains duplicates."""


class UnsupportedExponentError(InvalidParameterError):
    """Only even positive matrix powers are supported."""


class ChainError(InvalidParameterError):
    """A halving chain of restricted-orthogonality constants is malformed."""


class MatrixShapeError(RipcertError, ValueError):
    """Operands have incompatible or unexpected dimensions."""


class NotHermitianError(RipcertError, ValueError):
    """A matrix required to be Hermitian is not, within tolerance."""


class PreconditionError(RipcertError, ValueError):
    """A documented operation precondition does not hold for the input."""


class NotEtfError(PreconditionError):
    """The frame does not satisfy the equiangular tight frame axioms."""


class AmbiguousSignError(PreconditionError):
    """A Gram entry is too close to zero for its sign to be meaningful."""


class NotRegularError(PreconditionError):
    """The graph is not regular."""


class NotJoinError(PreconditionError):
    """The vertex is not adjacent to every other vertex."""


class InfeasibleInputError(RipcertError):
    """The input cannot be processed in the requested way (CLI exit 4)."""


class NotRealError(InfeasibleInputError):
    """A matrix required to be real, up to tolerance, has complex entries."""


class InfeasibleSizeError(InfeasibleInputError):
    """Frame dimensions admit no graph correspondence with integer parameters."""


class EnumerationBudgetError(RipcertError):
    """A subset enumeration would exceed the configured budget (CLI exit 3)."""

    def __init__(self, needed: int, budget: int, what: str, unit: str = "subset evaluations"):
        super().__init__(f"{what} requires {needed} {unit}, exceeding the budget of {budget}")
        self.needed = needed
        self.budget = budget
        self.what = what
