"""Exception types shared across the package.

Plain ValueError and its subclass UnreachableTargetError cover domain errors;
the other two mark conditions the CLI maps to dedicated exit codes.
"""


class CapacityError(Exception):
    """A request exceeds a hard size cap (dense n! work, eigendecomposition)."""


class NumericError(Exception):
    """A numeric procedure failed to converge or hit a singular regime."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class UnreachableTargetError(ValueError):
    """A generator set does not reach part of a target measure's support."""
