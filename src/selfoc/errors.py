"""Exception types shared across the package."""

from __future__ import annotations


class CapExceededError(ValueError):
    """A mode index (or index bound) is above the hard cap."""


class NumericOverflowError(FloatingPointError):
    """A non-finite value appeared while filling a table; names the index."""

    def __init__(self, message: str, index=None):
        super().__init__(message)
        self.index = index


class NotPositiveDefiniteError(ValueError):
    """A 2D refractive profile's quadratic form is not positive definite."""


class ConvergenceError(RuntimeError):
    """Newton polishing of a quadrature node failed; names the node."""

    def __init__(self, message: str, node_index=None):
        super().__init__(message)
        self.node_index = node_index


class PartialResultError(RuntimeError):
    """A spectrum or tensor hit the index cap before reaching the target
    mass; ``result`` is the partial ``Spectrum`` or ``CouplingTensor``, so
    callers can still inspect or emit it."""

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result
