"""Exception hierarchy shared across the package: one class per error exit code.

The CLI maps ``ParameterError`` to exit 2 (``configuration error:``) and
``EvaluationError`` to exit 3 (``numerical error:``).  No package error exits
1; that code is left to a failed validation.
"""


class RmsPhaseError(Exception):
    """Base class for all package errors; raised only through a subclass."""


class ParameterError(RmsPhaseError):
    """Bad input: a value outside a function's domain, an invalid construction
    parameter or run setting, or a state that vanishes identically.  Exit 2."""


class EvaluationError(RmsPhaseError):
    """A numerical step failed: a non-finite integrand at a quadrature node, a
    non-positive norm or a loop too coarse for its radius.  Exit 3."""

    def __init__(self, message: str, node_index: int | None = None,
                 node_value: float | None = None):
        super().__init__(message)
        self.node_index = node_index
        self.node_value = node_value
