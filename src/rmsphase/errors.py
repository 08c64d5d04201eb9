"""Exception hierarchy shared across the package."""


class RmsPhaseError(Exception):
    """Base class for all package errors."""


class DomainError(RmsPhaseError):
    """Argument outside the mathematical domain of a function."""


class ParameterError(RmsPhaseError):
    """Invalid construction parameter (node counts, scales, loop settings)."""


class EvaluationError(RmsPhaseError):
    """An integrand evaluated to a non-finite value at a quadrature node."""

    def __init__(self, message: str, node_index: int | None = None,
                 node_value: float | None = None):
        super().__init__(message)
        self.node_index = node_index
        self.node_value = node_value


class NormalizationError(RmsPhaseError):
    """Normalization requested for a state that vanishes identically."""


class CorrectionError(RmsPhaseError):
    """Correction coefficients requested for a state that vanishes identically."""


class StepResolutionError(RmsPhaseError):
    """Adjacent loop samples overlap too weakly; increase the step count."""


class ConfigError(RmsPhaseError):
    """Invalid run configuration."""
