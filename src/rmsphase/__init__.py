"""Loop phases of a perturbed four-dimensional oscillator on the
spacelike coordinate patch of relative Minkowski space."""

from .berry import (
    LoopParams,
    PhaseResult,
    berry_phase_closed,
    berry_phase_loop_connection,
    berry_phase_loop_overlap,
    oracle_comparison,
)
from .oscillator import (
    NodeCounts,
    PhysicalConstants,
    QuantumNumbers,
    embed,
    gram_matrix,
    live_indices,
    state_table,
)
from .perturbation import (
    Channel,
    CorrectionCoefficients,
    correction_coefficients,
    matrix_element,
    phi_integral,
)

__version__ = "0.1.0"

__all__ = [
    "LoopParams", "PhaseResult", "berry_phase_closed", "berry_phase_loop_connection",
    "berry_phase_loop_overlap", "oracle_comparison",
    "NodeCounts", "PhysicalConstants", "QuantumNumbers",
    "embed", "gram_matrix", "live_indices", "state_table",
    "Channel", "CorrectionCoefficients",
    "correction_coefficients", "matrix_element", "phi_integral",
]
