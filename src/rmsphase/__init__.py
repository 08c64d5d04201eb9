"""Loop phases of a perturbed four-dimensional oscillator on the
spacelike coordinate patch of relative Minkowski space."""

from .berry import (
    LoopParams,
    PhaseResult,
    berry_connection,
    berry_phase_closed,
    berry_phase_loop_connection,
    berry_phase_loop_overlap,
    oracle_comparison,
)
from .oscillator import (
    NodeCounts,
    PhysicalConstants,
    QuantumNumbers,
    RmsPoint,
    StateRecord,
    eigenvalue,
    embed,
    eval_state,
    eval_unnormalized,
    gram_matrix,
    live_indices,
    measure_weight,
    normalization_constant,
    state_table,
)
from .perturbation import (
    Channel,
    CorrectionCoefficients,
    correction_coefficients,
    matrix_element,
    phi_integral,
)
from .quadrature import (
    QuadratureRule,
    gauss_legendre,
    integrate,
    polar_rule,
    radial_rule,
    rapidity_rule,
)
from .specfun import assoc_legendre, gen_laguerre

__version__ = "0.1.0"

__all__ = [
    "LoopParams", "PhaseResult", "berry_connection", "berry_phase_closed",
    "berry_phase_loop_connection", "berry_phase_loop_overlap", "oracle_comparison",
    "NodeCounts", "PhysicalConstants", "QuantumNumbers", "RmsPoint", "StateRecord",
    "eigenvalue", "embed", "eval_state", "eval_unnormalized", "gram_matrix",
    "live_indices", "measure_weight", "normalization_constant", "state_table",
    "Channel", "CorrectionCoefficients",
    "correction_coefficients", "matrix_element", "phi_integral",
    "QuadratureRule", "gauss_legendre", "integrate", "polar_rule",
    "radial_rule", "rapidity_rule",
    "assoc_legendre", "gen_laguerre",
]
