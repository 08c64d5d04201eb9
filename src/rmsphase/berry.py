"""Loop phases of the perturbed oscillator states.

Three routes to the same quantity:

* ``berry_phase_closed``          -- the coefficient formula
  gamma/r^2 = -2 pi Im sum_i conj(a_i) b_i;
* ``berry_phase_loop_connection`` -- trapezoidal loop integral of the
  connection <Psi | grad Psi> over the circle eps1 = r cos(alpha),
  eps2 = r sin(alpha);
* ``berry_phase_loop_overlap``    -- gauge-invariant product of successive
  normalized-state overlaps around the same circle, Richardson-extrapolated
  to small radius.

The loop computations always run on the dimensionless coefficient tables
(couplings in units of M omega^2), where every number is O(1); results are
converted through the symbolic 1/(M omega^2)^2 prefactor at the end.  For
this coupling pair the cross sums come out real, so all three routes
agree on zero phases; the machinery is exercised against synthetic
nonzero coefficient sets in the test suite.

What is constant around a loop is computed once, not once per step: the
connection reads the three coefficient sums that
``CorrectionCoefficients`` stores at construction, and the overlap chain
runs in the 3-dim span of e_j, a and b, on a metric reduced once per
coefficient set and shared by both Richardson radii.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import oscillator as osc
from . import perturbation as pert
from .errors import ParameterError, StepResolutionError

__all__ = [
    "LoopParams",
    "PhaseResult",
    "berry_connection",
    "berry_phase_closed",
    "berry_phase_loop_connection",
    "berry_phase_loop_overlap",
    "oracle_comparison",
]

# Sign of the closed-form phase; flipping it must be caught by the
# oracle-agreement validation (test hook).
_PHASE_ORIENTATION = -1.0

# r * max|coefficient| is kept at or below this in auto-radius mode so the
# loop stays in the perturbative regime.
_PERTURBATIVE_BUDGET = 1e-2

# Every loop route holds O(steps) samples in memory.
MAX_STEPS = 2 ** 20


@dataclass(frozen=True)
class LoopParams:
    """Circle in coupling space: radius and number of samples.

    ``radius`` is in the coupling units of the constants the loop runs
    with (the oracles run dimensionless, units of M omega^2); None picks
    r = 1e-2 / max|coefficient|.  ``reverse`` traverses the loop backwards.
    """

    radius: float | None = None
    steps: int = 720
    reverse: bool = False

    def __post_init__(self):
        if not 8 <= self.steps <= MAX_STEPS:
            raise ParameterError(
                f"loop steps must be in 8..{MAX_STEPS}, got {self.steps}")
        if self.radius is not None and not 0.0 < self.radius < math.inf:
            raise ParameterError(
                f"loop radius must be finite and positive, got {self.radius}")


@dataclass(frozen=True)
class PhaseResult:
    """A loop phase per squared radius, with its provenance.

    ``gamma_over_r2`` is in the units implied by ``constants``
    (1/(energy/length^2)^2 for SI constants, a pure number for
    dimensionless ones); ``dimensionless_value`` is always the pure
    number and ``si_prefactor`` the 1/(M omega^2)^2 conversion factor.
    """

    state_index: int
    gamma_over_r2: float
    dimensionless_value: float
    si_prefactor: float
    method: str
    constants: osc.PhysicalConstants
    metadata: dict = field(default_factory=dict, compare=False)


def berry_connection(coeffs: pert.CorrectionCoefficients,
                     eps1: float, eps2: float) -> tuple[complex, complex]:
    """Components of <Psi | grad_{(eps1, eps2)} Psi> for the first-order state.

    (eps1 sum|a|^2 + eps2 sum a b*,  eps1 sum a* b + eps2 sum|b|^2);
    both vanish at the origin because the corrections are orthogonal to
    the unperturbed state.  The sums are the ones ``coeffs`` stored at
    construction.
    """
    sum_aa, sum_bb, sum_ab, sum_ba = coeffs.connection_sums
    return (eps1 * sum_aa + eps2 * sum_ba, eps1 * sum_ab + eps2 * sum_bb)


def _result(j: int, gamma_tilde: float, method: str,
            constants: osc.PhysicalConstants, metadata: dict) -> PhaseResult:
    prefactor = 1.0 / constants.coupling_scale ** 2
    return PhaseResult(
        state_index=j,
        gamma_over_r2=gamma_tilde * prefactor,
        dimensionless_value=gamma_tilde,
        si_prefactor=prefactor,
        method=method,
        constants=constants,
        metadata=metadata,
    )


def _null_result(j: int, method: str, constants: osc.PhysicalConstants) -> PhaseResult:
    return _result(j, 0.0, method, constants,
                   {"note": "state vanishes identically; phase is zero by convention"})


def closed_form_phase(coeffs: pert.CorrectionCoefficients) -> float:
    """-2 pi Im sum conj(a_i) b_i in the coefficient units supplied."""
    return _PHASE_ORIENTATION * 2.0 * math.pi * coeffs.sum_conj_a_b().imag


def berry_phase_closed(j: int, constants: osc.PhysicalConstants,
                       nodes: osc.NodeCounts = osc.NodeCounts()) -> PhaseResult:
    """Closed-form phase per squared loop radius for state j."""
    if osc.get_state(j).is_null:
        return _null_result(j, "closed", constants)
    coeffs = pert.correction_coefficients(j, nodes=nodes)
    return _result(j, closed_form_phase(coeffs), "closed", constants,
                   {"nodes": nodes})


def _auto_radius(coeffs: pert.CorrectionCoefficients, loop: LoopParams) -> float:
    if loop.radius is not None:
        return loop.radius
    top = coeffs.max_magnitude()
    return _PERTURBATIVE_BUDGET / top if top > 0.0 else _PERTURBATIVE_BUDGET


def _check_radius(r: float) -> None:
    """Every route divides by r ** 2, which overflows for the auto radius
    once every coefficient is below ~1e-156."""
    if not r * r < math.inf:
        raise ParameterError(f"loop radius {r!r} has no finite square")


def _alphas(loop: LoopParams) -> np.ndarray:
    a = np.linspace(0.0, 2.0 * math.pi, loop.steps, endpoint=False)
    return a[::-1] if loop.reverse else a


def connection_loop_integral(coeffs: pert.CorrectionCoefficients,
                             loop: LoopParams) -> tuple[float, float, float]:
    """i * closed-loop integral of the connection, by periodic trapezoid.

    Returns (gamma_per_r2, imag_residual, radius).  The integrand is a
    degree-2 trigonometric polynomial in alpha, so the periodic trapezoid
    rule is exact once steps > 4; the imaginary residual of the complex
    result is a roundoff diagnostic.  The coefficient sums are the ones
    ``coeffs`` stored at construction, so each step does only the
    connection's scalar arithmetic, on Python floats.
    """
    r = _auto_radius(coeffs, loop)
    _check_radius(r)
    orientation = -1.0 if loop.reverse else 1.0
    total = 0.0 + 0.0j
    for alpha in _alphas(loop).tolist():
        c, s = math.cos(alpha), math.sin(alpha)
        a1, a2 = berry_connection(coeffs, r * c, r * s)
        # dR/d(alpha) on the circle, signed by traversal direction
        total += a1 * (-r * s * orientation) + a2 * (r * c * orientation)
    total *= 2.0 * math.pi / loop.steps
    value = 1j * total
    return value.real / r ** 2, abs(value.imag) / r ** 2, r


def berry_phase_loop_connection(j: int, constants: osc.PhysicalConstants,
                                loop: LoopParams = LoopParams(),
                                nodes: osc.NodeCounts = osc.NodeCounts()) -> PhaseResult:
    """Discretized connection-loop phase per squared radius for state j."""
    if osc.get_state(j).is_null:
        return _null_result(j, "loop-connection", constants)
    coeffs = pert.correction_coefficients(j, nodes=nodes)
    gamma, residual, r = connection_loop_integral(coeffs, loop)
    return _result(j, gamma, "loop-connection", constants,
                   {"steps": loop.steps, "radius": r,
                    "imag_residual": residual, "nodes": nodes})


def _loop_basis(coeffs: pert.CorrectionCoefficients,
                indices: tuple[int, ...]) -> np.ndarray:
    """Columns e_j, a, b in the normalizable-state basis.

    The sample at radius r and angle alpha is this basis applied to
    (1, r cos alpha, r sin alpha), so every loop lies in their span.
    """
    pos = {idx: k for k, idx in enumerate(indices)}
    basis = np.zeros((len(indices), 3), dtype=complex)
    basis[pos[coeffs.state_index], 0] = 1.0
    for i, ai in coeffs.a.items():
        basis[pos[i], 1:] = ai, coeffs.b[i]
    return basis


def _circle(alphas: np.ndarray) -> np.ndarray:
    """Rows (1, cos alpha, sin alpha); scaled by (1, r, r) they are samples."""
    return np.stack([np.ones_like(alphas), np.cos(alphas), np.sin(alphas)], axis=1)


def _loop_vectors(coeffs: pert.CorrectionCoefficients, indices: tuple[int, ...],
                  radius: float, alphas: np.ndarray) -> np.ndarray:
    """Coefficient vectors of Psi(alpha) in the normalizable-state basis."""
    coords = _circle(alphas) * np.array([1.0, radius, radius])
    return coords @ _loop_basis(coeffs, indices).T


def overlap_product_phase(vectors: np.ndarray, gram: np.ndarray) -> float:
    """Accumulated phase of the closed chain of successive overlaps.

    -Im log prod_k <v_k | v_{k+1}> with each sample normalized under the
    supplied Gram metric.  Per-sample phases telescope out of the closed
    product, so the result is exactly gauge invariant; the total loop
    phase must stay inside (-pi, pi], which the perturbative loop radius
    guarantees by a wide margin.
    """
    # overlap <v_k|v_{k+1}> = conj(v_k) . G . v_{k+1}
    norms = np.sqrt(np.einsum("ki,ki->k", np.conj(vectors), vectors @ gram.T).real)
    normalized = vectors / norms[:, None]
    nxt = np.roll(normalized, -1, axis=0)
    overlaps = np.einsum("ki,ki->k", np.conj(normalized), nxt @ gram.T)
    if np.any(np.abs(overlaps) < 0.5):
        raise StepResolutionError(
            "adjacent loop samples barely overlap; increase the step count")
    product = complex(np.prod(overlaps / np.abs(overlaps)))
    return -float(cmath.phase(product))


def _overlap_phases(coeffs: pert.CorrectionCoefficients, gram_data,
                    loop: LoopParams, radii: tuple[float, ...]) -> list[float]:
    """Overlap-product phase per squared radius at each of ``radii``.

    The chains run in the 3-dim span of ``_loop_basis``.  The reduced
    metric H = B^dagger G B and the angles are computed once for all
    radii; each radius scales H by (1, r, r) on both sides, so its samples
    are the real rows of ``_circle``.  H is made exactly Hermitian first:
    the phase is the anti-Hermitian part of O(r^2) overlaps, so a
    roundoff asymmetry would be divided by r^2.
    """
    for r in radii:
        _check_radius(r)
    indices, gram = gram_data
    basis = _loop_basis(coeffs, indices)
    metric = osc._hermitian(basis.conj().T @ gram @ basis)
    circle = _circle(_alphas(loop))
    phases = []
    for r in radii:
        scale = np.array([1.0, r, r])
        phases.append(overlap_product_phase(circle, metric * np.outer(scale, scale))
                      / r ** 2)
    return phases


def overlap_loop_phase(coeffs: pert.CorrectionCoefficients, gram_data,
                       loop: LoopParams, radius: float) -> float:
    """Overlap-product phase per squared radius at one fixed radius."""
    (phase,) = _overlap_phases(coeffs, gram_data, loop, (radius,))
    return phase


def berry_phase_loop_overlap(j: int, constants: osc.PhysicalConstants,
                             loop: LoopParams = LoopParams(),
                             nodes: osc.NodeCounts = osc.NodeCounts()) -> PhaseResult:
    """Overlap-product loop phase per squared radius for state j.

    Per-sample normalization makes the raw value differ from the closed
    form at O(r^2); the loop runs at r and r/2, in one batch that shares
    the reduced metric and the angles, and Richardson-extrapolates that
    error away.
    """
    if osc.get_state(j).is_null:
        return _null_result(j, "loop-overlap", constants)
    coeffs = pert.correction_coefficients(j, nodes=nodes)
    r = _auto_radius(coeffs, loop)
    gamma_r, gamma_half = _overlap_phases(coeffs, osc.gram_matrix(nodes), loop,
                                          (r, 0.5 * r))
    metadata = {"steps": loop.steps, "radius": r, "nodes": nodes,
                "raw_values": (gamma_r, gamma_half)}
    return _result(j, (4.0 * gamma_half - gamma_r) / 3.0, "loop-overlap",
                   constants, metadata)


def oracle_comparison(j: int, constants: osc.PhysicalConstants,
                      loop: LoopParams = LoopParams(),
                      nodes: osc.NodeCounts = osc.NodeCounts()) -> dict:
    """Closed form and both loop oracles side by side, with pairwise gaps.

    Differences are reported relative to max(|x|, |y|, 1e-9) in
    dimensionless units; the floor keeps the comparison meaningful when
    the phases vanish.
    """
    closed = berry_phase_closed(j, constants, nodes)
    conn = berry_phase_loop_connection(j, constants, loop, nodes)
    over = berry_phase_loop_overlap(j, constants, loop, nodes)

    def gap(x: PhaseResult, y: PhaseResult) -> float:
        a, b = x.dimensionless_value, y.dimensionless_value
        return abs(a - b) / max(abs(a), abs(b), 1e-9)

    return {
        "closed": closed,
        "loop_connection": conn,
        "loop_overlap": over,
        "gap_closed_connection": gap(closed, conn),
        "gap_closed_overlap": gap(closed, over),
        "gap_connection_overlap": gap(conn, over),
    }
