"""Loop phases of the perturbed oscillator states.

Three routes to the same quantity:

* ``berry_phase_closed``          -- the coefficient formula
  gamma/r^2 = -2 pi Im sum_i conj(a_i) b_i;
* ``berry_phase_loop_connection`` -- trapezoidal loop integral of the
  connection <Psi | grad Psi> over the circle eps1 = r cos(alpha),
  eps2 = r sin(alpha);
* ``berry_phase_loop_overlap``    -- gauge-invariant product of successive
  normalized-state overlaps around the same circle, Richardson-extrapolated
  to small radius.  ``oracle_comparison`` runs all three on one coefficient set.

The loop computations always run on the dimensionless coefficient tables
(couplings in units of M omega^2), where every number is O(1); results are
converted through the symbolic 1/(M omega^2)^2 prefactor at the end.  For
this coupling pair the cross sums come out real, so all three routes
agree on zero phases; the machinery is exercised against synthetic
nonzero coefficient sets in the test suite.

What is constant around a loop is computed once, not once per step:

* per loop, ``_loop_samples`` builds once per step count the samples
  (cos alpha, sin alpha), with the one that closes the chain, and the
  overlap chain's eight link terms, the products and sums of adjacent
  samples that do not depend on the coefficient set; both loop routes
  read the one entry, and the last loop's is the one kept (its memory:
  ``MAX_STEPS``);
* per coefficient set, the set holds the three sums the connection reads
  and max|coefficient|, which sets the auto radius, taken at construction
  (``perturbation._fill_records``).  The connection is evaluated once, on
  the arrays of all the loop's samples;
* the overlap chain runs in the 3-dim span of e_j, a and b, on a metric H
  reduced once per coefficient set and Gram matrix G; this module's
  ``_reduced_metrics`` keeps it with G while the set lives.  Its samples
  are real, so every overlap is formed from Re H and Im H in real
  arithmetic: the link terms weighted by the entries of H give 1-d arrays
  built once, and each radius (r and r/2 for Richardson) is one row of a
  single array pass, run in place.  The sample norms are formed only when
  a scalar bound on H cannot rule out the weak-overlap refusal; at the
  auto radius under the package's Gram matrix it always does.  This is the
  package's one overlap chain; the test suite holds it to the same chain
  over the full basis of live states, and to the chain that forms the
  norms on every call (``tests/loop_reference.py``).

The overlap chain trusts its package caller, as every internal does: G is
the read-only matrix of ``osc.gram_matrix(nodes)``, and a set's own entry is
zero (``CorrectionCoefficients`` refuses a mapping keyed by the state
itself), so H couples e_j to a and b only by roundoff.  The chain's roundoff
is divided by r^2, so the overlap route refuses a radius with
r * max|coefficient| below ``_OVERLAP_FLOOR``.  Both loop routes run their
array pass with numpy raising at the first overflow, and refuse a radius at
which it overflows.  ``_phases`` and the public wrappers check the inputs;
``_route_values`` runs the routes on a coefficient set.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import oscillator as osc
from . import perturbation as pert
from .errors import (EvaluationError, ParameterError, require_instance, require_integer,
                     require_real)

__all__ = [
    "LoopParams",
    "PhaseResult",
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

# The overlap chain's roundoff is divided by r^2, so below this
# r * max|coefficient| the overlap route refuses the loop.  Measured on the
# live states at 16..1024 nodes and on synthetic sets under the same Gram
# matrices, 8..16384 steps: its Richardson value leaves validate's
# oracle-agreement tolerance at 1e-24 and uses 5% of it at 1e-22.
_OVERLAP_FLOOR = 1e-18

# The loop's memory, stated here once: the one ``_loop_samples`` entry
# kept holds 10 steps + 2 floats, 80 MiB at this cap; beyond it, a
# two-radius overlap pass holds 8 floats per step and a connection pass 7.
MAX_STEPS = 2 ** 20

# Per coefficient set (sets hash by identity), the last Gram matrix the overlap
# chain ran it on and the nine floats it reads of the reduced metric; dies with the set.
_reduced_metrics = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class LoopParams:
    """Circle in coupling space: radius and number of samples.

    The circle is traversed counterclockwise, the orientation whose phase
    the closed form gives; the reversed loop's phase is its negation.
    ``radius``, a real number kept as a float, is in the coupling units of
    the constants the loop runs with (the oracles run dimensionless, units
    of M omega^2); None picks r = 1e-2 / max|coefficient|.  ``steps``, an
    integer in 8..``MAX_STEPS``, is kept as an int.
    """

    radius: float | None = None
    steps: int = 720

    def __post_init__(self):
        object.__setattr__(self, "steps", require_integer(self.steps, "loop steps"))
        if not 8 <= self.steps <= MAX_STEPS:
            raise ParameterError(
                f"loop steps must be in 8..{MAX_STEPS}, got {self.steps}")
        if self.radius is None:
            return
        object.__setattr__(self, "radius", require_real(self.radius, "loop radius"))
        if not 0.0 < self.radius < math.inf:
            raise ParameterError(
                f"loop radius must be finite and positive, got {self.radius}")


class PhaseResult(NamedTuple):
    """A loop phase per squared radius, with its provenance.

    ``dimensionless_value`` is the pure number and ``si_prefactor`` the
    1/(M omega^2)^2 of the constants the phase was computed with, so
    ``gamma_over_r2``, their product, is in 1/(energy/length^2)^2 for SI
    constants and a pure number for dimensionless ones.  A plain record:
    it compares as a tuple, ``metadata`` included.
    """

    state_index: int
    dimensionless_value: float
    si_prefactor: float
    method: str
    metadata: dict

    @property
    def gamma_over_r2(self) -> float:
        return self.dimensionless_value * self.si_prefactor


def closed_form_phase(coeffs: pert.CorrectionCoefficients) -> float:
    """-2 pi Im sum conj(a_i) b_i in the coefficient units supplied."""
    return _PHASE_ORIENTATION * 2.0 * math.pi * coeffs.connection_sums[2].imag


def _auto_radius(coeffs: pert.CorrectionCoefficients, loop: LoopParams) -> float:
    if loop.radius is not None:
        return loop.radius
    top = coeffs.max_magnitude()
    return _PERTURBATIVE_BUDGET / top if top > 0.0 else _PERTURBATIVE_BUDGET


def _check_radius(r: float) -> None:
    """Every route divides by r ** 2, which overflows for the auto radius
    once every coefficient is below ~1e-156, and underflows to 0 for a
    radius below ~1e-162."""
    if not 0.0 < r * r < math.inf:
        raise ParameterError(f"loop radius {r!r} has no finite square or squares to zero")


def _radii_label(radii: tuple[float, ...]) -> str:
    label = "loop radius" if len(radii) == 1 else "loop radii"
    return f"{label} {', '.join(map(repr, radii))}"


@lru_cache(maxsize=1)
def _loop_samples(steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The loop's samples and the overlap chain's link terms, read-only.

    ``samples`` holds the rows (cos alpha, sin alpha) of the samples in
    traversal order, with the first repeated at the end to close the
    chain; shape (2, steps + 1).  The angles are k (2 pi / steps), the bits
    ``np.linspace(0, 2 pi, steps, endpoint=False)`` gives.  ``links`` holds,
    for each link from a sample (c0, s0) to the next (c1, s1), the rows
    c0 + c1, s0 + s1, c0 c1, s0 s1, c0 s1 + s0 c1, c1 - c0, s1 - s0 and
    c0 s1 - s0 c1; shape (8, steps).  Both loop routes read the samples and
    ``_overlap_phases`` the links, so the routes of one loop evaluate the
    trigonometric functions and the products once.  Every command reads
    one loop at a time, so one entry is kept (its memory: ``MAX_STEPS``).
    """
    alphas = np.arange(steps) * (2.0 * math.pi / steps)
    samples = np.empty((2, steps + 1))
    np.cos(alphas, out=samples[0, :-1])
    np.sin(alphas, out=samples[1, :-1])
    samples[:, -1] = samples[:, 0]
    # the rows (c0, s0) and (c1, s1) of every link, paired
    head, tail = samples[:, :-1], samples[:, 1:]
    links = np.empty((8, steps))
    np.add(head, tail, out=links[0:2])
    np.multiply(head, tail, out=links[2:4])
    np.subtract(tail, head, out=links[5:7])
    cs, sc = head * tail[::-1]
    np.add(cs, sc, out=links[4])
    np.subtract(cs, sc, out=links[7])
    samples.setflags(write=False)
    links.setflags(write=False)
    return samples, links


def connection_loop_integral(coeffs: pert.CorrectionCoefficients,
                             loop: LoopParams) -> tuple[float, float, float]:
    """i * closed-loop integral of the connection, by periodic trapezoid.

    The connection <Psi | grad_{(eps1, eps2)} Psi> of the first-order state
    is (eps1 sum|a|^2 + eps2 sum a b*,  eps1 sum a* b + eps2 sum|b|^2), from
    the three sums ``coeffs`` stored at construction (sum a b* is the
    conjugate of sum a* b); it vanishes at the origin because the
    corrections are orthogonal to the unperturbed state.

    Returns (gamma_per_r2, imag_residual, radius).  The integrand is a
    degree-2 trigonometric polynomial in alpha, so the periodic trapezoid
    rule is exact once steps > 4; the imaginary residual of the complex
    result is a roundoff diagnostic.  An exact zero is returned as +0, so
    the printed sign of a structural zero does not follow roundoff.  The
    connection is evaluated once, on the arrays of every sample of the
    counterclockwise circle (``_loop_samples``), and its integrand, weighted
    by the tangent (-r sin alpha, r cos alpha), is summed by one
    ``np.add.reduce``, in place (its memory: ``MAX_STEPS``).
    The pass runs with numpy raising at the first overflow, which refuses
    the radius as a ``ParameterError``.
    """
    r = _auto_radius(coeffs, loop)
    _check_radius(r)
    c, s = _loop_samples(loop.steps)[0][:, :-1]
    sum_aa, sum_bb, sum_ab = coeffs.connection_sums
    try:
        with np.errstate(over="raise"):
            rc, rs = r * c, r * s
            a1, a2 = rc * sum_aa + rs * sum_ab.conjugate(), rc * sum_ab + rs * sum_bb
            # times the tangent in place, so at MAX_STEPS this pass holds less
            # than the overlap chain
            a1 *= -rs
            a2 *= rc
            a1 += a2
            total = complex(np.add.reduce(a1))
    except FloatingPointError:
        raise ParameterError(
            f"loop radius {r!r}: the connection loop overflows at r * max|coefficient| = "
            f"{r * coeffs.max_magnitude():.3e}, where the auto radius keeps "
            f"{_PERTURBATIVE_BUDGET:.0e}") from None
    total *= 2.0 * math.pi / loop.steps
    value = 1j * total
    # + 0.0 makes an exact zero +0, whichever sign roundoff in the tables gave it
    return value.real / r ** 2 + 0.0, abs(value.imag) / r ** 2, r


def _loop_basis(coeffs: pert.CorrectionCoefficients) -> np.ndarray:
    """Columns e_j, a, b over the live states, ``osc.live_indices()``.

    The sample at radius r and angle alpha is this basis applied to
    (1, r cos alpha, r sin alpha), so every loop lies in their span.
    """
    basis = np.zeros((len(coeffs.a), 3), dtype=complex)
    basis[osc._ROW[coeffs.state_index], 0] = 1.0
    basis[:, 1] = coeffs.a
    basis[:, 2] = coeffs.b
    return basis


def _overlap_phases(coeffs: pert.CorrectionCoefficients, gram_data,
                    loop: LoopParams, radii: tuple[float, ...]) -> list[float]:
    """Overlap-product phase per squared radius at each of ``radii``.

    Trusts its package caller: ``gram_data`` is ``osc.gram_matrix(nodes)``
    (the own entry of ``coeffs`` is zero, as every set's is).  The chains
    run in the 3-dim span of ``_loop_basis``, on the reduced metric
    H = B^dagger G B, made exactly Hermitian first: the phase is the
    anti-Hermitian part of O(r^2) overlaps, so a roundoff asymmetry would
    be divided by r^2.  ``_reduced_metrics`` keeps H per set, matching G
    by identity.  The samples u_k = (1, r cos alpha_k, r sin alpha_k) are
    real, so o_k = u_k^T H u_{k+1} is formed from Re H and Im H in real
    arithmetic.  Re o_k and Im o_k are polynomials in r whose O(r) and
    O(r^2) coefficients are the loop's link terms (``_loop_samples``)
    weighted by entries of H, 1-d arrays built once; each radius is one
    row of a (len(radii), steps) array, built in place, and atan2
    overwrites the rows of Im o_k (its memory: ``MAX_STEPS``).  The chain
    phase is -sum_k atan2(Im o_k, Re o_k); the normalization is a positive
    factor of each o_k, so only the weak-overlap refusal reads it.

    That refusal is screened on P = Re H first.  With |cos|, |sin| <= 1
    and every radius at most top, Re o_k >= low = P00 - S and
    n_k^2 = u_k^T P u_k <= high = P00 + S, where S = top (2 (|P01| + |P02|)
    + top (|P11| + |P22| + 2 |P12|)).  If low > 0 and low^2 exceeds
    high^2 / 4 by far more than the arrays' roundoff, no overlap can fall
    below half its norms, and the norms are never formed.  Otherwise the
    norms and the per-sample comparison run.  Radii below ``_OVERLAP_FLOOR``
    / max|coefficient|, or at which the pass overflows (it runs with numpy
    raising at the first overflow), are refused as a ``ParameterError``.
    """
    for r in radii:
        _check_radius(r)
    magnitude = coeffs.max_magnitude()
    # a set with no coefficient has an exact chain and no floor
    floor = _OVERLAP_FLOOR / magnitude if magnitude else 0.0
    if min(radii) < floor:
        raise ParameterError(
            f"{_radii_label(radii)}: the overlap route needs every radius at or above "
            f"{floor:.3e} ({_OVERLAP_FLOOR:.0e} / max|coefficient|); below it the chain's "
            f"roundoff, divided by r^2, swamps the phase")
    gram, memo = gram_data[1], _reduced_metrics.get(coeffs)
    if memo is None or memo[0] is not gram:
        basis = _loop_basis(coeffs)
        metric = osc._hermitian(basis.conj().T @ gram @ basis)
        (h00, h01, h02), (_, h11, h12), (_, _, h22) = metric.tolist()
        # the upper triangles of P = Re H and Q = Im H (P symmetric, Q antisymmetric)
        memo = _reduced_metrics[coeffs] = gram, (
            *(h.real for h in (h00, h01, h02, h11, h12, h22)),
            h01.imag, h02.imag, h12.imag)
    p00, p01, p02, p11, p12, p22, q01, q02, q12 = memo[1]
    top = max(radii)
    spread = top * (2.0 * (abs(p01) + abs(p02)) + top * (abs(p11) + abs(p22) + 2.0 * abs(p12)))
    low, high = p00 - spread, p00 + spread
    screened = low > 0.0 and low * low > 0.25 * high * high * (1.0 + 1e-9)
    samples, links = _loop_samples(loop.steps)
    c_sum, s_sum, cc, ss, cross_sum, c_diff, s_diff, cross_diff = links
    # coefficients of r and r^2 in Re o_k, Im o_k
    re1 = p01 * c_sum + p02 * s_sum
    re2 = p11 * cc + p22 * ss + p12 * cross_sum
    im1 = q01 * c_diff + q02 * s_diff
    im2 = q12 * cross_diff
    rows = np.array(radii)[:, None]
    try:
        with np.errstate(over="raise"):
            # p00 + rows * (re1 + rows * re2) and im alike, rounded the same, in place
            re = rows * re2
            re += re1
            re *= rows
            re += p00
            im = rows * im2
            im += im1
            im *= rows
            if not screened:
                # n_k^2 over every sample including the closing one; every
                # product takes an array, so an overflow raises
                c, s = samples
                nn1 = 2.0 * (p01 * c + p02 * s)
                nn2 = p11 * (c * c) + p22 * (s * s) + 2.0 * (p12 * (c * s))
                nn = p00 + rows * (nn1 + rows * nn2)
                # |o_k| / (n_k n_{k+1}) < 0.5, squared
                if np.any(re * re + im * im < 0.25 * (nn[:, :-1] * nn[:, 1:])):
                    raise EvaluationError(
                        "adjacent loop samples barely overlap; increase the step count")
    except FloatingPointError:
        raise ParameterError(
            f"{_radii_label(radii)}: the overlap chain overflows at r * max|coefficient| = "
            f"{top * magnitude:.3e}, where the auto radius keeps "
            f"{_PERTURBATIVE_BUDGET:.0e}") from None
    phases = -np.add.reduce(np.arctan2(im, re, out=im), axis=1)
    # + 0.0 makes an exact zero +0, as connection_loop_integral does
    return [phase / r ** 2 + 0.0 for phase, r in zip(phases.tolist(), radii)]


def overlap_loop_phase(coeffs: pert.CorrectionCoefficients, gram_data,
                       loop: LoopParams, radius: float) -> float:
    """Overlap-product phase per squared radius at one fixed radius; trusts its
    caller to pass ``osc.gram_matrix(nodes)`` as ``gram_data``."""
    return _overlap_phases(coeffs, gram_data, loop, (radius,))[0]


def _route_values(coeffs: pert.CorrectionCoefficients, nodes: osc.NodeCounts,
                  loop: LoopParams | None, methods: tuple[str, ...]) -> list[tuple[float, dict]]:
    """The routes' core: the phase per squared radius of ``coeffs`` by each
    of ``methods``, in order, with its metadata.  Checks no argument, and
    runs the overlap chain on ``osc.gram_matrix(nodes)``."""
    values = []
    for method in methods:
        if method == "closed":
            values.append((closed_form_phase(coeffs), {"nodes": nodes}))
        elif method == "loop-connection":
            gamma, residual, r = connection_loop_integral(coeffs, loop)
            values.append((gamma, {"steps": loop.steps, "radius": r,
                                   "imag_residual": residual, "nodes": nodes}))
        else:
            r = _auto_radius(coeffs, loop)
            gamma_r, gamma_half = _overlap_phases(coeffs, osc.gram_matrix(nodes), loop,
                                                  (r, 0.5 * r))
            values.append(((4.0 * gamma_half - gamma_r) / 3.0,
                           {"steps": loop.steps, "radius": r, "nodes": nodes,
                            "raw_values": (gamma_r, gamma_half)}))
    return values


def _phases(j: int, constants: osc.PhysicalConstants, loop: LoopParams | None,
            nodes: osc.NodeCounts, methods: tuple[str, ...]) -> list[PhaseResult]:
    """State j's phase by each of ``methods``, in order, all from one
    ``pert.correction_coefficients`` call (looked up at call time).
    ``constants``, ``nodes`` and, for a loop method, ``loop`` of the wrong
    type are refused as ParameterError."""
    null = osc.get_state(j).is_null
    require_instance(constants, osc.PhysicalConstants, "constants")
    require_instance(nodes, osc.NodeCounts, "nodes")
    if methods != ("closed",):
        require_instance(loop, LoopParams, "loop")
    if null:
        values = [(0.0, {"note": "state vanishes identically; phase is zero by convention"})
                  for _ in methods]
    else:
        values = _route_values(pert.correction_coefficients(j, nodes=nodes), nodes, loop, methods)
    prefactor = 1.0 / constants.coupling_scale ** 2
    return [PhaseResult(j, gamma, prefactor, method, metadata)
            for method, (gamma, metadata) in zip(methods, values)]


def berry_phase_closed(j: int, constants: osc.PhysicalConstants,
                       nodes: osc.NodeCounts = osc.NodeCounts()) -> PhaseResult:
    """Closed-form phase per squared loop radius for state j."""
    return _phases(j, constants, None, nodes, ("closed",))[0]


def berry_phase_loop_connection(j: int, constants: osc.PhysicalConstants,
                                loop: LoopParams = LoopParams(),
                                nodes: osc.NodeCounts = osc.NodeCounts()) -> PhaseResult:
    """Discretized connection-loop phase per squared radius for state j."""
    return _phases(j, constants, loop, nodes, ("loop-connection",))[0]


def berry_phase_loop_overlap(j: int, constants: osc.PhysicalConstants,
                             loop: LoopParams = LoopParams(),
                             nodes: osc.NodeCounts = osc.NodeCounts()) -> PhaseResult:
    """Overlap-product loop phase per squared radius for state j.

    Per-sample normalization makes the raw value differ from the closed
    form at O(r^2); the loop runs at r and r/2, as two rows of one
    ``_overlap_phases`` pass, and Richardson-extrapolates that error away.
    """
    return _phases(j, constants, loop, nodes, ("loop-overlap",))[0]


def oracle_comparison(j: int, constants: osc.PhysicalConstants,
                      loop: LoopParams = LoopParams(),
                      nodes: osc.NodeCounts = osc.NodeCounts()) -> dict:
    """Closed form and both loop oracles side by side, with pairwise gaps.

    All three read one coefficient set.  Differences are reported relative
    to max(|x|, |y|, 1e-9) in dimensionless units; the floor keeps the
    comparison meaningful when the phases vanish.
    """
    closed, conn, over = _phases(j, constants, loop, nodes,
                                 ("closed", "loop-connection", "loop-overlap"))

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
