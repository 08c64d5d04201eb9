"""Self-check suite behind ``rmsphase validate``.

Each check returns a CheckResult; the CLI prints one line per check and
maps the outcome to its exit code.  Comparisons against quantities that
vanish identically use |x - y| <= max(rtol * max|.|, atol) with small
documented absolute floors, since a pure relative test is ill-posed at
zero.

The build certificate (``EXACT_NODES``, ``EXACTNESS_BOUND`` and
``exactness_gap``) and the reference frequencies ``ROW_FREQUENCIES_MHZ``
live in ``oscillator``, where the other commands read them, so
``rmsphase validate`` is the one command that loads this module.  The
three constants are re-exported here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import berry, oscillator as osc, perturbation as pert
from .oscillator import EXACT_NODES, EXACTNESS_BOUND, ROW_FREQUENCIES_MHZ

__all__ = ["CheckResult", "run_checks", "within"]

# Table-row pairs whose phases must coincide.
EQUAL_PHASE_PAIRS = ((2, 10), (5, 13), (6, 14), (8, 16))

# Minimum per-axis resolution the suite is validated at.
MIN_VALIDATED_NODES = 32


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    warning: bool = False


def within(x: float, y: float, rtol: float, atol: float = 0.0) -> bool:
    """|x - y| <= max(rtol * max(|x|, |y|), atol)."""
    return abs(x - y) <= max(rtol * max(abs(x), abs(y)), atol)


def _check_orthonormality(nodes: osc.NodeCounts) -> CheckResult:
    indices, gram = osc.gram_matrix(nodes)
    dev = float(np.max(np.abs(gram - np.eye(len(indices)))))
    return CheckResult(
        "orthonormality", dev < 1e-8,
        f"{len(indices)} normalizable states, max |G - I| = {dev:.3e}")


# Weyl sequence frac(1/2 + k g^-j), k = 1..100, j = 1..4, g^5 = g + 1: even
# cover of the unit 4-cube, mapped to the rho, theta, phi and beta ranges;
# each axis of osc.AXES reads its coordinate's column
_MEASURE_POINTS = ((0.5 + np.arange(1, 101)[:, None] * 1.1673039782614187 ** -np.arange(1.0, 5.0))
                   % 1.0 * [2.7, math.pi - 0.4, 2.0 * math.pi, 4.0] + [0.3, 0.2, 0.0, -2.0])
_MEASURE_COLUMNS = {"radial": 0, "polar": 1, "rapidity": 3}


def _check_measure() -> CheckResult:
    """|det J| of ``embed`` by central differences against the product of
    the ``osc.AXES`` weights at power 0, the measure every build integrates."""
    h = 1e-5
    jac = np.empty((len(_MEASURE_POINTS), 4, 4))
    for i, coords in enumerate(_MEASURE_POINTS.tolist()):
        for k in range(4):
            up, dn = list(coords), list(coords)
            up[k] += h
            dn[k] -= h
            jac[i, :, k] = (osc.embed(*up) - osc.embed(*dn)) / (2.0 * h)
    fd = np.abs(np.linalg.det(jac))
    an = np.prod([axis.weight(_MEASURE_POINTS[:, _MEASURE_COLUMNS[axis.field]], 0)
                  for axis in osc.AXES], axis=0)
    worst = float(np.max(np.abs(fd - an) / an))
    return CheckResult("measure-jacobian", worst < 1e-8,
                       f"max relative deviation {worst:.3e} over {len(_MEASURE_POINTS)} points")


def _check_hermiticity(nodes: osc.NodeCounts) -> CheckResult:
    # null rows and columns are exact zeros, so the live block decides
    couplings = pert._couplings(nodes)
    worst = float(np.max(np.abs(couplings - couplings.conj().swapaxes(-1, -2))))
    return CheckResult("hermiticity", worst < 1e-10,
                       f"max |M - M^dagger| = {worst:.3e} over both channels")


def _check_sum_rule(nodes: osc.NodeCounts) -> CheckResult:
    cos, sin = pert._couplings(nodes)
    total = cos + sin
    direct = osc.overlap_tables(nodes).shared
    gap = np.abs(total - direct)
    # relative at 1e-10 with a 1e-12 absolute floor for the pairs that are
    # exactly zero; null pairs are exact zeros on both sides
    ok = bool(np.all(gap <= np.maximum(1e-10 * np.maximum(np.abs(total), np.abs(direct)),
                                       1e-12)))
    return CheckResult("channel-sum-rule", ok,
                       f"max absolute gap {float(np.max(gap)):.3e} over all 16x16 pairs")


def _check_oracle_agreement(nodes: osc.NodeCounts, constants: osc.PhysicalConstants) -> CheckResult:
    worst_conn, worst_over = 0.0, 0.0
    for j in osc.live_indices():
        report = berry.oracle_comparison(j, constants, berry.LoopParams(steps=720), nodes)
        closed = report["closed"].dimensionless_value
        conn = report["loop_connection"].dimensionless_value
        over = report["loop_overlap"].dimensionless_value
        worst_conn = max(worst_conn, abs(closed - conn))
        worst_over = max(worst_over, abs(closed - over))
        if not (within(closed, conn, 1e-6, 1e-9) and within(closed, over, 1e-5, 1e-7)):
            return CheckResult("oracle-agreement", False,
                               f"state {j}: closed {closed:.3e}, connection {conn:.3e}, "
                               f"overlap {over:.3e}")
    return CheckResult("oracle-agreement", True,
                       f"10 states; worst |closed-connection| = {worst_conn:.2e}, "
                       f"worst |closed-overlap| = {worst_over:.2e}")


def _check_sign_mutation_detector() -> CheckResult:
    """Prove the oracle comparison catches a sign flip in the closed form.

    The physical phases vanish, so the flip is demonstrated on a synthetic
    coefficient set with a nonzero imaginary cross sum.
    """
    coeffs = pert.CorrectionCoefficients(
        state_index=1,
        a={5: 0.3 + 0.4j, 9: -0.1 + 0.2j},
        b={5: 0.5 - 0.2j, 9: 0.15 + 0.05j},
    )
    loop = berry.LoopParams(radius=1e-3, steps=720)
    reference, _, _ = berry.connection_loop_integral(coeffs, loop)
    straight = berry.closed_form_phase(coeffs)
    flipped = -straight
    detector_sees_flip = (not within(flipped, reference, 1e-6, 1e-9)
                          and within(straight, reference, 1e-6, 1e-9))
    return CheckResult("sign-mutation-detector", detector_sees_flip,
                       "synthetic nonzero phase: flipped closed form disagrees "
                       "with the loop oracle as required")


def _check_zero_classes(constants: osc.PhysicalConstants, nodes: osc.NodeCounts) -> CheckResult:
    for j, qn in enumerate(osc.state_table(), start=1):
        if qn.is_null:
            result = berry.berry_phase_closed(j, constants, nodes)
            if result.gamma_over_r2 != 0.0:
                return CheckResult("zero-classes", False,
                                   f"null state {j} has nonzero phase")
    live = set(osc.live_indices())
    expected = {1, 2, 5, 6, 8, 9, 10, 13, 14, 16}
    if live != expected:
        return CheckResult("zero-classes", False,
                           f"normalizable set {sorted(live)} != {sorted(expected)}")
    return CheckResult("zero-classes", True,
                       "null states exactly {3,4,7,11,12,15}; phases fixed to 0")


def _check_pair_equalities(constants_map, nodes: osc.NodeCounts) -> CheckResult:
    worst = 0.0
    for j1, j2 in EQUAL_PHASE_PAIRS:
        g1 = berry.berry_phase_closed(j1, constants_map[j1], nodes).gamma_over_r2
        g2 = berry.berry_phase_closed(j2, constants_map[j2], nodes).gamma_over_r2
        gap = abs(g1 - g2) / max(abs(g1), abs(g2), 1e-12)
        worst = max(worst, gap)
        if gap >= 1e-3:
            return CheckResult("pair-equalities", False,
                               f"states {j1}/{j2} differ by {gap:.3e} relative")
    return CheckResult("pair-equalities", True,
                       f"4 pairs equal; worst relative gap {worst:.3e}")


def _check_exactness(nodes: osc.NodeCounts) -> CheckResult:
    gap = osc.exactness_gap(nodes)
    return CheckResult("exactness", gap < EXACTNESS_BOUND,
                       f"4 tables, worst relative gap {gap:.3e} from the "
                       f"{EXACT_NODES.polar}-node exact build")


def run_checks(nodes: osc.NodeCounts = osc.NodeCounts()) -> list[CheckResult]:
    """Run the full invariant suite; appends a resolution warning when the
    requested node counts sit below the validated floor."""
    constants = osc.PhysicalConstants.dimensionless()
    constants_map = {
        j: osc.PhysicalConstants.from_frequency(mhz)
        for j, mhz in ROW_FREQUENCIES_MHZ.items()
    }
    results = [
        _check_orthonormality(nodes),
        _check_measure(),
        _check_hermiticity(nodes),
        _check_sum_rule(nodes),
        _check_exactness(nodes),
        _check_oracle_agreement(nodes, constants),
        _check_sign_mutation_detector(),
        _check_zero_classes(constants, nodes),
        _check_pair_equalities(constants_map, nodes),
    ]
    low = min(nodes.radial, nodes.polar, nodes.azimuthal, nodes.rapidity)
    if low < MIN_VALIDATED_NODES:
        results.append(CheckResult(
            "resolution-floor", True,
            f"node count {low}: this suite is not validated below "
            f"{MIN_VALIDATED_NODES} nodes/axis",
            warning=True))
    return results
