"""Self-check suite behind ``rmsphase validate``.

Each check returns a CheckResult; the CLI prints one line per check and
maps the outcome to its exit code.  Comparisons against quantities that
vanish identically use |x - y| <= max(rtol * max|.|, atol) with small
documented absolute floors, since a pure relative test is ill-posed at
zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import berry, oscillator as osc, perturbation as pert, quadrature as quad

__all__ = ["CheckResult", "run_checks", "within"]

# Frequencies (MHz) attached to the catalogue rows in the reference table.
ROW_FREQUENCIES_MHZ = {
    1: 240.4, 2: 89.6, 5: 240.4, 6: 240.4, 8: 334.02,
    9: 240.4, 10: 89.6, 13: 240.4, 14: 240.4, 16: 334.02,
}

# Table-row pairs whose phases must coincide.
EQUAL_PHASE_PAIRS = ((2, 10), (5, 13), (6, 14), (8, 16))

# Minimum per-axis resolution the suite is validated at.
MIN_VALIDATED_NODES = 32


@dataclass(frozen=True)
class CheckResult:
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


def _check_measure(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(100):
        p = osc.RmsPoint(rho=float(rng.uniform(0.3, 3.0)),
                         theta=float(rng.uniform(0.2, math.pi - 0.2)),
                         phi=float(rng.uniform(0.0, 2.0 * math.pi)),
                         beta=float(rng.uniform(-2.0, 2.0)))
        h = 1e-5
        jac = np.empty((4, 4))
        coords = [p.rho, p.theta, p.phi, p.beta]
        for k in range(4):
            up, dn = list(coords), list(coords)
            up[k] += h
            dn[k] -= h
            jac[:, k] = (osc.embed(osc.RmsPoint(*up)) - osc.embed(osc.RmsPoint(*dn))) / (2.0 * h)
        fd = abs(float(np.linalg.det(jac)))
        an = osc.measure_weight(p)
        worst = max(worst, abs(fd - an) / an)
    return CheckResult("measure-jacobian", worst < 1e-8,
                       f"max relative deviation {worst:.3e} over 100 points")


def _check_hermiticity(nodes: osc.NodeCounts) -> CheckResult:
    # null rows and columns are exact zeros, so the live block decides
    worst = max(float(np.max(np.abs(m - m.conj().T)))
                for m in (pert._couplings(channel, nodes) for channel in pert.Channel))
    return CheckResult("hermiticity", worst < 1e-10,
                       f"max |M - M^dagger| = {worst:.3e} over both channels")


def _check_sum_rule(nodes: osc.NodeCounts) -> CheckResult:
    cos, sin = (pert._couplings(channel, nodes) for channel in pert.Channel)
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
    for record in osc.state_table():
        if record.is_null:
            result = berry.berry_phase_closed(record.index, constants, nodes)
            if result.gamma_over_r2 != 0.0:
                return CheckResult("zero-classes", False,
                                   f"null state {record.index} has nonzero phase")
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


def _check_doubling(nodes: osc.NodeCounts) -> CheckResult:
    """Doubling self-consistency of representative build integrands: each
    pair times the shared coupling factor on every axis of ``osc.AXES``, on
    the rule that axis gives the pair's parity, as ``overlap_tables`` does."""
    cases = []
    q1 = osc.QuantumNumbers(2, 2, 2, 2)
    q8 = osc.QuantumNumbers(2, 3, 3, 3)
    q9 = osc.QuantumNumbers(3, 2, 2, 2)
    for qi, qj in ((q1, q1), (q8, q8), (q1, q8), (q1, q9)):
        for axis in osc.AXES:
            make_rule = axis.rules[axis.rule_index((qi, qj))[0, 1]]
            n = getattr(nodes, axis.field)
            fi, fj = axis.profile(qi), axis.profile(qj)
            cases.append((lambda k, make=make_rule, n=n: make(k * n),
                          lambda x, a=fi, b=fj, g=axis.weight: a(x) * b(x) * g(x, 1)))
    for delta in (0, 1):
        cases.append((lambda k: osc.azimuthal_rule(k * nodes.azimuthal),
                      lambda phi, d=delta: np.exp(1j * d * phi) * np.cos(2 * phi / 3) ** 2))
    worst = 0.0
    for make_rule, f in cases:
        worst = max(worst, quad.doubling_gap(make_rule, f))
    return CheckResult("doubling-convergence", worst < 1e-9,
                       f"{len(cases)} integrands, worst doubling gap {worst:.3e}")


def run_checks(nodes: osc.NodeCounts = osc.NodeCounts(),
               seed: int = 20_26) -> list[CheckResult]:
    """Run the full invariant suite; appends a resolution warning when the
    requested node counts sit below the validated floor."""
    rng = np.random.default_rng(seed)
    constants = osc.PhysicalConstants.dimensionless()
    constants_map = {
        j: osc.PhysicalConstants.from_frequency(mhz)
        for j, mhz in ROW_FREQUENCIES_MHZ.items()
    }
    results = [
        _check_orthonormality(nodes),
        _check_measure(rng),
        _check_hermiticity(nodes),
        _check_sum_rule(nodes),
        _check_doubling(nodes),
        _check_oracle_agreement(nodes, constants),
        _check_sign_mutation_detector(),
        _check_zero_classes(constants, nodes),
        _check_pair_equalities(constants_map, nodes),
    ]
    low = min(nodes.radial, nodes.polar, nodes.azimuthal, nodes.rapidity)
    if low < MIN_VALIDATED_NODES:
        results.append(CheckResult(
            "resolution-floor", True,
            f"node count {low} is below the validated floor "
            f"{MIN_VALIDATED_NODES}; results may not be converged",
            warning=True))
    return results
