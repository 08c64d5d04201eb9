"""Loop-phase machinery: closed form against both loop oracles.

For this coupling pair the cross sums sum_i conj(a_i) b_i are exactly real
(the two channel phi-integrals are negatives of each other whenever
delta m != 0), so the physical phases all vanish; the loop machinery is
therefore also exercised on synthetic coefficient sets with genuinely
nonzero imaginary structure.
"""

import math

import numpy as np
import pytest

from rmsphase import (
    LoopParams,
    PhysicalConstants,
    berry_connection,
    berry_phase_closed,
    berry_phase_loop_connection,
    berry_phase_loop_overlap,
    correction_coefficients,
    gram_matrix,
    live_indices,
    oracle_comparison,
)
from rmsphase.berry import (
    MAX_STEPS,
    _alphas,
    _loop_vectors,
    closed_form_phase,
    connection_loop_integral,
    overlap_loop_phase,
    overlap_product_phase,
)
from rmsphase.errors import ParameterError, StepResolutionError
from rmsphase.perturbation import CorrectionCoefficients

NULL_STATES = (3, 4, 7, 11, 12, 15)


@pytest.fixture(scope="module")
def synthetic():
    """Hand-made coefficients with Im sum conj(a) b = 0.295."""
    return CorrectionCoefficients(
        state_index=1,
        a={5: 0.3 + 0.4j, 9: -0.1 + 0.2j},
        b={5: 0.5 - 0.2j, 9: 0.15 + 0.05j},
    )


class TestConnection:
    def test_vanishes_at_origin(self, nodes64):
        coeffs = correction_coefficients(1, nodes=nodes64)
        assert berry_connection(coeffs, 0.0, 0.0) == (0.0, 0.0)

    def test_first_component_is_sum_abs2(self, nodes64):
        coeffs = correction_coefficients(1, nodes=nodes64)
        comp1, _ = berry_connection(coeffs, 1.0, 0.0)
        assert comp1.imag == pytest.approx(0.0, abs=1e-15)
        assert comp1.real == pytest.approx(coeffs.sum_abs2_a(), rel=1e-14)

    def test_finite_difference_cross_check(self, nodes64):
        # <Psi | dPsi/d eps_k> via central differences in coefficient space
        # with the quadrature Gram as the metric
        coeffs = correction_coefficients(1, nodes=nodes64)
        indices, gram = gram_matrix(nodes64)
        pos = {idx: k for k, idx in enumerate(indices)}

        def vector(e1, e2):
            v = np.zeros(len(indices), dtype=complex)
            v[pos[1]] = 1.0
            for i, ai in coeffs.a.items():
                v[pos[i]] = e1 * ai + e2 * coeffs.b[i]
            return v

        eps = (2e-3, -1e-3)
        h = 1e-6
        base = vector(*eps)
        d1 = (vector(eps[0] + h, eps[1]) - vector(eps[0] - h, eps[1])) / (2 * h)
        d2 = (vector(eps[0], eps[1] + h) - vector(eps[0], eps[1] - h)) / (2 * h)
        expected = berry_connection(coeffs, *eps)
        assert np.conj(base) @ gram @ d1 == pytest.approx(expected[0], abs=1e-7)
        assert np.conj(base) @ gram @ d2 == pytest.approx(expected[1], abs=1e-7)


class TestSyntheticLoops:
    def test_closed_form_value(self, synthetic):
        expected = -2 * math.pi * sum(
            np.conj(synthetic.a[i]) * synthetic.b[i] for i in synthetic.a).imag
        assert closed_form_phase(synthetic) == pytest.approx(expected, rel=1e-15)
        assert abs(expected) > 1.0

    def test_connection_loop_matches_closed(self, synthetic):
        closed = closed_form_phase(synthetic)
        gamma, residual, _ = connection_loop_integral(
            synthetic, LoopParams(radius=1e-3, steps=720))
        assert gamma == pytest.approx(closed, rel=1e-12)
        assert residual < 1e-9

    def test_connection_loop_step_doubling(self, synthetic):
        lp1 = LoopParams(radius=1e-3, steps=720)
        lp2 = LoopParams(radius=1e-3, steps=1440)
        g1, _, _ = connection_loop_integral(synthetic, lp1)
        g2, _, _ = connection_loop_integral(synthetic, lp2)
        assert abs(g1 - g2) < 1e-10

    def test_overlap_loop_converges_to_closed(self, synthetic):
        # discretization error ~ 1/steps^2 plus O(r^2); Richardson in r
        # removes the radius term, many steps the discretization term
        closed = closed_form_phase(synthetic)
        gram = np.eye(3)
        idx = (1, 5, 9)
        steps = 7200
        r = 1e-3
        lp = LoopParams(radius=r, steps=steps)
        g_r = overlap_product_phase(_loop_vectors(synthetic, idx, r, _alphas(lp)), gram) / r ** 2
        g_h = overlap_product_phase(_loop_vectors(synthetic, idx, r / 2, _alphas(lp)), gram) / (r / 2) ** 2
        richardson = (4 * g_h - g_r) / 3
        assert richardson == pytest.approx(closed, rel=1e-6)

    def test_overlap_discretization_rate(self, synthetic):
        closed = closed_form_phase(synthetic)
        gram = np.eye(3)
        idx = (1, 5, 9)
        errs = []
        for steps in (720, 1440):
            lp = LoopParams(radius=1e-4, steps=steps)
            vecs = _loop_vectors(synthetic, idx, 1e-4, _alphas(lp))
            errs.append(abs(overlap_product_phase(vecs, gram) / 1e-8 - closed))
        assert errs[1] < errs[0] / 3.0      # ~1/steps^2

    def test_overlap_orientation_flip(self, synthetic):
        gram = np.eye(3)
        idx = (1, 5, 9)
        fwd = overlap_product_phase(
            _loop_vectors(synthetic, idx, 1e-3, _alphas(LoopParams(radius=1e-3, steps=720))), gram)
        back = overlap_product_phase(
            _loop_vectors(synthetic, idx, 1e-3,
                          _alphas(LoopParams(radius=1e-3, steps=720, reverse=True))), gram)
        assert back == pytest.approx(-fwd, rel=1e-12)

    def test_overlap_gauge_invariance(self, synthetic, rng):
        gram = np.eye(3)
        idx = (1, 5, 9)
        vecs = _loop_vectors(synthetic, idx, 1e-3, _alphas(LoopParams(radius=1e-3, steps=720)))
        base = overlap_product_phase(vecs, gram)
        phased = vecs * np.exp(1j * rng.uniform(0, 2 * math.pi, size=(vecs.shape[0], 1)))
        assert overlap_product_phase(phased, gram) == pytest.approx(base, abs=1e-12)

    def test_weak_overlap_raises(self, rng):
        vectors = rng.normal(size=(8, 6)) + 1j * rng.normal(size=(8, 6))
        with pytest.raises(StepResolutionError):
            overlap_product_phase(vectors, np.eye(6))


def reference_connection_loop(coeffs, loop):
    """The connection loop with every sum rebuilt from the mappings at each step."""
    r = loop.radius
    alphas = np.linspace(0.0, 2.0 * math.pi, loop.steps, endpoint=False)
    orientation = 1.0
    if loop.reverse:
        alphas, orientation = alphas[::-1], -1.0
    total = 0.0 + 0.0j
    for alpha in alphas:
        c, s = math.cos(alpha), math.sin(alpha)
        sum_aa = sum(abs(v) ** 2 for v in coeffs.a.values())
        sum_bb = sum(abs(v) ** 2 for v in coeffs.b.values())
        sum_ab = sum(np.conj(coeffs.a[i]) * coeffs.b[i] for i in coeffs.a)
        sum_ba = complex(np.conj(sum_ab))
        a1 = r * c * sum_aa + r * s * sum_ba
        a2 = r * c * sum_ab + r * s * sum_bb
        total += a1 * (-r * s * orientation) + a2 * (r * c * orientation)
    value = 1j * (total * (2.0 * math.pi / loop.steps))
    return value.real / r ** 2, abs(value.imag) / r ** 2, r


class TestStoredSums:
    def test_mappings_are_read_only_copies(self):
        a, b = {5: 0.3 + 0.4j}, {5: 0.5 - 0.2j}
        coeffs = CorrectionCoefficients(1, a, b)
        a[5] = 7.0
        assert coeffs.a[5] == 0.3 + 0.4j
        assert coeffs.sum_abs2_a() == pytest.approx(0.25, rel=1e-15)
        with pytest.raises(TypeError):
            coeffs.a[5] = 7.0
        with pytest.raises(TypeError):
            coeffs.b[9] = 7.0

    def test_basis_phases_build_new_sums(self, synthetic):
        rotated = synthetic.with_basis_phases({5: 0.7, 9: -1.1}, 0.3)
        assert rotated.a[5] == pytest.approx(synthetic.a[5] * np.exp(-0.4j), rel=1e-15)
        assert rotated.sum_conj_a_b() == pytest.approx(synthetic.sum_conj_a_b(), rel=1e-14)
        assert rotated.sum_abs2_b() == pytest.approx(synthetic.sum_abs2_b(), rel=1e-14)
        with pytest.raises(TypeError):
            rotated.b[5] = 7.0

    @pytest.mark.parametrize("steps", [8, 720, 1001])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_connection_loop_is_exactly_the_reference(self, synthetic, steps, reverse):
        loop = LoopParams(radius=1e-3, steps=steps, reverse=reverse)
        assert connection_loop_integral(synthetic, loop) == reference_connection_loop(
            synthetic, loop)


class TestPhysicalPhases:
    def test_all_live_states_zero(self, dimensionless, nodes64):
        for j in live_indices():
            result = berry_phase_closed(j, dimensionless, nodes64)
            assert result.gamma_over_r2 == 0.0
            assert result.method == "closed"

    def test_null_states_zero_with_note(self, dimensionless, nodes64):
        for j in NULL_STATES:
            result = berry_phase_closed(j, dimensionless, nodes64)
            assert result.gamma_over_r2 == 0.0
            assert "zero by convention" in result.metadata["note"]

    def test_oracles_agree(self, dimensionless, nodes64):
        for j in (1, 2, 16):
            report = oracle_comparison(j, dimensionless, LoopParams(steps=720), nodes64)
            closed = report["closed"].dimensionless_value
            conn = report["loop_connection"].dimensionless_value
            over = report["loop_overlap"].dimensionless_value
            assert abs(closed - conn) < 1e-9
            assert abs(closed - over) < 1e-7

    def test_connection_reality_residual(self, dimensionless, nodes64):
        result = berry_phase_loop_connection(1, dimensionless, LoopParams(steps=720), nodes64)
        assert result.metadata["imag_residual"] < 1e-9

    def test_scaling_with_frequency(self, nodes64):
        # gamma/r^2 * (M omega^2)^2 must be omega-independent
        values = []
        for mhz in (89.6, 240.4, 334.02):
            c = PhysicalConstants.from_frequency(mhz)
            result = berry_phase_closed(1, c, nodes64)
            values.append(result.gamma_over_r2 * c.coupling_scale ** 2)
            assert result.si_prefactor == pytest.approx(1.0 / c.coupling_scale ** 2, rel=1e-15)
        assert values[0] == values[1] == values[2]

    def test_basis_phase_invariance(self, dimensionless, nodes64, rng):
        coeffs = correction_coefficients(1, nodes=nodes64)
        phases = {i: float(rng.uniform(0, 2 * math.pi)) for i in coeffs.a}
        rotated = coeffs.with_basis_phases(phases, float(rng.uniform(0, 2 * math.pi)))
        assert closed_form_phase(rotated) == pytest.approx(
            closed_form_phase(coeffs), abs=1e-10)

    def test_overlap_loop_auto_radius(self, dimensionless, nodes64):
        result = berry_phase_loop_overlap(2, dimensionless, LoopParams(steps=360), nodes64)
        coeffs = correction_coefficients(2, nodes=nodes64)
        assert result.metadata["radius"] * coeffs.max_magnitude() <= 1e-2 * (1 + 1e-12)


class TestParams:
    def test_loop_validation(self):
        for steps in (4, MAX_STEPS + 1):
            with pytest.raises(ParameterError, match=f"8..{MAX_STEPS}"):
                LoopParams(steps=steps)
        assert LoopParams(steps=MAX_STEPS).steps == MAX_STEPS
        for radius in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ParameterError):
                LoopParams(radius=radius)

    def test_radius_with_overflowing_square(self, nodes64):
        # auto radius 1e-2 / 1e-160 = 1e158, whose square overflows
        tiny = CorrectionCoefficients(1, {5: 1e-160}, {5: 1e-160j})
        with pytest.raises(ParameterError, match="no finite square"):
            connection_loop_integral(tiny, LoopParams())
        with pytest.raises(ParameterError, match="no finite square"):
            overlap_loop_phase(tiny, gram_matrix(nodes64), LoopParams(), 1e158)

    def test_result_carries_units(self, nodes64):
        c = PhysicalConstants.from_frequency(240.4)
        result = berry_phase_closed(1, c, nodes64)
        assert result.gamma_over_r2 == result.dimensionless_value * result.si_prefactor
