"""Coupling matrix elements and first-order correction coefficients.

Frozen reference numbers in this file were computed with an independent
scipy.integrate.quad pipeline (adaptive quadrature on every axis, scipy's
own Legendre/Laguerre evaluations) before the package quadrature existed.
"""

import math

import numpy as np
import pytest

from rmsphase import (
    Channel,
    NodeCounts,
    PhysicalConstants,
    correction_coefficients,
    live_indices,
    matrix_element,
    phi_integral,
)
from rmsphase import state_table
from rmsphase.errors import CorrectionError
from rmsphase.perturbation import shared_factor_element
from rmsphase.quadrature import gauss_legendre, integrate

SQRT3 = math.sqrt(3.0)

# independently computed correction coefficients for state 1
FROZEN_J1 = {
    8: (0.98994266427517 + 1.28597324332852j, -0.98994266427517 - 1.28597324332852j),
    9: (1.44061941128054 + 0j, 1.17067864735244 + 0j),
    16: (-0.07893982597241 - 0.10254584199364j, 0.07893982597241 + 0.10254584199364j),
}


class TestPhiIntegral:
    def test_delta_zero_closed_forms(self):
        assert phi_integral(2, 2, Channel.COSINE) == pytest.approx(
            math.pi + 3 * SQRT3 / 16, rel=1e-15)
        assert phi_integral(3, 3, Channel.SINE) == pytest.approx(
            math.pi - 3 * SQRT3 / 16, rel=1e-15)

    def test_channel_sum_rule_is_exact(self):
        for m_bra in (2, 3):
            for m_ket in (2, 3):
                total = (phi_integral(m_bra, m_ket, Channel.COSINE)
                         + phi_integral(m_bra, m_ket, Channel.SINE))
                expected = 2 * math.pi if m_bra == m_ket else 0.0
                assert total == pytest.approx(expected, abs=1e-15)

    def test_delta_one_has_imaginary_part(self):
        value = phi_integral(2, 3, Channel.COSINE)          # delta = +1
        assert value == pytest.approx(3 * SQRT3 / 7 - 27j / 28, rel=1e-14)
        assert abs(value.imag) > 0.9

    def test_conjugation_symmetry(self):
        for delta_pair in ((2, 3), (3, 2), (1, 4)):
            for channel in Channel:
                fwd = phi_integral(*delta_pair, channel)
                rev = phi_integral(*reversed(delta_pair), channel)
                assert fwd == pytest.approx(np.conj(rev), rel=1e-15)

    @pytest.mark.parametrize("delta", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("channel", list(Channel))
    def test_against_quadrature(self, delta, channel):
        rule = gauss_legendre(64, 0.0, 2.0 * math.pi)
        profile = np.cos if channel is Channel.COSINE else np.sin

        def integrand(phi):
            return np.exp(1j * delta * phi) * profile(2 * phi / 3) ** 2

        assert phi_integral(0, delta, channel) == pytest.approx(
            integrate(rule, integrand), abs=1e-12)


class TestMatrixElements:
    def test_hermiticity(self, nodes64):
        for channel in Channel:
            m = np.array([[matrix_element(i, j, channel, nodes=nodes64)
                           for j in range(1, 17)] for i in range(1, 17)])
            assert np.max(np.abs(m - m.conj().T)) < 1e-10

    def test_null_state_rows_vanish(self, nodes64):
        for j in range(1, 17):
            assert matrix_element(3, j, Channel.COSINE, nodes=nodes64) == 0.0
            assert matrix_element(j, 15, Channel.SINE, nodes=nodes64) == 0.0

    def test_channel_sum_matches_shared_factor(self, nodes64):
        # 1e-10 relative with a 1e-12 absolute floor for exactly-zero pairs
        for i in live_indices():
            for j in live_indices():
                total = (matrix_element(i, j, Channel.COSINE, nodes=nodes64)
                         + matrix_element(i, j, Channel.SINE, nodes=nodes64))
                direct = shared_factor_element(i, j, nodes64)
                assert abs(total - direct) <= max(
                    1e-10 * max(abs(total), abs(direct)), 1e-12)

    def test_frozen_value(self, nodes64):
        got = matrix_element(8, 1, Channel.COSINE, nodes=nodes64)
        assert got == pytest.approx(-0.98994266427517 - 1.28597324332852j, rel=1e-10)

    def test_si_scaling(self, nodes64):
        c = PhysicalConstants.from_frequency(240.4)
        bare = matrix_element(8, 1, Channel.COSINE, nodes=nodes64)
        scaled = matrix_element(8, 1, Channel.COSINE, constants=c, nodes=nodes64)
        assert scaled == pytest.approx(bare * c.length2_scale, rel=1e-15)

    def test_phi_selection_rule(self, nodes64):
        # |delta m| <= 1 in the catalogue, and the delta = +-1 elements
        # that survive are genuinely complex
        value = matrix_element(8, 1, Channel.COSINE, nodes=nodes64)
        assert abs(value.imag) > 0.1


class TestStructuralZero:
    def test_one_gauge_makes_both_channels_real_symmetric(self, nodes64):
        # chi_k = arg Phi_cos(2, 3) on the m = 3 states, 0 elsewhere: one
        # diagonal phase change makes both coupling matrices real, so every
        # Berry phase of this coupling pair vanishes
        live = live_indices()
        m = {r.index: r.qn.m for r in state_table()}
        chi = np.array([np.angle(phi_integral(2, 3, Channel.COSINE)) if m[i] == 3
                        else 0.0 for i in live])
        rotate = np.exp(1j * chi)
        for channel in Channel:
            mat = np.array([[matrix_element(i, j, channel, nodes=nodes64)
                             for j in live] for i in live])
            assert np.max(np.abs(mat.imag)) > 0.1
            rotated = rotate[:, None] * mat * rotate.conj()[None, :]
            assert np.max(np.abs(rotated.imag)) < 1e-12
            assert np.max(np.abs(rotated - rotated.T)) < 1e-12


class TestCorrectionCoefficients:
    def test_index_set_for_ground_state(self, nodes64):
        coeffs = correction_coefficients(1, nodes=nodes64)
        assert sorted(coeffs.a) == [5, 6, 8, 9, 10, 13, 14, 16]
        assert sorted(coeffs.b) == sorted(coeffs.a)
        # never the degenerate partners, never the null states
        assert not set(coeffs.a) & {1, 2, 3, 4, 7, 11, 12, 15}

    @pytest.mark.parametrize("j", live_indices())
    def test_energy_denominators(self, nodes64, j):
        # a_i (K_j - K_i) and b_i (K_j - K_i) must reproduce the bare matrix
        # elements, over exactly the live states of another energy
        energy = {r.index: r.energy_factor for r in state_table()}
        coeffs = correction_coefficients(j, nodes=nodes64)
        assert set(coeffs.a) == {i for i in live_indices() if energy[i] != energy[j]}
        if j == 1:
            assert [energy[1] - energy[i] for i in (5, 9, 16)] == [-1, -2, -3]
        for i in coeffs.a:
            d = float(energy[j] - energy[i])
            for value, channel in ((coeffs.a[i], Channel.COSINE), (coeffs.b[i], Channel.SINE)):
                element = matrix_element(i, j, channel, nodes=nodes64)
                assert value * d == pytest.approx(element, abs=1e-13)

    def test_frozen_values(self, nodes64):
        coeffs = correction_coefficients(1, nodes=nodes64)
        for i, (a_ref, b_ref) in FROZEN_J1.items():
            assert coeffs.a[i] == pytest.approx(a_ref, abs=1e-10)
            assert coeffs.b[i] == pytest.approx(b_ref, abs=1e-10)

    def test_cross_channel_structure(self, nodes64):
        # delta != 0 entries are exact negatives across channels; delta = 0
        # entries are real with the fixed ratio of the two phi integrals
        coeffs = correction_coefficients(1, nodes=nodes64)
        ratio = ((math.pi - 3 * SQRT3 / 16) / (math.pi + 3 * SQRT3 / 16))
        for i in coeffs.a:
            ai, bi = coeffs.a[i], coeffs.b[i]
            if abs(ai) < 1e-14:
                continue
            delta = 2 - state_table()[i - 1].qn.m
            if delta == 0:
                assert bi == pytest.approx(ai * ratio, rel=1e-12)
            else:
                assert bi == pytest.approx(-ai, rel=1e-12)

    def test_si_units(self, nodes64):
        c = PhysicalConstants.from_frequency(240.4)
        bare = correction_coefficients(1, nodes=nodes64)
        scaled = correction_coefficients(1, c, nodes=nodes64)
        factor = 1.0 / c.coupling_scale
        assert scaled.a[8] == pytest.approx(bare.a[8] * factor, rel=1e-14)

    def test_null_state_rejected(self, nodes64):
        with pytest.raises(CorrectionError):
            correction_coefficients(3, nodes=nodes64)
        with pytest.raises(CorrectionError):
            correction_coefficients(7, nodes=nodes64)

    def test_gauge_covariance(self, rng, nodes64):
        coeffs = correction_coefficients(1, nodes=nodes64)
        phases = {i: float(rng.uniform(0, 2 * math.pi)) for i in coeffs.a}
        own = float(rng.uniform(0, 2 * math.pi))
        rotated = coeffs.with_basis_phases(phases, own)
        for i in coeffs.a:
            expected = coeffs.a[i] * np.exp(1j * (own - phases[i]))
            assert rotated.a[i] == pytest.approx(expected, abs=1e-14)
        assert rotated.sum_conj_a_b() == pytest.approx(coeffs.sum_conj_a_b(), abs=1e-12)
        assert rotated.sum_abs2_a() == pytest.approx(coeffs.sum_abs2_a(), rel=1e-12)

    def test_quadrature_doubling(self, nodes64):
        base = correction_coefficients(1, nodes=nodes64)
        fine = correction_coefficients(1, nodes=nodes64.doubled())
        for i in base.a:
            if abs(base.a[i]) > 1e-13:
                assert base.a[i] == pytest.approx(fine.a[i], rel=1e-8)

