"""Geometry, catalogue, and eigenbasis checks.

Normalization constants are checked against the closed-form orthogonality
integrals of the three axis families; the defining property is also
verified end to end with scipy's adaptive quadrature, independent of the
package rules.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate as sci

from rmsphase import (
    NodeCounts,
    PhysicalConstants,
    QuantumNumbers,
    RmsPoint,
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
from rmsphase.errors import DomainError, NormalizationError, ParameterError
from rmsphase.oscillator import (
    polar_profile,
    radial_profile,
    rapidity_profile,
)

LIVE = (1, 2, 5, 6, 8, 9, 10, 13, 14, 16)


def closed_form_norm(qn: QuantumNumbers) -> float:
    """Analytic dimensionless normalization from orthogonality integrals.

    J_theta = 2 (l+n)!/((2l+1)(l-n)!),  J_beta = (m-n)!/(n (m+n)!),
    J_rho = Gamma(n_a + l + 3/2) / (2 n_a!).
    """
    j_theta = 2.0 * math.factorial(qn.l + qn.n) / (
        (2 * qn.l + 1) * math.factorial(qn.l - qn.n))
    j_beta = math.factorial(qn.m - qn.n) / (qn.n * math.factorial(qn.m + qn.n))
    j_rho = math.gamma(qn.n_a + qn.l + 1.5) / (2.0 * math.factorial(qn.n_a))
    return 1.0 / math.sqrt(2.0 * math.pi * j_theta * j_beta * j_rho)


class TestGeometry:
    def test_axis_points(self):
        assert embed(RmsPoint(1.0, math.pi / 2, 0.0, 0.0)) == pytest.approx([0, 1, 0, 0], abs=1e-15)
        near_pole = embed(RmsPoint(2.0, 1e-9, 1.3, 0.7))
        assert near_pole == pytest.approx([0, 0, 0, 2], abs=1e-8)

    def test_invariant_interval(self, rng):
        for _ in range(1000):
            p = RmsPoint(float(rng.uniform(0.1, 5)), float(rng.uniform(0.01, math.pi - 0.01)),
                         float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(-3, 3)))
            t, x, y, z = embed(p)
            assert -t * t + x * x + y * y + z * z == pytest.approx(p.rho ** 2, abs=1e-12 * p.rho ** 2)

    def test_measure_trivials(self):
        assert measure_weight(RmsPoint(1.0, math.pi / 2, 0.3, 0.0)) == pytest.approx(1.0, rel=1e-15)
        assert measure_weight(RmsPoint(2.0, 1e-12, 0.0, 1.0)) == pytest.approx(0.0, abs=1e-20)

    def test_measure_matches_finite_difference_jacobian(self, rng):
        for _ in range(100):
            p = RmsPoint(float(rng.uniform(0.3, 3)), float(rng.uniform(0.2, math.pi - 0.2)),
                         float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(-2, 2)))
            coords = [p.rho, p.theta, p.phi, p.beta]
            h = 1e-5
            jac = np.empty((4, 4))
            for k in range(4):
                up, dn = list(coords), list(coords)
                up[k] += h
                dn[k] -= h
                jac[:, k] = (embed(RmsPoint(*up)) - embed(RmsPoint(*dn))) / (2 * h)
            fd = abs(np.linalg.det(jac))
            assert fd == pytest.approx(measure_weight(p), rel=1e-8)

    def test_point_validation(self):
        with pytest.raises(ParameterError):
            RmsPoint(0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ParameterError):
            RmsPoint(1.0, 4.0, 0.0, 0.0)


class TestCatalogue:
    def test_eigenvalues_exact(self):
        table = state_table()
        blocks = {1: Fraction(15, 2), 2: Fraction(17, 2),
                  3: Fraction(19, 2), 4: Fraction(21, 2)}
        for record in table:
            assert record.energy_factor == blocks[record.subspace]

    def test_specific_rows(self):
        table = state_table()
        assert table[0].qn == QuantumNumbers(2, 2, 2, 2)
        assert table[0].subspace == 1
        assert table[7].qn == QuantumNumbers(2, 3, 3, 3)
        assert table[7].energy_factor == Fraction(17, 2)
        assert table[11].qn == QuantumNumbers(3, 2, 3, 3)
        assert table[11].identically_zero

    def test_null_classification(self):
        table = state_table()
        assert [r.index for r in table if r.identically_zero] == [3, 4, 11, 12]
        assert [r.index for r in table if r.vanishing_rapidity] == [3, 7, 11, 15]
        assert live_indices() == LIVE

    def test_eigenvalue_in_si(self):
        c = PhysicalConstants.from_frequency(240.4)
        assert eigenvalue(QuantumNumbers(2, 2, 2, 2), c) == pytest.approx(
            7.5 * c.hbar * c.omega, rel=1e-15)


class TestConstants:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_finite_or_non_positive_rejected(self, bad):
        for args in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
            with pytest.raises(ParameterError):
                PhysicalConstants(*args)


class TestEvaluation:
    def test_null_states_evaluate_to_zero(self, dimensionless):
        p = RmsPoint(1.2, 1.0, 0.5, 0.3)
        for qn in (QuantumNumbers(2, 2, 3, 2), QuantumNumbers(2, 3, 3, 2)):
            assert eval_unnormalized(qn, p, dimensionless) == 0.0

    def test_azimuthal_phase_ratio(self, dimensionless):
        qn = QuantumNumbers(2, 2, 2, 3)
        delta = 0.83
        p0 = RmsPoint(1.1, 0.9, 0.4, -0.2)
        p1 = RmsPoint(1.1, 0.9, 0.4 + delta, -0.2)
        ratio = (eval_unnormalized(qn, p1, dimensionless)
                 / eval_unnormalized(qn, p0, dimensionless))
        assert ratio == pytest.approx(np.exp(1j * 3.5 * delta), abs=1e-12)

    def test_rapidity_decay(self, dimensionless):
        beta_far = math.atanh(1.0 - 1e-6)
        for i in LIVE:
            qn = state_table()[i - 1].qn
            far = abs(eval_unnormalized(qn, RmsPoint(1.0, 1.2, 0.1, beta_far), dimensionless))
            near = abs(eval_unnormalized(qn, RmsPoint(1.0, 1.2, 0.1, 0.1), dimensionless))
            assert far < 1e-6 * near

    def test_polar_axis_rejected(self, dimensionless):
        with pytest.raises(DomainError):
            eval_unnormalized(QuantumNumbers(2, 2, 2, 2),
                              RmsPoint(1.0, 0.0, 0.0, 0.0), dimensionless)


class TestNormalization:
    def test_against_closed_form(self, dimensionless, nodes128):
        for i in LIVE:
            qn = state_table()[i - 1].qn
            got = normalization_constant(qn, dimensionless, nodes128)
            assert got == pytest.approx(closed_form_norm(qn), rel=1e-12)

    def test_defining_property_independent_quadrature(self):
        # || N psi ||^2 = 1 with scipy adaptive quadrature, SI constants
        c = PhysicalConstants.from_frequency(240.4)
        qn = QuantumNumbers(2, 2, 2, 2)
        n_const = normalization_constant(qn, c)
        lam = c.inverse_length2
        f_rho = radial_profile(qn, lam)
        f_theta = polar_profile(qn)
        f_beta = rapidity_profile(qn)
        # Gaussian factor kills the integrand beyond ~6 length scales; the
        # scale is ~1e-6 m so force a relative stopping rule (epsabs=0)
        r_max = 40.0 / math.sqrt(lam)
        i_rho = sci.quad(lambda r: f_rho(r) ** 2 * r ** 3, 0, r_max,
                         points=[1.0 / math.sqrt(lam)], epsrel=1e-12, epsabs=0.0)[0]
        i_theta = sci.quad(lambda t: f_theta(t) ** 2 * math.sin(t) ** 2, 0, math.pi)[0]
        # integrand decays like sech^3(beta); [-40, 40] is already dead
        i_beta = sci.quad(lambda b: f_beta(b) ** 2 * math.cosh(b), -40.0, 40.0)[0]
        norm_sq = n_const ** 2 * 2.0 * math.pi * i_rho * i_theta * i_beta
        assert norm_sq == pytest.approx(1.0, rel=1e-9)

    def test_phi_resolution_insensitive(self, dimensionless):
        qn = QuantumNumbers(2, 3, 2, 2)
        coarse = normalization_constant(qn, dimensionless, NodeCounts(64, 64, 8, 64))
        fine = normalization_constant(qn, dimensionless, NodeCounts(64, 64, 128, 64))
        assert coarse == pytest.approx(fine, rel=1e-14)

    def test_doubling_stability(self, dimensionless, nodes64):
        qn = QuantumNumbers(3, 3, 3, 3)
        n1 = normalization_constant(qn, dimensionless, nodes64)
        n2 = normalization_constant(qn, dimensionless, nodes64.doubled())
        assert n1 == pytest.approx(n2, rel=1e-9)

    def test_null_state_rejected(self, dimensionless, nodes64):
        with pytest.raises(NormalizationError):
            normalization_constant(QuantumNumbers(2, 2, 3, 3), dimensionless, nodes64)


class TestOrthonormality:
    def test_gram_identity(self, nodes128):
        indices, gram = gram_matrix(nodes128)
        assert indices == LIVE
        assert np.max(np.abs(gram - np.eye(len(indices)))) < 1e-8

    def test_selected_overlaps(self, dimensionless, nodes64):
        from rmsphase.oscillator import live_entry
        gram = gram_matrix(nodes64)[1]
        assert abs(live_entry(gram, 1, 1) - 1.0) < 1e-10
        assert abs(live_entry(gram, 1, 5)) < 1e-10   # theta orthogonality
        assert abs(live_entry(gram, 1, 2)) < 1e-12   # phi selection
        assert live_entry(gram, 3, 1) == 0.0          # null state

    def test_normalized_eval_consistent(self, dimensionless, nodes64):
        qn = QuantumNumbers(2, 2, 2, 2)
        p = RmsPoint(0.9, 1.1, 0.7, -0.4)
        expected = (normalization_constant(qn, dimensionless, nodes64)
                    * eval_unnormalized(qn, p, dimensionless))
        assert eval_state(qn, p, dimensionless, nodes64) == expected
