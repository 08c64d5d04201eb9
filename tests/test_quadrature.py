"""Quadrature rules: exactness, convergence, and error handling."""

import math

import numpy as np
import pytest
from scipy.special import roots_genlaguerre

from rmsphase import gauss_legendre, integrate, polar_rule, radial_rule, rapidity_rule
from rmsphase.errors import EvaluationError, ParameterError
from rmsphase.quadrature import chebyshev_u, doubling_gap

SQRT3 = math.sqrt(3.0)


class TestGaussLegendre:
    def test_two_point_rule(self):
        rule = gauss_legendre(2, -1.0, 1.0)
        assert rule.nodes == pytest.approx([-1 / SQRT3, 1 / SQRT3], rel=1e-15)
        assert rule.weights == pytest.approx([1.0, 1.0], rel=1e-15)

    def test_degree_two_exactness(self):
        rule = gauss_legendre(2, -1.0, 1.0)
        assert integrate(rule, lambda x: x * x).real == pytest.approx(2 / 3, rel=1e-15)

    def test_polynomial_exactness_up_to_2n_minus_1(self, rng):
        n = 12
        rule = gauss_legendre(n, -1.0, 1.0)
        coeffs = rng.uniform(-1, 1, size=2 * n)      # degree 2n-1
        exact = sum(c * ((1 - (-1) ** (k + 1)) / (k + 1))
                    for k, c in enumerate(coeffs))
        got = integrate(rule, lambda x: np.polyval(coeffs[::-1], x)).real
        assert abs(got - exact) < 1e-13 * max(1.0, abs(exact))

    def test_fractional_cosine_integral(self):
        # antiderivative phi/2 + (3/8) sin(4phi/3) over [0, 2pi]
        rule = gauss_legendre(64, 0.0, 2.0 * math.pi)
        expected = math.pi + 3.0 * SQRT3 / 16.0
        got = integrate(rule, lambda p: np.cos(2 * p / 3) ** 2).real
        assert got == pytest.approx(expected, abs=1e-12)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            gauss_legendre(1, 0.0, 1.0)
        with pytest.raises(ParameterError):
            gauss_legendre(4, 1.0, 1.0)

    def test_weights_positive_nodes_increasing(self):
        for n in (2, 17, 128):
            rule = gauss_legendre(n, -2.0, 5.0)
            assert np.all(rule.weights > 0)
            assert np.all(np.diff(rule.nodes) > 0)


class TestChebyshevU:
    def test_exact_on_sqrt_weight(self):
        rule = chebyshev_u(16)
        got = integrate(rule, lambda x: np.sqrt(1 - x * x) * x ** 4).real
        assert got == pytest.approx(math.pi / 16.0, rel=1e-14)


class TestRadialRule:
    def test_plain_exponential(self):
        # int_0^inf e^{-s} ds = 1 written in rho with s = rho^2
        rule = radial_rule(32, scale=1.0, alpha=0.0)
        got = integrate(rule, lambda r: 2.0 * r * np.exp(-r * r)).real
        assert got == pytest.approx(1.0, rel=1e-13)

    def test_cubed_moment(self):
        # int_0^inf s^3 e^{-s} ds = 6
        rule = radial_rule(32, scale=1.0, alpha=0.0)
        got = integrate(rule, lambda r: 2.0 * r * r ** 6 * np.exp(-r * r)).real
        assert got == pytest.approx(6.0, rel=1e-13)

    def test_half_integer_moment_with_matched_alpha(self):
        # int s^{7/2} e^{-s} ds = Gamma(9/2)
        rule = radial_rule(32, scale=1.0, alpha=0.5)
        got = integrate(rule, lambda r: 2.0 * r * (r * r) ** 3.5 * np.exp(-r * r)).real
        assert got == pytest.approx(math.gamma(4.5), rel=1e-13)

    def test_physical_scale(self):
        # int rho^3 e^{-lam rho^2} d rho = 1/(2 lam^2)
        lam = 3.7e4
        rule = radial_rule(48, scale=lam, alpha=0.5)
        got = integrate(rule, lambda r: r ** 3 * np.exp(-lam * r * r)).real
        assert got == pytest.approx(0.5 / lam ** 2, rel=1e-12)

    def test_norm_integrand_doubling(self):
        # radial norm integrand of the (n_a=2, l=2) profile
        from rmsphase.oscillator import QuantumNumbers, radial_profile
        f = radial_profile(QuantumNumbers(2, 2, 2, 2))
        gap = doubling_gap(lambda k: radial_rule(128 * k, 1.0, 0.5),
                           lambda r: f(r) ** 2 * r ** 3)
        assert gap < 1e-10

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("n", [32, 128, 256])
    def test_matches_scipy_laguerre(self, n, alpha):
        # scipy's far-tail weights underflow; compare where they stay accurate
        s_ref, w_ref = roots_genlaguerre(n, alpha)
        keep = s_ref <= 650.0
        s_ref, w_ref = s_ref[keep], w_ref[keep]
        plain_ref = w_ref * np.exp(s_ref) * s_ref ** -alpha / (2.0 * np.sqrt(s_ref))
        rule = radial_rule(n, 1.0, alpha)
        np.testing.assert_allclose(rule.nodes[keep], np.sqrt(s_ref), rtol=1e-11)
        np.testing.assert_allclose(rule.weights[keep], plain_ref, rtol=1e-11)

    @pytest.mark.parametrize("alpha, power, exact", [
        (0.0, 3.0, 6.0),
        (0.5, 3.5, math.gamma(4.5)),
    ])
    def test_moments_at_1024_nodes(self, alpha, power, exact):
        # int s^power e^{-s} ds with every one of the 1024 nodes kept
        rule = radial_rule(1024, 1.0, alpha)
        got = integrate(rule, lambda r: 2.0 * r * (r * r) ** power * np.exp(-r * r)).real
        assert got == pytest.approx(exact, rel=1e-13)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            radial_rule(1, 1.0)
        with pytest.raises(ParameterError):
            radial_rule(16, -1.0)


class TestRapidityRule:
    def test_sech_powers(self):
        rule = rapidity_rule(24)
        got2 = integrate(rule, lambda b: np.cosh(b) ** -2.0).real
        got4 = integrate(rule, lambda b: np.cosh(b) ** -4.0).real
        assert got2 == pytest.approx(2.0, rel=1e-14)
        assert got4 == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_odd_sech_power_with_chebyshev_weight(self):
        # int sech^3 = pi/2; the leftover sqrt(1-u^2) needs the U family
        rule = rapidity_rule(24, weight="chebyshev-u")
        got = integrate(rule, lambda b: np.cosh(b) ** -3.0).real
        assert got == pytest.approx(math.pi / 2.0, rel=1e-14)

    def test_coupling_integrand_doubling(self):
        from rmsphase.oscillator import QuantumNumbers, rapidity_profile
        f = rapidity_profile(QuantumNumbers(2, 2, 2, 2))
        g = rapidity_profile(QuantumNumbers(2, 2, 2, 3))
        gap = doubling_gap(lambda k: rapidity_rule(128 * k),
                           lambda b: f(b) * g(b) * np.cosh(b) ** 3)
        assert gap < 1e-9


class TestPolarRule:
    def test_sine_powers(self):
        # odd powers reduce to polynomials in cos(theta), even powers leave
        # a sqrt(1-c^2) behind and need the U family
        rule = polar_rule(24)
        got3 = integrate(rule, lambda t: np.sin(t) ** 3).real
        assert got3 == pytest.approx(4.0 / 3.0, rel=1e-13)
        rule_u = polar_rule(24, weight="chebyshev-u")
        got4 = integrate(rule_u, lambda t: np.sin(t) ** 4).real
        assert got4 == pytest.approx(3.0 * math.pi / 8.0, rel=1e-13)


class TestIntegrate:
    def test_constant(self):
        rule = gauss_legendre(8, 0.0, 1.0)
        assert integrate(rule, lambda x: np.ones_like(x)).real == pytest.approx(1.0, rel=1e-15)

    def test_full_period_phase(self):
        rule = gauss_legendre(32, 0.0, 2.0 * math.pi)
        assert abs(integrate(rule, lambda p: np.exp(1j * p))) < 1e-14

    def test_complex_fractional_integrand(self):
        # int e^{i phi} cos(4 phi/3) d phi over [0, 2pi] = 6 sqrt3/7 - 27i/14
        rule = gauss_legendre(64, 0.0, 2.0 * math.pi)
        got = integrate(rule, lambda p: np.exp(1j * p) * np.cos(4 * p / 3))
        assert got == pytest.approx(6 * SQRT3 / 7 - 27j / 14, abs=1e-12)

    def test_scalar_callable(self):
        # a callable not vectorized over the nodes is rejected, not re-run per node
        rule = polar_rule(8)
        for f in (lambda x: 8 / 3, lambda x: np.ones(3), lambda x: x[:, None] ** 2):
            with pytest.raises(EvaluationError, match="on polar axis"):
                integrate(rule, f)

    def test_non_finite_integrand_reports_node(self):
        rule = gauss_legendre(8, 0.0, 1.0)

        def bad(x):
            with np.errstate(divide="ignore"):
                return np.asarray(1.0 / (x - rule.nodes[3]))

        with pytest.raises(EvaluationError) as err:
            integrate(rule, bad)
        assert err.value.node_index == 3


def test_doubling_gap_evaluates_each_rule_once():
    calls = []

    def f(x):
        calls.append(np.size(x))
        return np.cos(x)

    gap = doubling_gap(lambda k: gauss_legendre(16 * k, 0.0, 1.0), f)
    assert gap < 1e-15
    assert calls == [16, 32]


def test_rule_immutable():
    rule = gauss_legendre(8, 0.0, 1.0)
    with pytest.raises(ValueError):
        rule.nodes[0] = 99.0


@pytest.mark.parametrize("make", [
    lambda: gauss_legendre(128, -1.0, 1.0),
    lambda: chebyshev_u(128),
    lambda: polar_rule(128, "chebyshev-u"),
    lambda: rapidity_rule(256),
    lambda: radial_rule(256, 1.0, 0.5),
    lambda: radial_rule(364, 1.0, 0.5),
    lambda: radial_rule(1024, 1.0, 0.0),
    lambda: gauss_legendre(1024, -1.0, 1.0),
])
def test_all_families_positive_and_increasing(make):
    rule = make()
    assert np.all(rule.weights > 0)
    assert np.all(np.isfinite(rule.weights))
    assert np.all(np.diff(rule.nodes) > 0)
