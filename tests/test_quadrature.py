"""Quadrature rules: exactness, convergence, and error handling."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import roots_genlaguerre

from rmsphase import quadrature as quad
from rmsphase.errors import EvaluationError
from rmsphase.quadrature import (
    QuadratureRule,
    _laguerre,
    check_finite,
    integrate,
    periodic_trapezoid,
    polar_rule,
    radial_rule,
    rapidity_rule,
)

SQRT3 = math.sqrt(3.0)


def gauss_legendre(n, a, b):
    """Reference Gauss-Legendre rule on [a, b] for the generic tests, from numpy's leggauss."""
    x, w = leggauss(n)
    half = 0.5 * (b - a)
    return QuadratureRule(a + half * (x + 1.0), half * w)


def laguerre(n, alpha):
    """The n-node radial rule of exponent alpha: 1/2 is the even one, 0 the odd."""
    return radial_rule(n)[{0.5: 0, 0.0: 1}[alpha]]


class TestGaussLegendre:
    """The reference rule above, built through QuadratureRule and applied by integrate."""

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

    def test_weights_positive_nodes_increasing(self):
        for n in (2, 17, 128):
            rule = gauss_legendre(n, -2.0, 5.0)
            assert np.all(rule.weights > 0)
            assert np.all(np.diff(rule.nodes) > 0)


class TestChebyshevU:
    """The odd rule of the polar and rapidity pairs: Chebyshev-U, Gauss for sqrt(1-x^2)."""

    def test_exact_on_sqrt_weight(self):
        # int sin^2 cos^4 d(theta) over [0, pi] is int sqrt(1-c^2) c^4 dc over (-1, 1)
        rule = polar_rule(16)[1]
        got = integrate(rule, lambda t: np.sin(t) ** 2 * np.cos(t) ** 4).real
        assert got == pytest.approx(math.pi / 16.0, rel=1e-14)


class TestFejerSecondRule:
    """The even rule of the polar and rapidity pairs: Fejer's second rule."""

    # int_{-1}^{1} p(x) dx written on each axis: x = cos(theta) and x = tanh(beta)
    AXES = {
        "polar": (polar_rule, lambda p: lambda t: np.polyval(p, np.cos(t)) * np.sin(t)),
        "rapidity": (rapidity_rule, lambda p: lambda b: np.polyval(p, np.tanh(b))
                     / np.cosh(b) ** 2),
    }

    @staticmethod
    def exact(p):
        """int_{-1}^{1} of the polynomial with np.polyval coefficients p."""
        return sum(c * 2.0 / (k + 1) for k, c in enumerate(p[::-1]) if k % 2 == 0)

    @pytest.mark.parametrize("axis", ["polar", "rapidity"])
    @pytest.mark.parametrize("n", [2, 5, 8, 9, 24])
    def test_exact_to_degree_n_minus_1(self, rng, axis, n):
        make, integrand = self.AXES[axis]
        p = rng.uniform(-1, 1, size=n)          # degree n-1
        got = integrate(make(n)[0], integrand(p)).real
        assert abs(got - self.exact(p)) < 1e-13 * max(1.0, abs(self.exact(p)))

    @pytest.mark.parametrize("axis", ["polar", "rapidity"])
    @pytest.mark.parametrize("n", [4, 8, 24])
    def test_misses_degree_n_plus_1_at_even_n(self, rng, axis, n):
        # an n-point Gauss rule would be exact to degree 2n-1
        make, integrand = self.AXES[axis]
        rule = make(n)[0]
        for p in (np.eye(n + 1)[0], rng.uniform(0.5, 1, size=n + 2)):   # x^n, degree n+1
            got = integrate(rule, integrand(p)).real
            assert abs(got - self.exact(p)) > 1e-9        # roundoff is ~1e-16

    @pytest.mark.parametrize("make", [polar_rule, rapidity_rule])
    def test_parity_rules_share_nodes(self, make):
        for n in (2, 9, 128):
            even, odd = make(n)
            assert even.nodes is odd.nodes
            assert np.array_equal(even.nodes, odd.nodes)
            assert not np.array_equal(even.weights, odd.weights)


class TestPeriodicTrapezoid:
    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_exact_for_fourier_modes_below_n(self, n):
        rule = periodic_trapezoid(n)
        for d in range(1 - n, n):
            got = integrate(rule, lambda p: np.exp(1j * d * p))
            assert abs(got - (2.0 * math.pi if d == 0 else 0.0)) < 1e-13

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_mode_n_aliases_to_the_mean(self, n):
        rule = periodic_trapezoid(n)
        got = integrate(rule, lambda p: np.exp(1j * n * p))
        assert got == pytest.approx(2.0 * math.pi, abs=1e-12)


class TestRadialRule:
    def test_plain_exponential(self):
        # int_0^inf e^{-s} ds = 1 written in rho with s = rho^2
        rule = radial_rule(32)[1]
        got = integrate(rule, lambda r: 2.0 * r * np.exp(-r * r)).real
        assert got == pytest.approx(1.0, rel=1e-13)

    def test_cubed_moment(self):
        # int_0^inf s^3 e^{-s} ds = 6
        rule = radial_rule(32)[1]
        got = integrate(rule, lambda r: 2.0 * r * r ** 6 * np.exp(-r * r)).real
        assert got == pytest.approx(6.0, rel=1e-13)

    def test_half_integer_moment_with_matched_alpha(self):
        # int s^{7/2} e^{-s} ds = Gamma(9/2)
        rule = radial_rule(32)[0]
        got = integrate(rule, lambda r: 2.0 * r * (r * r) ** 3.5 * np.exp(-r * r)).real
        assert got == pytest.approx(math.gamma(4.5), rel=1e-13)

    def test_norm_integrand_doubling(self):
        # radial norm integrand of the (n_a=2, l=2) profile
        from rmsphase.oscillator import QuantumNumbers, radial_profiles
        f = radial_profiles([QuantumNumbers(2, 2, 2, 2)])
        coarse, fine = (integrate(radial_rule(n)[0], lambda r: f(r)[0] ** 2 * r ** 3)
                        for n in (128, 256))
        assert abs(fine - coarse) < 1e-10 * abs(fine)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("n", [32, 128, 256])
    def test_matches_scipy_laguerre(self, n, alpha):
        # scipy's far-tail weights underflow; compare where they stay accurate
        s_ref, w_ref = roots_genlaguerre(n, alpha)
        keep = s_ref <= 650.0
        s_ref, w_ref = s_ref[keep], w_ref[keep]
        plain_ref = w_ref * np.exp(s_ref) * s_ref ** -alpha / (2.0 * np.sqrt(s_ref))
        rule = laguerre(n, alpha)
        np.testing.assert_allclose(rule.nodes[keep], np.sqrt(s_ref), rtol=1e-11)
        np.testing.assert_allclose(rule.weights[keep], plain_ref, rtol=1e-11)

    @pytest.mark.parametrize("alpha, power, exact", [
        (0.0, 3.0, 6.0),
        (0.5, 3.5, math.gamma(4.5)),
    ])
    def test_moments_at_1024_nodes(self, alpha, power, exact):
        # int s^power e^{-s} ds with every one of the 1024 nodes kept
        rule = laguerre(1024, alpha)
        got = integrate(rule, lambda r: 2.0 * r * (r * r) ** power * np.exp(-r * r)).real
        assert got == pytest.approx(exact, rel=1e-13)

    # 364 and 1024 nodes rescale the weight sums past 1e100; 2 and 37 do not
    @pytest.mark.parametrize("n", [2, 37, 364, 1024])
    def test_stacked_solve_matches_each_row_alone(self, n):
        alpha = np.array([[0.5], [0.0]])
        nodes, log_w = _laguerre(n, alpha)
        for row in range(2):
            (alone_nodes,), (alone_log_w,) = _laguerre(n, alpha[row:row + 1])
            assert np.array_equal(nodes[row], alone_nodes)
            assert np.array_equal(log_w[row], alone_log_w)

    def test_pair_has_two_node_sets(self):
        even, odd = radial_rule(40)
        assert even.nodes is not odd.nodes
        assert not np.array_equal(even.nodes, odd.nodes)


def _christoffel_log_weights(x, diag, off, log_mu0):
    """log(mu0 / sum_k p_k(x)^2), summed one step at a time, rescaled past 1e200."""
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    total, log_scale = np.ones_like(x), np.zeros_like(x)
    for a, b, b_prev in zip(diag, off, (0.0, *off)):
        p_prev, p = p, ((x - a) * p - b_prev * p_prev) / b
        total += p * p
        if total.max() > 1e200:
            c = np.where(total > 1e200, np.sqrt(total), 1.0)
            p, p_prev, total = p / c, p_prev / c, total / (c * c)
            log_scale += np.log(c)
    return log_mu0 - np.log(total) - 2.0 * log_scale


def dense_laguerre(n, alpha):
    """Plain-form radial rule by Golub-Welsch: a tridiagonal eigensolver and the weight sum."""
    k = np.arange(float(n))
    diag, off = 2.0 * k + 1.0 + alpha, np.sqrt(k[1:] * (k[1:] + alpha))
    s = eigvalsh_tridiagonal(diag, off)
    log_w = _christoffel_log_weights(s, diag, off, math.lgamma(alpha + 1.0))
    rho = np.sqrt(s)
    return rho, np.exp(log_w + s - alpha * np.log(s) - np.log(2.0 * rho))


class TestDenseReference:
    """The recurrence-solved rules against a dense Golub-Welsch solve of the same recurrence."""

    @staticmethod
    def worst_gaps(counts):
        worst_nodes = worst_weights = 0.0
        for n in counts:
            for rule, alpha in zip(radial_rule(n), (0.5, 0.0)):
                nodes, weights = dense_laguerre(n, alpha)
                worst_nodes = max(worst_nodes, np.max(np.abs(rule.nodes / nodes - 1.0)))
                worst_weights = max(worst_weights, np.max(np.abs(rule.weights / weights - 1.0)))
        return worst_nodes, worst_weights

    def test_radial_rules_to_256_nodes(self):
        worst_nodes, worst_weights = self.worst_gaps(range(2, 257))
        assert worst_nodes < 2e-12 and worst_weights < 3e-12

    def test_radial_rules_to_1024_nodes(self):
        worst_nodes, worst_weights = self.worst_gaps([*range(257, 1024, 37), 1024])
        assert worst_nodes < 3e-11 and worst_weights < 5e-11


UNREFINED = {
    # an order-1 Taylor solve, a plain Newton step from the initial nodes,
    # leaves a Newton correction of 8e-4 of a node gap
    "newton": ("TAYLOR_ORDER", 1),
    # no refinement leaves the initial nodes, a few % of a gap off
    "none": ("_taylor_root", lambda x, step, ode: np.zeros_like(x)),
}


@pytest.mark.parametrize("fault", UNREFINED)
@pytest.mark.parametrize("make", [lambda: radial_rule(64)], ids=["radial"])
def test_unconverged_nodes_raise(monkeypatch, make, fault):
    monkeypatch.setattr(quad, *UNREFINED[fault])
    with pytest.raises(EvaluationError, match=r"Taylor solve on radial axis"):
        make()


@pytest.mark.parametrize("make", [radial_rule], ids=["radial"])
def test_taylor_solve_leaves_roundoff(monkeypatch, make):
    # the Newton correction left after the Taylor solve is at most ~4e-12 of a
    # node gap; a bound 1e4 times below the check's still holds
    monkeypatch.setattr(quad, "NEWTON_BOUND", 1e-10)
    for n in [*range(2, 257), *range(257, 1024, 37), 1024]:
        make(n)


class TestRapidityRule:
    def test_sech_powers(self):
        rule = rapidity_rule(24)[0]
        got2 = integrate(rule, lambda b: np.cosh(b) ** -2.0).real
        got4 = integrate(rule, lambda b: np.cosh(b) ** -4.0).real
        assert got2 == pytest.approx(2.0, rel=1e-14)
        assert got4 == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_odd_sech_power_with_chebyshev_weight(self):
        # int sech^3 = pi/2; the leftover sqrt(1-u^2) needs the U family
        rule = rapidity_rule(24)[1]
        got = integrate(rule, lambda b: np.cosh(b) ** -3.0).real
        assert got == pytest.approx(math.pi / 2.0, rel=1e-14)

    def test_coupling_integrand_doubling(self):
        from rmsphase.oscillator import QuantumNumbers, rapidity_profiles
        f = rapidity_profiles([QuantumNumbers(2, 2, 2, 2), QuantumNumbers(2, 2, 2, 3)])

        def h(b):
            f1, f2 = f(b)
            return f1 * f2 * np.cosh(b) ** 3

        coarse, fine = (integrate(rapidity_rule(n)[0], h) for n in (128, 256))
        # the integral vanishes by parity, so measure the gap against its L1 mass
        mass = integrate(rapidity_rule(256)[0], lambda b: np.abs(h(b))).real
        assert abs(fine - coarse) < 1e-9 * mass


class TestPolarRule:
    def test_sine_powers(self):
        # odd powers reduce to polynomials in cos(theta), even powers leave
        # a sqrt(1-c^2) behind and need the U family
        rule = polar_rule(24)[0]
        got3 = integrate(rule, lambda t: np.sin(t) ** 3).real
        assert got3 == pytest.approx(4.0 / 3.0, rel=1e-13)
        rule_u = polar_rule(24)[1]
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

    def test_non_finite_integrand_reports_node(self):
        # the check that the profiles of a build pass through
        rule = gauss_legendre(8, 0.0, 1.0)
        with np.errstate(divide="ignore"):
            values = 1.0 / (rule.nodes - rule.nodes[3])
        with pytest.raises(EvaluationError) as err:
            check_finite(values, rule.nodes, "polar")
        # the message is all the error carries
        assert err.value.args == (
            f"profile not finite at node 3 (x={float(rule.nodes[3])!r}) on polar axis",)


def test_rule_immutable():
    # the rules the package builds hold read-only arrays
    for rule in (polar_rule(8)[0], periodic_trapezoid(8)):
        for array in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                array[0] = 99.0


@pytest.mark.parametrize("make", [
    lambda: radial_rule(128)[1],
    lambda: polar_rule(64)[1],
    lambda: polar_rule(128)[1],
    lambda: rapidity_rule(256)[0],
    lambda: radial_rule(256)[0],
    lambda: radial_rule(364)[0],
    lambda: radial_rule(1024)[1],
    lambda: polar_rule(1024)[1],
    lambda: polar_rule(2048)[0],
    lambda: rapidity_rule(2048)[0],
    lambda: periodic_trapezoid(2048),
])
def test_all_families_positive_and_increasing(make):
    rule = make()
    assert np.all(rule.weights > 0)
    assert np.all(np.isfinite(rule.weights))
    assert np.all(np.diff(rule.nodes) > 0)
