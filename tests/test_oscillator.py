"""Geometry, catalogue, and eigenbasis checks.

The ``norms`` row of the overlap tables is checked against the closed-form
orthogonality integrals of the three axis families; the defining property
is also verified end to end with scipy's adaptive quadrature, independent
of the package rules.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate as sci

from rmsphase import (
    Channel,
    NodeCounts,
    PhysicalConstants,
    QuantumNumbers,
    berry_phase_closed,
    correction_coefficients,
    embed,
    gram_matrix,
    live_indices,
    matrix_element,
    state_table,
)
from rmsphase.errors import ParameterError
from rmsphase.oscillator import (
    AXES,
    get_state,
    overlap_tables,
    polar_profiles,
    radial_profiles,
    rapidity_profiles,
)

LIVE = (1, 2, 5, 6, 8, 9, 10, 13, 14, 16)


def axes_measure(rho: float, theta: float, phi: float, beta: float) -> float:
    """Product of the ``AXES`` weights at power 0: the measure every build integrates."""
    coordinate = {"radial": rho, "polar": theta, "rapidity": beta}
    return math.prod(float(axis.weight(coordinate[axis.field], 0)) for axis in AXES)


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
        assert embed(1.0, math.pi / 2, 0.0, 0.0) == pytest.approx([0, 1, 0, 0], abs=1e-15)
        near_pole = embed(2.0, 1e-9, 1.3, 0.7)
        assert near_pole == pytest.approx([0, 0, 0, 2], abs=1e-8)

    def test_invariant_interval(self, rng):
        for _ in range(1000):
            coords = (float(rng.uniform(0.1, 5)), float(rng.uniform(0.01, math.pi - 0.01)),
                      float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(-3, 3)))
            t, x, y, z = embed(*coords)
            rho = coords[0]
            assert -t * t + x * x + y * y + z * z == pytest.approx(rho ** 2, abs=1e-12 * rho ** 2)

    def test_measure_trivials(self):
        assert axes_measure(1.0, math.pi / 2, 0.3, 0.0) == pytest.approx(1.0, rel=1e-15)
        assert axes_measure(2.0, 1e-12, 0.0, 1.0) == pytest.approx(0.0, abs=1e-20)

    def test_measure_matches_finite_difference_jacobian(self, rng):
        for _ in range(100):
            coords = [float(rng.uniform(0.3, 3)), float(rng.uniform(0.2, math.pi - 0.2)),
                      float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(-2, 2))]
            h = 1e-5
            jac = np.empty((4, 4))
            for k in range(4):
                up, dn = list(coords), list(coords)
                up[k] += h
                dn[k] -= h
                jac[:, k] = (embed(*up) - embed(*dn)) / (2 * h)
            fd = abs(np.linalg.det(jac))
            assert fd == pytest.approx(axes_measure(*coords), rel=1e-8)

    def test_point_validation(self):
        with pytest.raises(ParameterError):
            embed(0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ParameterError):
            embed(1.0, 4.0, 0.0, 0.0)
        # each once returned a vector holding nan
        for point in [(1.0, 1.0, math.nan, 0.0), (1.0, 1.0, 0.0, math.inf),
                      (math.inf, 1.0, 0.0, 0.0)]:
            with pytest.raises(ParameterError, match="coordinates must be finite"):
                embed(*point)
        # a finite point whose four-vector is not: cosh overflows, or rho cosh(beta) does
        for point in [(1.0, 1.0, 0.0, 1000.0), (1e300, 1.0, 0.0, 700.0)]:
            with pytest.raises(ParameterError, match="overflows"):
                embed(*point)


class TestCatalogue:
    def test_eigenvalues_exact(self):
        # lexicographic (n_a, l, n, m) order puts each energy level in four consecutive rows
        levels = [Fraction(15, 2), Fraction(17, 2), Fraction(19, 2), Fraction(21, 2)]
        assert [qn.reduced_energy for qn in state_table()] == [e for e in levels for _ in range(4)]

    def test_specific_rows(self):
        table = state_table()
        assert table[0] == QuantumNumbers(2, 2, 2, 2)
        assert table[0].reduced_energy == Fraction(15, 2)
        assert table[7] == QuantumNumbers(2, 3, 3, 3)
        assert table[7].reduced_energy == Fraction(17, 2)
        assert table[11] == QuantumNumbers(3, 2, 3, 3)
        assert table[11].vanishing_polar

    def test_null_classification(self):
        catalogue = list(enumerate(state_table(), start=1))
        assert [j for j, qn in catalogue if qn.vanishing_polar] == [3, 4, 11, 12]
        assert [j for j, qn in catalogue if qn.vanishing_rapidity] == [3, 7, 11, 15]
        assert live_indices() == LIVE

    # a float index in range once reached the catalogue tuple and raised a
    # bare TypeError; a bool once passed as the index 1
    @pytest.mark.parametrize("call", [
        lambda: matrix_element(1.0, 5, Channel.COSINE),
        lambda: correction_coefficients(1.0),
        lambda: berry_phase_closed(5.0, PhysicalConstants.dimensionless()),
        lambda: get_state(True),
        lambda: correction_coefficients(True),
    ], ids=["matrix_element", "correction_coefficients", "berry_phase_closed", "get_state-bool",
            "correction_coefficients-bool"])
    def test_non_integer_state_index_is_parameter_error(self, call):
        with pytest.raises(ParameterError,
                           match="state index must be an integer, got ([15]\\.0|True)$"):
            call()

    def test_numpy_integer_state_index_passes(self):
        assert get_state(np.int64(8)) == state_table()[7]

    # a half-integer once gave a half-integer reduced energy, and a nan passed the sign check
    @pytest.mark.parametrize("field", ["n_a", "l", "n", "m"])
    @pytest.mark.parametrize("value", [2.5, 2.0, math.nan, "2", True])
    def test_non_integer_quantum_number_is_parameter_error(self, field, value):
        numbers = {"n_a": 2, "l": 2, "n": 2, "m": 2, field: value}
        with pytest.raises(ParameterError, match=f"{field} must be an integer, got "):
            QuantumNumbers(**numbers)

    def test_numpy_integer_quantum_numbers_pass(self):
        qn = QuantumNumbers(np.int64(2), 3, np.int32(2), 2)
        assert qn == state_table()[4] and qn.reduced_energy == Fraction(17, 2)


class TestNodeCounts:
    # a float count once reached the rule constructors (the radial one
    # failed to converge, the others raised numpy's TypeError) and a string
    # failed its range comparison; a bool was refused as the count 1
    @pytest.mark.parametrize("field, value", [("radial", 16.5), ("polar", 16.5),
                                              ("azimuthal", 16.5), ("radial", "32"),
                                              ("rapidity", True)])
    def test_non_integer_count_is_parameter_error(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} node count must be an integer"):
            overlap_tables(NodeCounts(**{field: value}))

    def test_numpy_integer_counts_build(self):
        nodes = NodeCounts(np.int64(16), np.int64(32), np.int32(16), np.int64(24))
        assert overlap_tables(nodes).gram.shape == (len(LIVE), len(LIVE))


class TestConstants:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), 1e-200, 1e200])
    def test_non_finite_or_non_positive_rejected(self, bad):
        # as mass or omega, 1e-200 and 1e200 put M omega^2 or 1/(M omega^2)^2 at 0 or inf
        for args in [(bad, 1.0), (1.0, bad)]:
            with pytest.raises(ParameterError, match="finite and positive"):
                PhysicalConstants(*args)

    # True once built as 1.0, and a string raised a bare TypeError from the range test
    @pytest.mark.parametrize("args, name", [((True, 1.0), "mass"), ((1.0, np.True_), "omega"),
                                            (("1", 1.0), "mass")])
    def test_bool_or_string_scale_is_parameter_error(self, args, name):
        with pytest.raises(ParameterError, match=f"{name} must be a number, got"):
            PhysicalConstants(*args)

    def test_bool_frequency_is_parameter_error(self):
        # True once gave omega 1e6 rad/s
        with pytest.raises(ParameterError, match="frequency must be a number, got True"):
            PhysicalConstants.from_frequency(True)

    def test_numpy_and_integer_scales_build(self):
        assert PhysicalConstants(np.float64(2.0), 3).coupling_scale == 18.0
        assert PhysicalConstants.from_frequency(np.float64(1.0)).omega == 1e6

    def test_numpy_scales_are_float_arithmetic(self):
        # an int64 omega once squared in wrapping int64 arithmetic, to 7.8e18
        assert PhysicalConstants(1.0, np.int64(10 ** 10)).coupling_scale == 1e20
        # and a numpy scale overflowed with a RuntimeWarning, not the refusal
        with pytest.raises(ParameterError, match="finite and positive"):
            PhysicalConstants(1e300, np.int64(5))


class TestEvaluation:
    def test_legendre_columns_are_the_two_seeds(self):
        # specfun evaluates P_m^m and P_{m+1}^m only, so a catalogue whose
        # live states need a recurrence step past them fails here, not in a table
        axis = {axis.field: axis for axis in AXES}
        for pairs in ([(qn.l, qn.n) for qn in axis["polar"].layout[0]],
                      [(qn.m, -qn.n) for qn in axis["rapidity"].layout[0]]):
            assert pairs
            assert all(0 <= degree - abs(order) <= 1 for degree, order in pairs), pairs

    def test_rapidity_decay(self):
        beta_far = math.atanh(1.0 - 1e-6)
        qns = [state_table()[i - 1] for i in LIVE]
        far, near = np.abs(rapidity_profiles(qns)(np.array([beta_far, 0.1]))).T
        assert np.all(far < 1e-6 * near)

    @pytest.mark.parametrize("rho", [1e80, 1e200, math.inf])
    def test_far_radial_tail_is_exactly_zero(self, rho):
        # e^{-rho^2/2} underflows long before L_{n_a}(rho^2) overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = radial_profiles([QuantumNumbers(2, 2, 2, 2)])(rho)[0]
        assert value == 0.0


class TestNormalization:
    def test_against_closed_form(self, nodes128):
        norms = overlap_tables(nodes128).norms
        for row, i in enumerate(LIVE):
            qn = state_table()[i - 1]
            assert norms[row] == pytest.approx(closed_form_norm(qn), rel=1e-12)

    def test_defining_property_independent_quadrature(self):
        # || N psi ||^2 = 1 with scipy adaptive quadrature, in units of sqrt(hbar/(M omega))
        qn = QuantumNumbers(2, 2, 2, 2)
        n_const = overlap_tables().norms[0]
        f_rho, f_theta, f_beta = (profiles([qn]) for profiles in
                                  (radial_profiles, polar_profiles, rapidity_profiles))
        # the Gaussian factor kills the integrand beyond ~6 length scales;
        # force a relative stopping rule (epsabs=0)
        i_rho = sci.quad(lambda r: f_rho(r)[0] ** 2 * r ** 3, 0, 40.0,
                         points=[1.0], epsrel=1e-12, epsabs=0.0)[0]
        i_theta = sci.quad(lambda t: f_theta(t)[0] ** 2 * math.sin(t) ** 2, 0, math.pi)[0]
        # integrand decays like sech^3(beta); [-40, 40] is already dead
        i_beta = sci.quad(lambda b: f_beta(b)[0] ** 2 * math.cosh(b), -40.0, 40.0)[0]
        norm_sq = n_const ** 2 * 2.0 * math.pi * i_rho * i_theta * i_beta
        assert norm_sq == pytest.approx(1.0, rel=1e-9)

    def test_phi_resolution_insensitive(self):
        coarse = overlap_tables(NodeCounts(64, 64, 8, 64)).norms
        fine = overlap_tables(NodeCounts(64, 64, 128, 64)).norms
        assert coarse == pytest.approx(fine, rel=1e-14)

    def test_doubling_stability(self, nodes64):
        n1 = overlap_tables(nodes64).norms
        n2 = overlap_tables(NodeCounts.uniform(128)).norms
        assert n1 == pytest.approx(n2, rel=1e-9)


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
