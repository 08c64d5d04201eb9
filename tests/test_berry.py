"""Loop-phase machinery: closed form against both loop oracles.

For this coupling pair the cross sums sum_i conj(a_i) b_i are exactly real
(the two channel phi-integrals are negatives of each other whenever
delta m != 0), so the physical phases all vanish; the loop machinery is
therefore also exercised on synthetic coefficient sets with genuinely
nonzero imaginary structure.
"""

import math
import tracemalloc
from functools import reduce
from operator import add

import numpy as np
import pytest

from rmsphase import (
    LoopParams,
    NodeCounts,
    PhysicalConstants,
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
    _OVERLAP_FLOOR,
    _loop_samples,
    _overlap_phases,
    _route_values,
    closed_form_phase,
    connection_loop_integral,
    overlap_loop_phase,
)
from rmsphase.errors import EvaluationError, ParameterError
from rmsphase import perturbation as pert
from rmsphase.perturbation import CorrectionCoefficients

from loop_reference import loop_alphas, loop_vectors, overlap_product_phase, with_basis_phases

NULL_STATES = (3, 4, 7, 11, 12, 15)
LIVE = live_indices()
# the Euclidean metric over the live states
IDENTITY = np.eye(len(LIVE))


@pytest.fixture(scope="module")
def synthetic():
    """Hand-made coefficients with Im sum conj(a) b = 0.295."""
    return CorrectionCoefficients(
        state_index=1,
        a={5: 0.3 + 0.4j, 9: -0.1 + 0.2j},
        b={5: 0.5 - 0.2j, 9: 0.15 + 0.05j},
    )


def connection(coeffs, eps1, eps2):
    """<Psi | grad Psi> at (eps1, eps2), from the set's three stored sums."""
    sum_aa, sum_bb, sum_ab = coeffs.connection_sums
    return eps1 * sum_aa + eps2 * sum_ab.conjugate(), eps1 * sum_ab + eps2 * sum_bb


def overlap_derivatives(coeffs, gram, eps):
    """<Psi | dPsi/d eps_k>, k = 1, 2, at ``eps`` by central differences in
    coefficient space, with ``gram`` as the metric."""
    def vector(e1, e2):
        v = e1 * coeffs.a + e2 * coeffs.b
        v[LIVE.index(coeffs.state_index)] = 1.0
        return v

    h = 1e-6
    base = vector(*eps)
    d1 = (vector(eps[0] + h, eps[1]) - vector(eps[0] - h, eps[1])) / (2 * h)
    d2 = (vector(eps[0], eps[1] + h) - vector(eps[0], eps[1] - h)) / (2 * h)
    return np.conj(base) @ gram @ d1, np.conj(base) @ gram @ d2


class TestConnection:
    def test_vanishes_at_origin(self, nodes64):
        # the corrections are orthogonal to the unperturbed state
        coeffs = correction_coefficients(1, nodes=nodes64)
        for component in overlap_derivatives(coeffs, gram_matrix(nodes64)[1], (0.0, 0.0)):
            assert component == pytest.approx(0.0, abs=1e-10)

    def test_first_component_is_sum_abs2(self, nodes64):
        coeffs = correction_coefficients(1, nodes=nodes64)
        comp1, _ = overlap_derivatives(coeffs, gram_matrix(nodes64)[1], (1e-3, 0.0))
        assert comp1.imag == pytest.approx(0.0, abs=1e-10)
        assert comp1.real == pytest.approx(1e-3 * coeffs.connection_sums[0], rel=1e-8)

    def test_finite_difference_cross_check(self, nodes64):
        # the overlaps of the perturbed state with the quadrature Gram as the
        # metric, against the formula the connection loop evaluates
        coeffs = correction_coefficients(1, nodes=nodes64)
        indices, gram = gram_matrix(nodes64)
        assert indices == LIVE
        eps = (2e-3, -1e-3)
        expected = connection(coeffs, *eps)
        for derivative, component in zip(overlap_derivatives(coeffs, gram, eps), expected):
            assert derivative == pytest.approx(component, abs=1e-7)


class TestSyntheticLoops:
    def test_closed_form_value(self, synthetic):
        expected = -2 * math.pi * sum(
            np.conj(ai) * bi for ai, bi in zip(synthetic.a, synthetic.b)).imag
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
        steps = 7200
        r = 1e-3
        lp = LoopParams(radius=r, steps=steps)
        g_r = overlap_product_phase(
            loop_vectors(synthetic, r, loop_alphas(lp)), IDENTITY) / r ** 2
        g_h = overlap_product_phase(
            loop_vectors(synthetic, r / 2, loop_alphas(lp)), IDENTITY) / (r / 2) ** 2
        richardson = (4 * g_h - g_r) / 3
        assert richardson == pytest.approx(closed, rel=1e-6)

    def test_overlap_discretization_rate(self, synthetic):
        closed = closed_form_phase(synthetic)
        errs = []
        for steps in (720, 1440):
            lp = LoopParams(radius=1e-4, steps=steps)
            vecs = loop_vectors(synthetic, 1e-4, loop_alphas(lp))
            errs.append(abs(overlap_product_phase(vecs, IDENTITY) / 1e-8 - closed))
        assert errs[1] < errs[0] / 3.0      # ~1/steps^2

    def test_overlap_orientation_flip(self, synthetic):
        alphas = loop_alphas(LoopParams(radius=1e-3, steps=720))
        fwd = overlap_product_phase(loop_vectors(synthetic, 1e-3, alphas), IDENTITY)
        back = overlap_product_phase(loop_vectors(synthetic, 1e-3, alphas[::-1]), IDENTITY)
        assert back == pytest.approx(-fwd, rel=1e-12)

    def test_overlap_gauge_invariance(self, synthetic, rng):
        vecs = loop_vectors(synthetic, 1e-3, loop_alphas(LoopParams(radius=1e-3, steps=720)))
        base = overlap_product_phase(vecs, IDENTITY)
        phased = vecs * np.exp(1j * rng.uniform(0, 2 * math.pi, size=(vecs.shape[0], 1)))
        assert overlap_product_phase(phased, IDENTITY) == pytest.approx(base, abs=1e-12)

    def test_weak_overlap_raises(self, rng):
        vectors = rng.normal(size=(8, 6)) + 1j * rng.normal(size=(8, 6))
        with pytest.raises(EvaluationError, match="barely overlap"):
            overlap_product_phase(vectors, np.eye(6))

    def test_weak_overlap_raises_on_the_reduced_route(self, nodes64):
        # a and b are orthogonal under G with norms 1 and 1e-3: at r = 1e4 the
        # sample at 45 degrees is nearly a and the one at 90 degrees nearly
        # e_j + 10 b, whose normalized overlap is ~1e-3
        coeffs = CorrectionCoefficients(1, {5: 1.0, 9: 0.0}, {5: 0.0, 9: 1e-3})
        loop = LoopParams(radius=1e4, steps=8)
        with pytest.raises(EvaluationError, match="barely overlap; increase the step count"):
            overlap_loop_phase(coeffs, gram_matrix(nodes64), loop, 1e4)
        # the same chain over the full basis refuses it too
        gram = gram_matrix(nodes64)[1]
        with pytest.raises(EvaluationError, match="barely overlap; increase the step count"):
            overlap_product_phase(loop_vectors(coeffs, 1e4, loop_alphas(loop)), gram)

    @pytest.mark.parametrize("steps", [8, 720, 1001, 2048])
    def test_radius_batch_is_the_single_radius_calls(self, nodes64, rng, steps):
        gram_data = gram_matrix(nodes64)
        loop = LoopParams(steps=steps)
        coeffs = [random_coefficients(rng) for _ in range(8)]
        coeffs += [correction_coefficients(j, nodes=nodes64) for j in (1, 8, 16)]
        for c in coeffs:
            r = 1e-2 / c.max_magnitude()
            batch = _overlap_phases(c, gram_data, loop, (r, 0.5 * r))
            single = [overlap_loop_phase(c, gram_data, loop, x) for x in (r, 0.5 * r)]
            assert np.array(batch).tobytes() == np.array(single).tobytes()


def reference_connection_loop(coeffs, loop):
    """The connection loop with every sum rebuilt from the coefficient vectors.

    Per-step terms are formed and summed as arrays, in the package's order,
    so the result must equal the package's bit for bit.
    """
    r = loop.radius
    alphas = np.linspace(0.0, 2.0 * math.pi, loop.steps, endpoint=False)
    # left-to-right folds: from Python 3.12 the builtin sum no longer adds
    # floats in row order
    sum_aa = reduce(add, (abs(v) ** 2 for v in coeffs.a), 0.0)
    sum_bb = reduce(add, (abs(v) ** 2 for v in coeffs.b), 0.0)
    sum_ab = reduce(add, (np.conj(ai) * bi for ai, bi in zip(coeffs.a, coeffs.b)), 0j)
    sum_ba = complex(np.conj(sum_ab))
    c, s = np.cos(alphas), np.sin(alphas)
    a1 = r * c * sum_aa + r * s * sum_ba
    a2 = r * c * sum_ab + r * s * sum_bb
    total = complex(np.sum(a1 * (-r * s) + a2 * (r * c)))
    value = 1j * (total * (2.0 * math.pi / loop.steps))
    return value.real / r ** 2, abs(value.imag) / r ** 2, r


def sequential_connection_loop(coeffs, loop):
    """The connection loop one step at a time, on Python floats."""
    r = loop.radius
    total = 0.0 + 0.0j
    for alpha in loop_alphas(loop).tolist():
        c, s = math.cos(alpha), math.sin(alpha)
        a1, a2 = connection(coeffs, r * c, r * s)
        total += a1 * (-r * s) + a2 * (r * c)
    total *= 2.0 * math.pi / loop.steps
    value = 1j * total
    return value.real / r ** 2, abs(value.imag) / r ** 2, r


def random_coefficients(rng):
    members = rng.choice([2, 5, 6, 8, 9, 10, 13, 14, 16], size=rng.integers(1, 10),
                         replace=False).tolist()
    a, b = rng.normal(size=(2, len(members))) + 1j * rng.normal(size=(2, len(members)))
    return CorrectionCoefficients(1, dict(zip(members, a.tolist())),
                                  dict(zip(members, b.tolist())))


class TestStoredSums:
    def test_mappings_are_read_only_copies(self):
        a, b = {5: 0.3 + 0.4j}, {5: 0.5 - 0.2j}
        coeffs = CorrectionCoefficients(1, a, b)
        a[5] = 7.0
        assert coeffs.a[LIVE.index(5)] == 0.3 + 0.4j
        assert coeffs.connection_sums[0] == pytest.approx(0.25, rel=1e-15)
        with pytest.raises(ValueError, match="read-only"):
            coeffs.a[LIVE.index(5)] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            coeffs.b[LIVE.index(9)] = 7.0

    def test_basis_phases_build_new_sums(self, synthetic):
        rotated = with_basis_phases(synthetic, {5: 0.7, 9: -1.1}, 0.3)
        row = LIVE.index(5)
        assert rotated.a[row] == pytest.approx(synthetic.a[row] * np.exp(-0.4j), rel=1e-15)
        assert rotated.connection_sums[2] == pytest.approx(synthetic.connection_sums[2],
                                                           rel=1e-14)
        assert rotated.connection_sums[1] == pytest.approx(synthetic.connection_sums[1],
                                                           rel=1e-14)
        with pytest.raises(ValueError, match="read-only"):
            rotated.b[row] = 7.0

    @pytest.mark.parametrize("steps", [8, 720, 1001])
    def test_connection_loop_is_exactly_the_reference(self, synthetic, steps):
        loop = LoopParams(radius=1e-3, steps=steps)
        assert connection_loop_integral(synthetic, loop) == reference_connection_loop(
            synthetic, loop)

    @pytest.mark.parametrize("steps", [8, 1001])
    def test_loop_samples_are_shared_and_closed(self, steps):
        entry = _loop_samples(steps)
        assert _loop_samples(steps) is entry
        samples, links = entry
        assert samples.shape == (2, steps + 1) and links.shape == (8, steps)
        alphas = loop_alphas(LoopParams(steps=steps))
        assert samples[0, :-1].tobytes() == np.cos(alphas).tobytes()
        assert samples[1, :-1].tobytes() == np.sin(alphas).tobytes()
        assert samples[:, -1].tobytes() == samples[:, 0].tobytes()

    def test_loop_angles_are_the_reference_bits_at_every_step_count(self):
        # the package takes the angles as k (2 pi / steps), the reference as
        # np.linspace: the same bits at every step count up to 4096 and at
        # each power of two up to the cap
        for steps in [*range(8, 4097), *(2 ** k for k in range(13, MAX_STEPS.bit_length()))]:
            samples, links = _loop_samples(steps)
            assert samples.shape == (2, steps + 1) and links.shape == (8, steps)
            alphas = loop_alphas(LoopParams(steps=steps))
            assert samples[0, :-1].tobytes() == np.cos(alphas).tobytes(), steps
            assert samples[1, :-1].tobytes() == np.sin(alphas).tobytes(), steps
            assert samples[:, -1].tobytes() == samples[:, 0].tobytes()
        assert steps == MAX_STEPS
        _loop_samples.cache_clear()     # the cap's entry holds 80 MiB

    @pytest.mark.parametrize("steps", [8, 720, 1001])
    def test_link_terms_are_the_products_of_the_samples(self, steps):
        samples, links = _loop_samples(steps)
        c0, s0 = samples[:, :-1].copy()
        c1, s1 = samples[:, 1:].copy()
        fresh = [c0 + c1, s0 + s1, c0 * c1, s0 * s1, c0 * s1 + s0 * c1,
                 c1 - c0, s1 - s0, c0 * s1 - s0 * c1]
        for k, term in enumerate(fresh):
            assert links[k].tobytes() == term.tobytes(), k

    def test_loop_entry_is_read_only(self):
        samples, links = _loop_samples(64)
        for array in (samples, links):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 7.0

    @pytest.mark.parametrize("steps", [8, 720, 1001])
    def test_overlap_chain_reads_a_cleared_and_a_warm_cache_alike(self, nodes64, synthetic,
                                                                    steps):
        gram_data = gram_matrix(nodes64)
        loop = LoopParams(steps=steps)
        for coeffs in (synthetic, correction_coefficients(8, nodes=nodes64)):
            r = 1e-2 / coeffs.max_magnitude()
            _loop_samples.cache_clear()
            cold = _overlap_phases(coeffs, gram_data, loop, (r, 0.5 * r))
            warm = _overlap_phases(coeffs, gram_data, loop, (r, 0.5 * r))
            assert _loop_samples.cache_info().hits >= 1
            assert np.array(cold).tobytes() == np.array(warm).tobytes()

    def test_one_loop_is_kept(self, dimensionless, nodes64):
        # a command reads one loop at a time, and the entry at the cap holds 80 MiB
        _loop_samples.cache_clear()
        for steps in (64, 720):
            oracle_comparison(1, dimensionless, LoopParams(steps=steps), nodes64)
        assert _loop_samples.cache_info().currsize == 1

    def test_loop_passes_hold_at_most_eight_and_a_half_floats_per_step(self, synthetic,
                                                                      nodes64):
        # beyond the cached loop; the two-radius overlap pass held 10 floats
        # per step before it ran in place, the connection pass 7.25
        steps = 2 ** 16
        loop = LoopParams(steps=steps)
        gram_data = gram_matrix(nodes64)
        radii = (1e-2 / synthetic.max_magnitude(), 0.5e-2 / synthetic.max_magnitude())
        _overlap_phases(synthetic, gram_data, loop, radii)     # warm loop and metric
        tracemalloc.start()
        try:
            _overlap_phases(synthetic, gram_data, loop, radii)
            overlap_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            connection_loop_integral(synthetic, loop)
            connection_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 8.5 * steps * np.dtype(float).itemsize
        assert overlap_peak <= bound and connection_peak <= bound, (overlap_peak, connection_peak)

    def test_connection_loop_matches_the_sequential_loop(self, rng):
        # the sums run in another order, so they agree to roundoff in steps terms
        for _ in range(60):
            coeffs = random_coefficients(rng)
            loop = LoopParams(radius=float(10.0 ** rng.uniform(-4.0, 0.0)),
                              steps=int(rng.integers(8, 4096)))
            gamma, residual, r = connection_loop_integral(coeffs, loop)
            gamma_seq, residual_seq, r_seq = sequential_connection_loop(coeffs, loop)
            scale = coeffs.connection_sums[0] + coeffs.connection_sums[1]
            assert r == r_seq == loop.radius
            assert abs(gamma - gamma_seq) <= 1e-12 * max(abs(gamma_seq), scale), loop
            assert max(residual, residual_seq) <= 1e-12 * scale, loop


class TestPhysicalPhases:
    def test_all_live_states_zero(self, dimensionless, nodes64):
        for j in live_indices():
            result = berry_phase_closed(j, dimensionless, nodes64)
            assert result.gamma_over_r2 == 0.0
            assert result.method == "closed"

    @pytest.mark.parametrize("steps", [8, 720, 2048])
    def test_connection_loop_zero_is_positive(self, nodes64, steps):
        for j in live_indices():
            coeffs = correction_coefficients(j, nodes=nodes64)
            gamma, _, _ = connection_loop_integral(coeffs, LoopParams(steps=steps))
            assert gamma == 0.0 and math.copysign(1.0, gamma) == 1.0, j

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

    @pytest.mark.parametrize("steps", [8, 720])
    def test_oracle_entries_are_the_standalone_routes(self, dimensionless, nodes64, steps):
        # the comparison builds one coefficient set for all three routes;
        # each entry must still be the standalone route's result, bit for bit
        def bits(result):
            floats = (result.gamma_over_r2, result.dimensionless_value, result.si_prefactor)
            return result.method, [x.hex() for x in floats], repr(result.metadata)

        loop = LoopParams(steps=steps)
        for j in LIVE:
            report = oracle_comparison(j, dimensionless, loop, nodes64)
            assert bits(report["closed"]) == bits(
                berry_phase_closed(j, dimensionless, nodes64))
            assert bits(report["loop_connection"]) == bits(
                berry_phase_loop_connection(j, dimensionless, loop, nodes64))
            assert bits(report["loop_overlap"]) == bits(
                berry_phase_loop_overlap(j, dimensionless, loop, nodes64))

    def test_oracle_builds_one_coefficient_set(self, dimensionless, nodes64, monkeypatch):
        calls = []

        def counted(j, nodes):
            calls.append(j)
            return correction_coefficients(j, nodes=nodes)

        monkeypatch.setattr(pert, "correction_coefficients", counted)
        for j in (1, 16):
            oracle_comparison(j, dimensionless, LoopParams(steps=8), nodes64)
        assert calls == [1, 16]

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
        phases = {i: float(rng.uniform(0, 2 * math.pi)) for i in LIVE}
        rotated = with_basis_phases(coeffs, phases, float(rng.uniform(0, 2 * math.pi)))
        assert closed_form_phase(rotated) == pytest.approx(
            closed_form_phase(coeffs), abs=1e-10)

    def test_overlap_loop_auto_radius(self, dimensionless, nodes64):
        result = berry_phase_loop_overlap(2, dimensionless, LoopParams(steps=360), nodes64)
        coeffs = correction_coefficients(2, nodes=nodes64)
        assert result.metadata["radius"] * coeffs.max_magnitude() <= 1e-2 * (1 + 1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_package_richardson_matches_closed_on_nonzero_sets(seed):
    # the routes' core, which berry_phase_loop_overlap runs: its Richardson
    # line, r and r/2 weighted 4/3 and -1/3, on random sets over every other
    # live state; at 2048 steps the inscribed polygon leaves ~1.6e-6, and
    # weights 2 and -1 leave 3e-5 or more
    rng = np.random.default_rng(seed)
    others = [i for i in LIVE if i != 1]
    a, b = rng.normal(size=(2, len(others))) + 1j * rng.normal(size=(2, len(others)))
    coeffs = CorrectionCoefficients(1, dict(zip(others, a.tolist())),
                                    dict(zip(others, b.tolist())))
    [(value, _)] = _route_values(coeffs, NodeCounts.uniform(48), LoopParams(steps=2048),
                                 ("loop-overlap",))
    closed = closed_form_phase(coeffs)
    assert abs(closed) > 1.0
    assert value == pytest.approx(closed, rel=5e-6)


class TestParams:
    def test_loop_validation(self):
        for steps in (4, MAX_STEPS + 1):
            with pytest.raises(ParameterError, match=f"8..{MAX_STEPS}"):
                LoopParams(steps=steps)
        assert LoopParams(steps=MAX_STEPS).steps == MAX_STEPS
        for radius in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ParameterError):
                LoopParams(radius=radius)

    def test_non_integer_steps_is_parameter_error(self):
        # a float once passed construction and failed later, in np.linspace
        with pytest.raises(ParameterError, match="loop steps must be an integer, got 720.0"):
            LoopParams(steps=720.0)
        with pytest.raises(ParameterError, match="loop steps must be an integer, got True"):
            LoopParams(steps=True)
        assert LoopParams(steps=np.int64(720)).steps == 720

    def test_bool_or_string_radius_is_parameter_error(self):
        # True once ran as radius 1.0, and a string raised a bare TypeError
        for radius in (True, False, np.True_, "1e-3"):
            with pytest.raises(ParameterError, match="loop radius must be a number"):
                LoopParams(radius=radius)
        assert LoopParams(radius=1).radius == 1

    def test_radius_with_overflowing_square(self, nodes64):
        # auto radius 1e-2 / 1e-160 = 1e158, whose square overflows
        tiny = CorrectionCoefficients(1, {5: 1e-160}, {5: 1e-160j})
        with pytest.raises(ParameterError, match="no finite square"):
            connection_loop_integral(tiny, LoopParams())
        with pytest.raises(ParameterError, match="no finite square"):
            overlap_loop_phase(tiny, gram_matrix(nodes64), LoopParams(), 1e158)

    @pytest.mark.parametrize("steps", [8, 720, 65536])
    def test_connection_refuses_exactly_the_radii_that_overflow(self, nodes64, steps):
        # across the connection loop's overflow, each radius either runs with
        # no overflow (a RuntimeWarning would fail the test) or is refused
        coeffs = correction_coefficients(8, nodes=nodes64)
        outcomes = set()
        for scale in np.geomspace(1e150, 1e154, 41):
            loop = LoopParams(radius=float(scale) / coeffs.max_magnitude(), steps=steps)
            try:
                value, residual, _ = connection_loop_integral(coeffs, loop)
            except ParameterError as exc:
                assert "the connection loop overflows" in str(exc)
                outcomes.add("refused")
            else:
                assert math.isfinite(value) and math.isfinite(residual)
                outcomes.add("ran")
        assert outcomes == {"ran", "refused"}

    def test_radius_with_underflowing_square(self, nodes64):
        coeffs = correction_coefficients(1, nodes=nodes64)
        for radius in (1e-170, 1e-200):
            with pytest.raises(ParameterError, match="squares to zero"):
                connection_loop_integral(coeffs, LoopParams(radius=radius))
            with pytest.raises(ParameterError, match="squares to zero"):
                overlap_loop_phase(coeffs, gram_matrix(nodes64), LoopParams(), radius)

    def test_radius_below_the_overlap_floor(self, nodes64):
        coeffs = correction_coefficients(1, nodes=nodes64)
        floor = _OVERLAP_FLOOR / coeffs.max_magnitude()
        gram_data = gram_matrix(nodes64)
        # far below the auto radius's Richardson half, r * max|coefficient| = 5e-3
        assert _OVERLAP_FLOOR < 1e-12 * 5e-3
        for radius in (1e-150, 0.99 * floor):
            with pytest.raises(ParameterError, match=f"{radius!r}: the overlap route "
                               f"needs every radius at or above {floor:.3e}"):
                overlap_loop_phase(coeffs, gram_data, LoopParams(), radius)
        # the Richardson half counts: r above the floor but r/2 below it
        with pytest.raises(ParameterError, match=f"radii {1.5 * floor!r}, {0.75 * floor!r}"):
            _overlap_phases(coeffs, gram_data, LoopParams(), (1.5 * floor, 0.75 * floor))
        closed = closed_form_phase(coeffs)
        assert abs(overlap_loop_phase(coeffs, gram_data, LoopParams(), floor) - closed) < 1e-7
        # the connection route divides no chain's roundoff by r^2 and has no floor
        assert connection_loop_integral(coeffs, LoopParams(radius=1e-150))[0] == 0.0

    # None once raised a bare AttributeError from inside the route
    @pytest.mark.parametrize("call, name", [
        (lambda c, n: berry_phase_closed(1, None), "constants"),
        (lambda c, n: berry_phase_closed(1, c, None), "nodes"),
        (lambda c, n: berry_phase_closed(3, c, 128), "nodes"),
        (lambda c, n: berry_phase_loop_connection(1, c, None, n), "loop"),
        (lambda c, n: berry_phase_loop_overlap(1, c, 720, n), "loop"),
        (lambda c, n: oracle_comparison(1, c, None), "loop"),
        (lambda c, n: oracle_comparison(1, 1.0, LoopParams(), n), "constants"),
    ], ids=["closed-constants", "closed-nodes", "null-state-nodes", "connection-loop",
            "overlap-loop", "oracle-loop", "oracle-constants"])
    def test_wrong_argument_type_is_parameter_error(self, nodes64, call, name):
        with pytest.raises(ParameterError, match=f"{name} must be a "):
            call(PhysicalConstants.dimensionless(), nodes64)

    def test_result_carries_units(self, nodes64):
        c = PhysicalConstants.from_frequency(240.4)
        result = berry_phase_closed(1, c, nodes64)
        assert result.gamma_over_r2 == result.dimensionless_value * result.si_prefactor
