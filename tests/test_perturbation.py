"""Coupling matrix elements and first-order correction coefficients.

Frozen reference numbers in this file were computed with an independent
scipy.integrate.quad pipeline (adaptive quadrature on every axis, scipy's
own Legendre/Laguerre evaluations) before the package quadrature existed.
"""

import json
import math
import re
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from operator import add

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from rmsphase import (
    Channel,
    NodeCounts,
    correction_coefficients,
    live_indices,
    matrix_element,
    phi_integral,
)
from rmsphase import LoopParams, berry, perturbation as pert, state_table
from rmsphase.errors import ParameterError
from rmsphase.oscillator import live_entry, overlap_tables
from rmsphase.perturbation import CorrectionCoefficients
from rmsphase.quadrature import QuadratureRule, integrate

from library_transcript import TRANSCRIPT, build
from loop_reference import folded_sums, with_basis_phases

SQRT3 = math.sqrt(3.0)

# row of each live state in a coefficient vector
ROW = {i: k for k, i in enumerate(live_indices())}

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
        x, w = leggauss(64)         # Gauss-Legendre on [0, 2 pi): the integrand is not periodic
        rule = QuadratureRule(math.pi * (x + 1.0), math.pi * w)
        profile = np.cos if channel is Channel.COSINE else np.sin

        def integrand(phi):
            return np.exp(1j * delta * phi) * profile(2 * phi / 3) ** 2

        assert phi_integral(0, delta, channel) == pytest.approx(
            integrate(rule, integrand), abs=1e-12)

    # int() of a nan raised a bare ValueError, and of an infinity a bare OverflowError
    @pytest.mark.parametrize("m_bra, m_ket", [(math.nan, 2), (2, math.nan), (math.inf, 2),
                                              (2, -math.inf), (2.5, 2)])
    def test_non_integer_index_is_parameter_error(self, m_bra, m_ket):
        with pytest.raises(ParameterError, match="azimuthal index must be an integer"):
            phi_integral(m_bra, m_ket, Channel.COSINE)

    def test_integral_floats_and_numpy_integers_pass(self):
        # numpy integers pass, as the package's own calls pass them; an
        # integral float, Fraction or Decimal is refused, as at every index
        assert phi_integral(np.int32(2), np.int64(3), Channel.SINE) == phi_integral(
            2, 3, Channel.SINE)
        for index in (2.0, Fraction(2), Decimal(2)):
            with pytest.raises(ParameterError, match="azimuthal index must be an integer"):
                phi_integral(index, 3, Channel.SINE)

    # True once passed as 1, and 10**400 raised a bare OverflowError
    @pytest.mark.parametrize("m_bra, m_ket, message", [
        (True, 0, "must be an integer"), (0, np.True_, "must be an integer"),
        (10 ** 400, 0, "too large for a float"), (0, -10 ** 400, "too large for a float"),
        (10 ** 400, 10 ** 400, "too large for a float"),
        (10 ** 200, 0, "too large for a float"), (0, 1e200, "must be an integer")],
        ids=["bool", "numpy-bool", "huge-bra", "huge-ket", "huge-equal",
             "huge-delta", "huge-float-delta"])
    def test_bool_or_huge_index_is_parameter_error(self, m_bra, m_ket, message):
        with pytest.raises(ParameterError, match=message):
            phi_integral(m_bra, m_ket, Channel.COSINE)

    def test_large_integral_index_still_runs(self):
        # delta^2 fits a float: the oscillatory part is ~3/(4 delta) i
        value = phi_integral(0, 10 ** 150, Channel.COSINE)
        assert value.imag == pytest.approx(0.75e-150, rel=1e-12)


class TestChannelStack:
    def test_stack_is_the_per_pair_phi_integrals(self):
        # reference: one phi_integral call per live pair and channel, compared
        # bit for bit, signed zeros included
        m = [state_table()[i - 1].m for i in live_indices()]
        reference = np.array([[[phi_integral(mi, mj, channel) for mj in m] for mi in m]
                              for channel in Channel])
        stack = pert._PHI
        assert stack.shape == (len(Channel), len(m), len(m)) and stack.dtype == complex
        assert not stack.flags.writeable
        assert stack.real.tobytes() == reference.real.tobytes()
        assert stack.imag.tobytes() == reference.imag.tobytes()

    @pytest.mark.parametrize("channel", ["cos", 0, None])
    def test_unknown_channel_is_parameter_error(self, nodes64, channel):
        with pytest.raises(ParameterError, match="unknown channel"):
            matrix_element(1, 5, channel, nodes=nodes64)


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
                direct = live_entry(overlap_tables(nodes64).shared, i, j)
                assert abs(total - direct) <= max(
                    1e-10 * max(abs(total), abs(direct)), 1e-12)

    def test_frozen_value(self, nodes64):
        got = matrix_element(8, 1, Channel.COSINE, nodes=nodes64)
        assert got == pytest.approx(-0.98994266427517 - 1.28597324332852j, rel=1e-10)

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
        phase = np.angle(phi_integral(2, 3, Channel.COSINE))
        chi = np.array([phase if state_table()[i - 1].m == 3 else 0.0 for i in live])
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
        # one read-only entry per live state, so never a null state
        for vector in (coeffs.a, coeffs.b):
            assert vector.shape == (len(live_indices()),) and vector.dtype == complex
            assert not vector.flags.writeable
        # state 1 and its degenerate partner 2 read exactly 0
        for i in (1, 2):
            assert coeffs.a[ROW[i]] == coeffs.b[ROW[i]] == 0.0
        assert all(coeffs.a[ROW[i]] != 0.0 for i in (5, 8, 9, 16))

    @pytest.mark.parametrize("j", live_indices())
    def test_energy_denominators(self, nodes64, j):
        # a_i (K_j - K_i) and b_i (K_j - K_i) must reproduce the bare matrix
        # elements, over exactly the live states of another energy
        energy = {i: qn.reduced_energy for i, qn in enumerate(state_table(), start=1)}
        coeffs = correction_coefficients(j, nodes=nodes64)
        if j == 1:
            assert [energy[1] - energy[i] for i in (5, 9, 16)] == [-1, -2, -3]
        for i, ai, bi in zip(live_indices(), coeffs.a, coeffs.b):
            d = float(energy[j] - energy[i])
            if d == 0.0:
                assert ai == bi == 0.0
                continue
            for value, channel in ((ai, Channel.COSINE), (bi, Channel.SINE)):
                element = matrix_element(i, j, channel, nodes=nodes64)
                assert value * d == pytest.approx(element, abs=1e-13)

    def test_frozen_values(self, nodes64):
        coeffs = correction_coefficients(1, nodes=nodes64)
        for i, (a_ref, b_ref) in FROZEN_J1.items():
            assert coeffs.a[ROW[i]] == pytest.approx(a_ref, abs=1e-10)
            assert coeffs.b[ROW[i]] == pytest.approx(b_ref, abs=1e-10)

    def test_cross_channel_structure(self, nodes64):
        # delta != 0 entries are exact negatives across channels; delta = 0
        # entries are real with the fixed ratio of the two phi integrals
        coeffs = correction_coefficients(1, nodes=nodes64)
        ratio = ((math.pi - 3 * SQRT3 / 16) / (math.pi + 3 * SQRT3 / 16))
        for i, ai, bi in zip(live_indices(), coeffs.a, coeffs.b):
            if abs(ai) < 1e-14:
                continue
            delta = 2 - state_table()[i - 1].m
            if delta == 0:
                assert bi == pytest.approx(ai * ratio, rel=1e-12)
            else:
                assert bi == pytest.approx(-ai, rel=1e-12)

    def test_null_state_rejected(self, nodes64):
        with pytest.raises(ParameterError):
            correction_coefficients(3, nodes=nodes64)
        with pytest.raises(ParameterError):
            correction_coefficients(7, nodes=nodes64)

    @pytest.mark.parametrize("nodes", [NodeCounts.uniform(64), NodeCounts(40, 72, 33, 96)],
                             ids=["nodes64", "uneven"])
    def test_connection_sums_bit_identical_to_numpy_scalar_sums(self, nodes):
        # the sums must match, bit for bit, the same sums over numpy scalars
        # (np.conj per entry), each a left-to-right fold: from Python 3.12 the
        # builtin sum no longer adds floats in row order
        def bits(values):
            return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]

        for j in live_indices():
            coeffs = correction_coefficients(j, nodes=nodes)
            a, b = coeffs.a, coeffs.b
            expected = (reduce(add, (abs(v) ** 2 for v in a), 0.0),
                        reduce(add, (abs(v) ** 2 for v in b), 0.0),
                        reduce(add, (np.conj(x) * y for x, y in zip(a, b)), 0j))
            assert bits(coeffs.connection_sums) == bits(expected)

    def test_gauge_covariance(self, rng, nodes64):
        coeffs = correction_coefficients(1, nodes=nodes64)
        phases = {i: float(rng.uniform(0, 2 * math.pi)) for i in live_indices()}
        own = float(rng.uniform(0, 2 * math.pi))
        rotated = with_basis_phases(coeffs, phases, own)
        for i, ai, rotated_ai in zip(live_indices(), coeffs.a, rotated.a):
            expected = ai * np.exp(1j * (own - phases[i]))
            assert rotated_ai == pytest.approx(expected, abs=1e-14)
        assert rotated.connection_sums[2] == pytest.approx(coeffs.connection_sums[2], abs=1e-12)
        assert rotated.connection_sums[0] == pytest.approx(coeffs.connection_sums[0], rel=1e-12)

    def test_quadrature_doubling(self, nodes64):
        base = correction_coefficients(1, nodes=nodes64)
        fine = correction_coefficients(1, nodes=NodeCounts.uniform(128))
        for coarse_ai, fine_ai in zip(base.a, fine.a):
            if abs(coarse_ai) > 1e-13:
                assert coarse_ai == pytest.approx(fine_ai, rel=1e-8)

    def test_mapping_entry_missing_from_the_other_channel_is_zero(self):
        coeffs = CorrectionCoefficients(1, {5: 1.0}, {9: 1.0})
        assert coeffs.a[ROW[5]] == 1.0 and coeffs.b[ROW[5]] == 0.0
        assert coeffs.a[ROW[9]] == 0.0 and coeffs.b[ROW[9]] == 1.0
        assert coeffs.connection_sums[2] == 0.0

    @pytest.mark.parametrize("a, b", [({3: 1.0}, {3: 1.0}), ({5: 1.0}, {17: 1.0}),
                                      ({1: 1.0}, {}), ({}, {5: 1.0, 1: 0.5})],
                             ids=["null", "outside-catalogue", "own-in-a", "own-in-b"])
    def test_mapping_key_off_the_other_live_states_rejected(self, a, b):
        with pytest.raises(ParameterError, match="keyed by the other live states"):
            CorrectionCoefficients(1, a, b)

    # a bool or a float key once hashed as the int it equals, so {True: 0.5j}
    # built a set whose only entry was on state 1, and 5.0 was read as state 5
    @pytest.mark.parametrize("key", [True, np.True_, 5.0, np.float64(5.0)],
                             ids=["bool", "numpy-bool", "float", "numpy-float"])
    @pytest.mark.parametrize("channel", ["a", "b"])
    def test_mapping_key_must_be_an_integer(self, key, channel):
        values = {"a": {5: 0.5j}, "b": {5: 0.3}}
        values[channel] = {key: values[channel][5]}
        with pytest.raises(ParameterError, match=rf"coefficient key must be an integer, "
                                                 rf"got {re.escape(repr(key))}"):
            CorrectionCoefficients(2, values["a"], values["b"])

    def test_numpy_integer_mapping_key_is_a_state_index(self):
        coeffs = CorrectionCoefficients(2, {np.int64(5): 0.5j}, {np.int32(1): 0.3})
        assert coeffs.a[ROW[5]] == 0.5j and coeffs.b[ROW[1]] == 0.3

    @pytest.mark.parametrize("state, message", [
        (3, "state 3 vanishes identically"), (99, "state index must be in 1..16, got 99"),
        (1.0, "state index must be an integer, got 1.0"),
        (True, "state index must be an integer, got True")],
        ids=["null", "outside", "float", "bool"])
    def test_state_index_checked(self, state, message):
        with pytest.raises(ParameterError, match=message):
            CorrectionCoefficients(state, {5: 1.0}, {5: 1.0})

    # a nan entry once passed, and a huge one raised a bare OverflowError from abs(v) ** 2
    @pytest.mark.parametrize("a, b", [({5: math.nan}, {5: 1.0}), ({5: 1.0}, {9: math.inf}),
                                      ({5: complex(0.0, math.nan)}, {}),
                                      ({5: 1e300}, {5: 1e300j}), ({5: 1e200, 9: 1e200}, {})],
                             ids=["nan", "inf", "nan-imag", "square-overflows", "sum-overflows"])
    def test_non_finite_coefficients_rejected(self, a, b):
        with pytest.raises(ParameterError, match="must be finite"):
            CorrectionCoefficients(1, a, b)

    def test_different_sets_compare_unequal(self):
        # a and b once took no part in equality or hashing, so these two were equal
        first = CorrectionCoefficients(1, {5: 1.0}, {5: 1.0})
        second = CorrectionCoefficients(1, {5: 2.0}, {5: -3.0})
        assert first == first and first != second
        assert hash(first) != hash(second)

    def test_coefficient_vector_is_refused(self):
        # an ndarray is not a mapping, writable or read-only
        for writeable in (True, False):
            vector = np.zeros(len(live_indices()), dtype=complex)
            vector.setflags(write=writeable)
            with pytest.raises(ParameterError, match="must be a mapping from state index"):
                CorrectionCoefficients(1, vector, {5: 1.0})

    def test_max_magnitude_is_the_largest_entry(self, nodes64):
        # the largest entry in b, then in a
        sets = [CorrectionCoefficients(1, {5: 0.3 + 0.4j, 9: -2.0}, {9: 2.5j, 16: -0.1}),
                CorrectionCoefficients(1, {5: 0.3 + 0.4j, 9: -2.0}, {9: 1.5j, 16: -0.1}),
                correction_coefficients(8, nodes=nodes64), CorrectionCoefficients(1, {}, {})]
        for coeffs in sets:
            assert coeffs.max_magnitude() == np.abs(np.concatenate([coeffs.a, coeffs.b])).max()
        assert (sets[0].max_magnitude(), sets[1].max_magnitude()) == (2.5, 2.0)
        # no coefficient: the auto radius stays the perturbative budget
        assert sets[3].max_magnitude() == 0.0
        assert berry._auto_radius(sets[3], LoopParams()) == berry._PERTURBATIVE_BUDGET


NODES16 = NodeCounts.uniform(16)


def sum_bits(sums: tuple[float, float, complex], top: float) -> list[str]:
    """Connection sums and a max|coefficient| as ``float.hex`` strings."""
    sum_aa, sum_bb, sum_ab = sums
    return [v.hex() for v in (sum_aa, sum_bb, sum_ab.real, sum_ab.imag, top)]


def record_bits(coeffs: CorrectionCoefficients) -> list[str]:
    """A set's connection sums and max|coefficient| as ``float.hex`` strings."""
    return sum_bits(coeffs.connection_sums, coeffs.max_magnitude())


def patched_records(monkeypatch, couplings: np.ndarray) -> tuple[CorrectionCoefficients, ...]:
    """The ten records built from ``couplings`` in place of a resolution's
    coupling stack."""
    monkeypatch.setattr(pert, "_couplings", lambda nodes: couplings)
    pert._coefficient_tables.cache_clear()
    return pert._coefficient_tables(NODES16)


def random_records(monkeypatch) -> list[CorrectionCoefficients]:
    """The records of 200 seeded random tables, which reach the rare entries
    where a product in place of ** 2 rounds differently; the package's
    tables miss them."""
    rng = np.random.default_rng(2026)
    shape = (len(Channel), len(live_indices()), len(live_indices()))
    records = []
    for _ in range(200):
        couplings = 10.0 ** rng.uniform(-3, 3, shape) * (rng.normal(size=shape)
                                                         + 1j * rng.normal(size=shape))
        records += patched_records(monkeypatch, couplings)
    return records


# every cross term's imaginary part is -0.0 in the table these couplings give
NEGATIVE_ZERO_COUPLINGS = np.stack([np.full((10, 10), complex(-1e-200, -1e-200)),
                                    np.full((10, 10), complex(-1e-200, 1e-200))])


def package_records(nodes: NodeCounts):
    """Every live state's record at ``nodes``, as a source of ``RECORD_SOURCES``."""
    return lambda monkeypatch: [correction_coefficients(j, nodes=nodes) for j in live_indices()]


# each source of coefficient sets, by test id: a function of ``monkeypatch``
RECORD_SOURCES = {
    "nodes16": package_records(NODES16),
    "nodes48": package_records(NodeCounts.uniform(48)),
    "nodes128": package_records(NodeCounts.uniform(128)),
    "uneven": package_records(NodeCounts(40, 72, 33, 96)),
    "random-tables": random_records,
    "transcript-sets": lambda monkeypatch: [
        build(entry) for entry in json.loads(TRANSCRIPT.read_text(encoding="utf-8"))["sets"]],
    "negative-zero": lambda monkeypatch: patched_records(monkeypatch, NEGATIVE_ZERO_COUPLINGS),
}


def compensated_sum(iterable, start=0):
    """``sum`` as CPython takes it over floats from 3.12 and over complex
    numbers from 3.14: each part Neumaier-compensated, with the compensation
    added at the end when it is finite and not zero."""
    items = [start, *iterable]
    parts = []
    for part in ("real", "imag"):
        total = compensation = 0.0
        for x in (float(getattr(v, part)) for v in items):
            t = total + x
            compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        parts.append(total + compensation if compensation and math.isfinite(compensation)
                     else total)
    return complex(*parts) if any(isinstance(v, complex) for v in items) else parts[0]


@pytest.fixture
def warm_record():
    """State 1's record at 16 nodes, built before ``fresh_tables`` runs."""
    return correction_coefficients(1, nodes=NODES16)


class TestRecords:
    def test_record_is_built_once_per_table(self, fresh_tables, monkeypatch):
        # the first call builds its resolution's table, and the ten records with it
        built, couplings = [], pert._couplings

        def counted(nodes):
            built.append(nodes)
            return couplings(nodes)

        monkeypatch.setattr(pert, "_couplings", counted)
        first = correction_coefficients(5, nodes=NODES16)
        assert built == [NODES16]
        records = pert._coefficient_tables(NODES16)
        assert all(isinstance(record, CorrectionCoefficients) for record in records)
        assert [record.state_index for record in records] == list(live_indices())
        assert records[ROW[5]] is first
        for j in live_indices():
            record = correction_coefficients(np.int64(j), nodes=NODES16)
            assert type(record.state_index) is int and record.state_index == j
            assert correction_coefficients(j, nodes=NODES16) is record is records[ROW[j]]
        assert built == [NODES16]

    def test_cleared_tables_serve_no_stale_record(self, warm_record, fresh_tables, monkeypatch):
        couplings = pert._couplings
        monkeypatch.setattr(pert, "_couplings", lambda nodes: 2.0 * couplings(nodes))
        patched = correction_coefficients(1, nodes=NODES16)
        assert patched is not warm_record
        assert np.array_equal(patched.a, 2.0 * warm_record.a)
        assert np.array_equal(patched.b, 2.0 * warm_record.b)

    def test_negative_zero_cross_terms_sum_to_positive_zero(self, fresh_tables, monkeypatch):
        # a fold from +0 reads +0 where every term is -0.0, and so must the
        # array pass: in the patched table every cross term's imaginary part
        # is -0.0 (products of 1e-200 underflow to zeros with the product's sign)
        for coeffs in patched_records(monkeypatch, NEGATIVE_ZERO_COUPLINGS):
            terms = [(x.conjugate() * y).imag
                     for x, y in zip(coeffs.a.tolist(), coeffs.b.tolist())]
            assert [t.hex() for t in terms] == ["-0x0.0p+0"] * len(terms)
            assert coeffs.connection_sums[2].imag.hex() == "0x0.0p+0"

    @pytest.mark.parametrize("source", RECORD_SOURCES)
    def test_array_pass_is_the_fold(self, source, fresh_tables, monkeypatch):
        # every set's sums and max|coefficient| are bit for bit a Python fold
        # over its entries (``loop_reference.folded_sums``)
        records = RECORD_SOURCES[source](monkeypatch)
        assert records
        for coeffs in records:
            assert record_bits(coeffs) == sum_bits(*folded_sums(coeffs.a, coeffs.b))

    def test_sums_do_not_depend_on_the_interpreters_sum(self, fresh_tables, monkeypatch):
        # from Python 3.12 the builtin sum compensates its float additions; the
        # sums of the library transcript's sets and of every record at 16, 48
        # and 128 nodes keep their bits under such a sum
        assert compensated_sum([0.1] * 10) == 1.0
        sets = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))["sets"]

        def all_bits():
            pert._coefficient_tables.cache_clear()
            records = [build(entry) for entry in sets] + [
                correction_coefficients(j, nodes=NodeCounts.uniform(n))
                for n in (16, 48, 128) for j in live_indices()]
            return [record_bits(record) for record in records]

        plain = all_bits()
        assert len(plain) == 70
        monkeypatch.setattr(pert, "sum", compensated_sum, raising=False)
        assert all_bits() == plain
