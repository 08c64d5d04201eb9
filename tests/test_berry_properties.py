"""Properties of the three loop routes on random synthetic coefficient sets.

The physical coefficient sets give vanishing phases, so these properties
run on drawn sets with generic complex structure.  Loop values scale
with |coefficient|^2 and the overlap chain's roundoff is divided by r^2,
so each comparison has a relative tolerance plus an absolute floor in
those units.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmsphase import NodeCounts, berry, gram_matrix, live_indices
from rmsphase.berry import (
    _OVERLAP_FLOOR,
    _TELESCOPE_FLOOR,
    LoopParams,
    _auto_radius,
    _loop_basis,
    _overlap_phases,
    closed_form_phase,
    connection_loop_integral,
    overlap_loop_phase,
)
from rmsphase.errors import EvaluationError, ParameterError
from rmsphase.perturbation import CorrectionCoefficients, correction_coefficients

from loop_reference import (
    loop_alphas,
    loop_vectors,
    normed_overlap_phases,
    overlap_product_phase,
    with_basis_phases,
)

STATE = 1
INDICES = live_indices()        # every gram_data runs over the live states
OTHERS = tuple(i for i in INDICES if i != STATE)
IDENTITY = (INDICES, np.eye(len(INDICES)))

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None)

coefficient = st.builds(cmath.rect, st.floats(1e-3, 10.0), st.floats(0.0, 2 * math.pi))


@st.composite
def coefficient_sets(draw):
    members = draw(st.lists(st.sampled_from(OTHERS), min_size=1, unique=True))
    return CorrectionCoefficients(STATE, {i: draw(coefficient) for i in members},
                                  {i: draw(coefficient) for i in members})


# both directions and the benchmark's step range, so every chain closes both ways
loops = st.builds(LoopParams, steps=st.integers(8, 2048), reverse=st.booleans())


def tolerance(coeffs, loop):
    """rtol 1e-9 plus a floor of 1e-14 per step in phase, per r^2."""
    r = _auto_radius(coeffs, loop)
    return {"rel": 1e-9, "abs": 1e-14 * loop.steps / r ** 2}


def routes(coeffs, loop, gram_data=IDENTITY):
    r = _auto_radius(coeffs, loop)
    return (closed_form_phase(coeffs),
            connection_loop_integral(coeffs, loop)[0],
            overlap_loop_phase(coeffs, gram_data, loop, r))


def reversed_loop(loop):
    return LoopParams(loop.radius, loop.steps, not loop.reverse)


def random_gram(seed):
    """A Hermitian positive metric over the live states that couples e_j to
    a and b at O(1), unlike the package's, which is the identity to roundoff."""
    rng = np.random.default_rng(seed)
    n = len(INDICES)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    gram = m @ m.conj().T / n + np.eye(n)
    return 0.5 * (gram + gram.conj().T)


@PROPERTY_SETTINGS
@given(coefficient_sets(), loops)
def test_connection_route_equals_closed_form(coeffs, loop):
    closed, connection, _ = routes(coeffs, loop)
    # the closed form is the phase of the forward loop
    expected = -closed if loop.reverse else closed
    assert connection == pytest.approx(expected, **tolerance(coeffs, loop))


@PROPERTY_SETTINGS
@given(coefficient_sets(), loops)
def test_reversal_negates_both_loop_routes(coeffs, loop):
    _, connection, overlap = routes(coeffs, loop)
    _, back_connection, back_overlap = routes(coeffs, reversed_loop(loop))
    assert back_connection == pytest.approx(-connection, **tolerance(coeffs, loop))
    assert back_overlap == pytest.approx(-overlap, **tolerance(coeffs, loop))


@PROPERTY_SETTINGS
@given(coefficient_sets(), loops,
       st.lists(st.floats(0.0, 2 * math.pi), min_size=len(OTHERS), max_size=len(OTHERS)),
       st.floats(0.0, 2 * math.pi))
def test_basis_phases_leave_every_route_unchanged(coeffs, loop, chis, own):
    rotated = with_basis_phases(coeffs, dict(zip(OTHERS, chis)), own)
    for before, after in zip(routes(coeffs, loop), routes(rotated, loop)):
        assert after == pytest.approx(before, **tolerance(coeffs, loop))


@PROPERTY_SETTINGS
@given(coefficient_sets(), loops, st.integers(0, 2 ** 32 - 1))
def test_reduced_metric_matches_full_chain(coeffs, loop, seed):
    gram = random_gram(seed)
    r = _auto_radius(coeffs, loop)
    full = overlap_product_phase(
        loop_vectors(coeffs, r, loop_alphas(loop)), gram) / r ** 2
    reduced = overlap_loop_phase(coeffs, (INDICES, gram), loop, r)
    assert reduced == pytest.approx(full, **tolerance(coeffs, loop))


PACKAGE_GRAM = gram_matrix(NodeCounts.uniform(16))[1]


def outcome(route):
    """The bits of the returned phases, the type and message raised, or
    "overflow" for an overflow refused or raised by numpy."""
    try:
        with np.errstate(over="raise"):
            return np.array(route()).tobytes()
    except EvaluationError as exc:
        return type(exc), str(exc)
    except FloatingPointError:
        return "overflow"
    except ParameterError as exc:
        assert "overflows at r * max|coefficient|" in str(exc)
        return "overflow"


@settings(max_examples=200, deadline=None, database=None)
@given(coefficient_sets(), st.integers(8, 64), st.booleans(),
       (st.floats(-1.0, 2.5) | st.floats(75.0, 79.0)).map(lambda e: 10.0 ** e),
       st.booleans(), st.none() | st.integers(0, 2 ** 32 - 1))
def test_screened_refusal_matches_the_normed_chain(coeffs, steps, reverse, scale, pair, seed):
    # r * max|coefficient| from 0.1 to ~316 at 8..64 steps spans the weak-overlap
    # refusal, so both the screened pass and the one that forms the norms run;
    # 1e75..1e79 spans the radius at which the chain's squares overflow
    gram = PACKAGE_GRAM if seed is None else random_gram(seed)
    loop = LoopParams(steps=steps, reverse=reverse)
    r = scale / coeffs.max_magnitude()
    radii = (r, 0.5 * r) if pair else (r,)
    assert (outcome(lambda: _overlap_phases(coeffs, (INDICES, gram), loop, radii))
            == outcome(lambda: normed_overlap_phases(coeffs, gram, loop, radii)))


class CountedBasis:
    """``berry._loop_basis`` with a count of its calls."""

    def __init__(self, monkeypatch):
        self.calls, self.basis = 0, berry._loop_basis
        monkeypatch.setattr(berry, "_loop_basis", self)

    def __call__(self, coeffs):
        self.calls += 1
        return self.basis(coeffs)


def fresh_set():
    """A new set, so its memo starts empty."""
    return CorrectionCoefficients(STATE, {5: 0.3 + 0.4j, 9: -0.1 + 0.2j, 13: 0.2j},
                                  {5: 0.5 - 0.2j, 9: 0.15 + 0.05j, 13: -0.3})


@pytest.mark.parametrize("steps", [8, 720])
def test_reduced_metric_memo_follows_the_metric(monkeypatch, steps):
    # one set under G1, G2, then G1 again: each call reduces its own metric
    coeffs, loop = fresh_set(), LoopParams(steps=steps)
    r = _auto_radius(coeffs, loop)
    g1, g2 = random_gram(1), random_gram(2)
    basis = CountedBasis(monkeypatch)
    values = []
    for calls, gram in enumerate((g1, g2, g1), start=1):
        values.append(outcome(lambda: _overlap_phases(coeffs, (INDICES, gram), loop,
                                                      (r, 0.5 * r))))
        assert values[-1] == outcome(lambda: normed_overlap_phases(coeffs, gram, loop,
                                                                   (r, 0.5 * r)))
        assert basis.calls == calls
    assert values[0] != values[1]


def test_reduced_metric_memo_sees_a_metric_changed_in_place():
    coeffs, loop = fresh_set(), LoopParams(steps=64)
    r = _auto_radius(coeffs, loop)
    gram = random_gram(3)
    before = outcome(lambda: overlap_loop_phase(coeffs, (INDICES, gram), loop, r))
    # a Hermitian change of the a-b coupling, which moves Im H12
    a, b = INDICES.index(5), INDICES.index(9)
    gram[a, b] += 0.2j
    gram[b, a] -= 0.2j
    after = outcome(lambda: overlap_loop_phase(coeffs, (INDICES, gram), loop, r))
    assert after == outcome(lambda: normed_overlap_phases(coeffs, gram, loop, (r,)))
    assert after != before


def test_package_metric_is_reduced_once_per_set(monkeypatch):
    nodes = NodeCounts.uniform(16)
    coeffs = correction_coefficients(8, nodes=nodes)
    loop = LoopParams(steps=64)
    r = _auto_radius(coeffs, loop)
    first = _overlap_phases(coeffs, gram_matrix(nodes), loop, (r, 0.5 * r))
    basis = CountedBasis(monkeypatch)
    assert _overlap_phases(coeffs, gram_matrix(nodes), loop, (r, 0.5 * r)) == first
    assert basis.calls == 0


def telescope_floor(coeffs, gram):
    """_TELESCOPE_FLOOR (|Im H01| + |Im H02|) / (H00 max|coefficient|^2), to roundoff."""
    metric = _loop_basis(coeffs).conj().T @ gram @ _loop_basis(coeffs)
    telescope = abs(metric[0, 1].imag) + abs(metric[0, 2].imag)
    return float(_TELESCOPE_FLOOR * telescope
                 / (metric[0, 0].real * coeffs.max_magnitude() ** 2))


@pytest.mark.parametrize("seed", range(20))
def test_non_identity_metric_refuses_radii_below_its_floor(seed):
    rng = np.random.default_rng(seed)
    members = rng.choice(OTHERS, size=4, replace=False).tolist()
    coeffs = CorrectionCoefficients(
        STATE, {i: complex(*rng.normal(size=2)) for i in members},
        {i: complex(*rng.normal(size=2)) for i in members})
    gram_data = (INDICES, random_gram(seed))
    loop = LoopParams(steps=720)
    top = coeffs.max_magnitude()
    # before the floor, 1e-14 / top returned phases off by up to 2.4e-2 relative
    with pytest.raises(ParameterError, match="under this metric the overlap route needs "
                       "every radius at or above"):
        overlap_loop_phase(coeffs, gram_data, loop, 1e-14 / top)
    # at the floor the telescoping roundoff stays far below the phase
    floor = (1.0 + 1e-9) * telescope_floor(coeffs, gram_data[1])
    reference = overlap_loop_phase(coeffs, gram_data, loop, 1e-5 / top)
    assert overlap_loop_phase(coeffs, gram_data, loop, floor) == pytest.approx(
        reference, abs=1e-8 * top ** 2)


@pytest.mark.parametrize("state", INDICES)
def test_package_metric_leaves_the_floor_to_the_coefficients(state):
    # the package's Gram matrix has |Im H0k| ~ 1e-16 H00 max|coefficient|, so
    # the telescoping floor sits far below _OVERLAP_FLOOR / max|coefficient|
    coeffs = correction_coefficients(state, nodes=NodeCounts.uniform(16))
    assert telescope_floor(coeffs, PACKAGE_GRAM) < 1e-3 * _OVERLAP_FLOOR / coeffs.max_magnitude()


def test_non_positive_metric_is_refused():
    coeffs = CorrectionCoefficients(STATE, {5: 1.0}, {9: 1.0j})
    gram = np.eye(len(INDICES))
    gram[INDICES.index(STATE), INDICES.index(STATE)] = 0.0
    with pytest.raises(ParameterError, match="the squared norm 0.0; a Gram matrix is positive"):
        overlap_loop_phase(coeffs, (INDICES, gram), LoopParams(), 1e-2)


def test_indefinite_metric_that_overflows_the_chain_is_refused():
    # Re H passes the weak-overlap screen, but Im H12 is not bounded by
    # sqrt(H11 H22) under an indefinite metric, so Im o_k overflows
    coeffs = CorrectionCoefficients(STATE, {5: 1.0}, {9: 1.0})
    a, b = INDICES.index(5), INDICES.index(9)
    gram = np.eye(len(INDICES), dtype=complex)
    gram[a, a] = gram[b, b] = 1e-300
    gram[a, b], gram[b, a] = 0.8e308j, -0.8e308j
    with pytest.raises(ParameterError, match="the overlap chain overflows"):
        overlap_loop_phase(coeffs, (INDICES, gram), LoopParams(steps=8), 100.0)
