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

from rmsphase import live_indices
from rmsphase.berry import (
    LoopParams,
    _auto_radius,
    closed_form_phase,
    connection_loop_integral,
    overlap_loop_phase,
)
from rmsphase.perturbation import CorrectionCoefficients

from loop_reference import loop_alphas, loop_vectors, overlap_product_phase, with_basis_phases

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
    rng = np.random.default_rng(seed)
    n = len(INDICES)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    gram = m @ m.conj().T / n + np.eye(n)
    gram = 0.5 * (gram + gram.conj().T)
    r = _auto_radius(coeffs, loop)
    full = overlap_product_phase(
        loop_vectors(coeffs, r, loop_alphas(loop)), gram) / r ** 2
    reduced = overlap_loop_phase(coeffs, (INDICES, gram), loop, r)
    assert reduced == pytest.approx(full, **tolerance(coeffs, loop))
