"""Properties of the three loop routes on random synthetic coefficient sets.

The physical coefficient sets give vanishing phases, so these properties
run on drawn sets with generic complex structure, built from mappings, so
that their own entry is zero.  The overlap chain runs on the package's
Gram matrices, as it does in the package.  Loop values scale with
|coefficient|^2 and the overlap chain's roundoff is divided by r^2, so
each comparison has a relative tolerance plus an absolute floor in those
units.
"""

import cmath
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmsphase import NodeCounts, berry, gram_matrix, live_indices
from rmsphase.berry import (
    _OVERLAP_FLOOR,
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
INDICES = live_indices()
OTHERS = tuple(i for i in INDICES if i != STATE)
# gram_data as the package passes it, at the lowest node count, a middle
# one and the cap
GRAM_DATA = {n: gram_matrix(NodeCounts.uniform(n)) for n in (16, 48, 1024)}

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None)

coefficient = st.builds(cmath.rect, st.floats(1e-3, 10.0), st.floats(0.0, 2 * math.pi))


@st.composite
def coefficient_sets(draw):
    members = draw(st.lists(st.sampled_from(OTHERS), min_size=1, unique=True))
    return CorrectionCoefficients(STATE, {i: draw(coefficient) for i in members},
                                  {i: draw(coefficient) for i in members})


# the benchmark's step range
loops = st.builds(LoopParams, steps=st.integers(8, 2048))


def tolerance(coeffs, loop):
    """rtol 1e-9 plus a floor of 1e-14 per step in phase, per r^2."""
    r = _auto_radius(coeffs, loop)
    return {"rel": 1e-9, "abs": 1e-14 * loop.steps / r ** 2}


def routes(coeffs, loop):
    r = _auto_radius(coeffs, loop)
    return (closed_form_phase(coeffs),
            connection_loop_integral(coeffs, loop)[0],
            overlap_loop_phase(coeffs, GRAM_DATA[16], loop, r))


@PROPERTY_SETTINGS
@given(coefficient_sets(), loops)
def test_connection_route_equals_closed_form(coeffs, loop):
    closed, connection, _ = routes(coeffs, loop)
    assert connection == pytest.approx(closed, **tolerance(coeffs, loop))


@PROPERTY_SETTINGS
@given(coefficient_sets(), loops,
       st.lists(st.floats(0.0, 2 * math.pi), min_size=len(OTHERS), max_size=len(OTHERS)),
       st.floats(0.0, 2 * math.pi))
def test_basis_phases_leave_every_route_unchanged(coeffs, loop, chis, own):
    rotated = with_basis_phases(coeffs, dict(zip(OTHERS, chis)), own)
    for before, after in zip(routes(coeffs, loop), routes(rotated, loop)):
        assert after == pytest.approx(before, **tolerance(coeffs, loop))


@PROPERTY_SETTINGS
@given(coefficient_sets(), loops, st.sampled_from(sorted(GRAM_DATA)))
def test_reduced_metric_matches_full_chain(coeffs, loop, nodes):
    gram_data = GRAM_DATA[nodes]
    r = _auto_radius(coeffs, loop)
    full = overlap_product_phase(
        loop_vectors(coeffs, r, loop_alphas(loop)), gram_data[1]) / r ** 2
    reduced = overlap_loop_phase(coeffs, gram_data, loop, r)
    assert reduced == pytest.approx(full, **tolerance(coeffs, loop))


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
@given(coefficient_sets(), st.integers(8, 64),
       (st.floats(-1.0, 2.5) | st.floats(75.0, 79.0)).map(lambda e: 10.0 ** e),
       st.booleans())
def test_screened_refusal_matches_the_normed_chain(coeffs, steps, scale, pair):
    # r * max|coefficient| from 0.1 to ~316 at 8..64 steps spans the weak-overlap
    # refusal, so both the screened pass and the one that forms the norms run;
    # 1e75..1e79 spans the radius at which the chain's squares overflow
    gram_data = GRAM_DATA[16]
    loop = LoopParams(steps=steps)
    r = scale / coeffs.max_magnitude()
    radii = (r, 0.5 * r) if pair else (r,)
    assert (outcome(lambda: _overlap_phases(coeffs, gram_data, loop, radii))
            == outcome(lambda: normed_overlap_phases(coeffs, gram_data[1], loop, radii)))


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
    # one set at 16, 48, then 16 nodes again: each call reduces its own metric
    coeffs, loop = fresh_set(), LoopParams(steps=steps)
    r = _auto_radius(coeffs, loop)
    basis = CountedBasis(monkeypatch)
    reduced = []
    for calls, nodes in enumerate((16, 48, 16), start=1):
        gram_data = GRAM_DATA[nodes]
        value = outcome(lambda: _overlap_phases(coeffs, gram_data, loop, (r, 0.5 * r)))
        assert value == outcome(lambda: normed_overlap_phases(coeffs, gram_data[1], loop,
                                                              (r, 0.5 * r)))
        assert basis.calls == calls
        gram, entries = berry._reduced_metrics[coeffs]
        # the Gram matrix and the nine floats of the metric that the chain reads
        assert gram is gram_data[1]
        assert len(entries) == 9 and all(type(entry) is float for entry in entries)
        reduced.append(entries)
    # the two resolutions' metrics differ, and the memo took each one's
    assert reduced[0] != reduced[1] and reduced[0] == reduced[2]


def test_reduced_metric_memo_dies_with_its_set(monkeypatch):
    # the benchmark builds a new set every operation, and runs it at r/2, then r
    gc.collect()
    held = len(berry._reduced_metrics)
    coeffs, loop = fresh_set(), LoopParams(steps=64)
    r = _auto_radius(coeffs, loop)
    basis = CountedBasis(monkeypatch)
    for radius in (0.5 * r, r):
        overlap_loop_phase(coeffs, GRAM_DATA[16], loop, radius)
    assert basis.calls == 1 and len(berry._reduced_metrics) == held + 1
    entry = weakref.ref(coeffs)
    del coeffs
    gc.collect()
    assert entry() is None and len(berry._reduced_metrics) == held


def test_package_metric_is_reduced_once_per_set(monkeypatch):
    nodes = NodeCounts.uniform(16)
    coeffs = correction_coefficients(8, nodes=nodes)
    loop = LoopParams(steps=64)
    r = _auto_radius(coeffs, loop)
    first = _overlap_phases(coeffs, gram_matrix(nodes), loop, (r, 0.5 * r))
    basis = CountedBasis(monkeypatch)
    assert _overlap_phases(coeffs, gram_matrix(nodes), loop, (r, 0.5 * r)) == first
    assert basis.calls == 0


@pytest.mark.parametrize("state", INDICES)
def test_package_metric_leaves_the_floor_to_the_coefficients(state):
    # Under a metric H that couples e_j to a and b, the O(r) term of Im o_k,
    # Im H01 (c_{k+1} - c_k) + Im H02 (s_{k+1} - s_k), telescopes to zero
    # around the loop but its roundoff does not: it leaves ~2.6 eps
    # (|Im H01| + |Im H02|) / (H00 r) in the phase per r^2, which reaches
    # 6e-10 max|coefficient|^2 at 1e-6 (|Im H01| + |Im H02|) / (H00
    # max|coefficient|^2).  The chain has no floor for it, because the
    # package's Gram matrix couples them only by roundoff: that radius sits
    # far below _OVERLAP_FLOOR / max|coefficient|.
    nodes = NodeCounts.uniform(16)
    coeffs = correction_coefficients(state, nodes=nodes)
    basis = _loop_basis(coeffs)
    metric = basis.conj().T @ gram_matrix(nodes)[1] @ basis
    telescope = abs(metric[0, 1].imag) + abs(metric[0, 2].imag)
    top = coeffs.max_magnitude()
    assert 1e-6 * telescope / (metric[0, 0].real * top ** 2) < 1e-3 * _OVERLAP_FLOOR / top
