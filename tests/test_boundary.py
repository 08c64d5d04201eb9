"""The Python API's contract, over every callable that ``rmsphase`` exports:
a finite result, or an ``RmsPhaseError``, never a bare exception.

Each exported callable is called with valid arguments, some of which are
replaced by hostile values.  Two exports are classes that the package
never calls with outside input: ``PhaseResult``, the record it returns,
and the enum ``Channel``, whose call is Python's lookup by value.  They
are left out.  A numpy integer gives what the Python int it equals gives,
and every record keeps it as that int.
"""

import cmath
import dataclasses
import inspect
import math
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rmsphase
from rmsphase import (
    Channel,
    CorrectionCoefficients,
    LoopParams,
    NodeCounts,
    PhysicalConstants,
    QuantumNumbers,
    berry_phase_loop_connection,
    berry_phase_loop_overlap,
    correction_coefficients,
    embed,
    gram_matrix,
    matrix_element,
    phi_integral,
)
from rmsphase.errors import ParameterError, RmsPhaseError

NODES = NodeCounts.uniform(16)
COEFFS = correction_coefficients(1, NODES)

# one valid value per parameter name of the exported callables
VALID = {
    "j": 1, "i": 1, "constants": PhysicalConstants.dimensionless(),
    "loop": LoopParams(steps=64), "nodes": NODES,
    "m_bra": 0, "m_ket": 1, "channel": Channel.COSINE,
    "rho": 1.0, "theta": 1.0, "phi": 0.5, "beta": -0.5,
    "radius": None, "steps": 64,
    "mass": 1.0, "omega": 1.0, "omega_mhz": 240.4, "omega_convention": "cyclic",
    "n_a": 2, "l": 3, "n": 2, "m": 3,
    "radial": 16, "polar": 17, "azimuthal": 18, "rapidity": 19,
    "state_index": 1, "a": {5: 0.1 + 0.2j}, "b": {9: -0.3},
}

RECORDS = {"nodes": NodeCounts, "loop": LoopParams, "constants": PhysicalConstants}
WRONG_RECORDS = [NODES, LoopParams(), PhysicalConstants.dimensionless(), COEFFS]

HOSTILE = st.sampled_from([
    math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, 0, 0.0, -1, -2.5,
    True, False, np.True_, np.int64(5), np.uint8(255), np.int16(-1), np.uint64(2 ** 63),
    np.float64(0.5), np.float32(2.0),
    10 ** 400, -10 ** 400, "x", "1", "", None, [1], (2, 3), {5: "x"}, {5: 10 ** 400},
    {"5": 1.0}, np.zeros(3), Channel.COSINE,
])

TARGETS = {name: getattr(rmsphase, name) for name in rmsphase.__all__
           if name not in ("PhaseResult", "Channel")}
TARGETS["PhysicalConstants.from_frequency"] = PhysicalConstants.from_frequency


def finite(value) -> bool:
    """True when every number that ``value`` holds is finite; ints always are."""
    if isinstance(value, (int, np.integer, str, Enum)) or value is None:
        return True
    if isinstance(value, (float, complex, np.number)):
        return cmath.isfinite(value)
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    if isinstance(value, dict):
        return all(map(finite, value.values()))
    if isinstance(value, (tuple, list)):
        return all(map(finite, value))
    if dataclasses.is_dataclass(value):
        return all(finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    raise AssertionError(f"no finiteness rule for {type(value).__name__}")


def parameters(function) -> list[str]:
    return list(inspect.signature(function).parameters)


@st.composite
def calls(draw):
    name = draw(st.sampled_from(sorted(TARGETS)))
    arguments = {}
    for parameter in parameters(TARGETS[name]):
        pool = [HOSTILE, st.just(VALID[parameter])]
        if parameter in RECORDS:
            pool.append(st.sampled_from([r for r in WRONG_RECORDS
                                         if not isinstance(r, RECORDS[parameter])]))
        arguments[parameter] = draw(st.one_of(pool))
    return name, arguments


@settings(max_examples=400, deadline=None, database=None)
@given(calls())
def test_every_export_gives_a_finite_value_or_a_package_error(call):
    name, arguments = call
    try:
        result = TARGETS[name](**arguments)
    except RmsPhaseError:
        return
    assert finite(result), (name, arguments, result)


# id -> (call, message).  The first group raised a bare exception, or passed
# a bool, before the boundary checked it; the second pins checks that no
# other test reached.
BAD_INPUT = {
    "gram-string": (lambda: gram_matrix("x"), "nodes must be a NodeCounts"),
    "gram-list": (lambda: gram_matrix([16]), "nodes must be a NodeCounts"),
    "coefficients-string": (lambda: correction_coefficients(1, nodes="x"),
                            "nodes must be a NodeCounts"),
    "element-int": (lambda: matrix_element(1, 5, Channel.COSINE, nodes=3),
                    "nodes must be a NodeCounts"),
    "embed-string": (lambda: embed("1", 1.0, 0.0, 0.0), "rho must be a number"),
    "embed-bool": (lambda: embed(True, 1.0, 0.0, 0.0), "rho must be a number"),
    "embed-huge-int": (lambda: embed(1.0, 1.0, 0.0, 10 ** 400), "beta is too large for a float"),
    "coefficient-string": (lambda: CorrectionCoefficients(1, {5: "x"}, {5: 1.0}),
                           "mapping from state index"),
    "coefficients-none": (lambda: CorrectionCoefficients(1, None, None),
                          "mapping from state index"),
    "coefficient-bool": (lambda: CorrectionCoefficients(1, {5: True}, {}),
                         "mapping from state index"),
    "coefficient-huge-int": (lambda: CorrectionCoefficients(1, {5: 10 ** 400}, {}),
                             "must be finite"),
    "frequency-huge-int": (lambda: PhysicalConstants.from_frequency(10 ** 400),
                           "frequency is too large"),
    "radius-huge-int": (lambda: LoopParams(radius=10 ** 400), "loop radius is too large"),
    "phi-none": (lambda: phi_integral(None, 0, Channel.COSINE),
                 "azimuthal index must be an integer"),
    "convention-array": (lambda: PhysicalConstants.from_frequency(1.0, np.zeros(2)),
                         "unknown omega convention"),
    # numpy scalars overflowed with a RuntimeWarning before these refusals
    "embed-numpy-overflow": (lambda: embed(np.float64(4.0), 1.0, 0.0, 709.5),
                             "four-vector .* overflows"),
    "frequency-numpy-overflow": (lambda: PhysicalConstants.from_frequency(np.float64(1e300)),
                                 "finite and positive"),
    "radius-numpy-overflow": (lambda: berry_phase_loop_connection(
        1, PhysicalConstants.dimensionless(), LoopParams(radius=np.float64(1e200)), NODES),
        "has no finite square"),

    "convention-string": (lambda: PhysicalConstants.from_frequency(1.0, "x"),
                          "unknown omega convention 'x'"),
    "negative-quantum-number": (lambda: QuantumNumbers(2, 2, 2, -1), "m must be non-negative"),
    "channel-string": (lambda: phi_integral(0, 1, "cos"), "unknown channel 'cos'"),
}


@pytest.mark.parametrize("case", BAD_INPUT)
def test_bad_input_is_a_parameter_error(case):
    call, message = BAD_INPUT[case]
    with pytest.raises(ParameterError, match=message):
        call()


def test_a_record_stays_finite_after_the_overlap_route_runs_on_it():
    # the overlap chain's memo once kept the Gram matrix's bytes on the record,
    # which failed the property test above whenever it drew this record after
    # a loop-overlap call on it
    berry_phase_loop_overlap(1, PhysicalConstants.dimensionless(), LoopParams(steps=64), NODES)
    assert finite(correction_coefficients(1, NODES))


# ---------------------------------------------------------------------------
# numpy integers: each is kept as the int it equals, so its fixed width never
# reaches the arithmetic.  They once overflowed (a RuntimeWarning) into a bare
# ValueError, a false EvaluationError or a wrong energy.

@pytest.mark.parametrize("kind, n", [(np.uint64, 33), (np.uint8, 34), (np.uint16, 1024),
                                     (np.uint32, 40)], ids=lambda v: getattr(v, "__name__", v))
def test_numpy_node_counts_build_the_python_ints_tables(fresh_tables, kind, n):
    # equal records hash alike, so each build starts from empty caches
    built = gram_matrix(NodeCounts.uniform(kind(n)))[1].tobytes()
    for cache in (rmsphase.oscillator.overlap_tables, rmsphase.oscillator._axis_overlaps):
        cache.cache_clear()
    assert built == gram_matrix(NodeCounts.uniform(n))[1].tobytes()


@pytest.mark.parametrize("kind, steps", [(np.uint8, 255), (np.int16, 32767)],
                         ids=lambda v: getattr(v, "__name__", v))
def test_numpy_loop_steps_give_the_python_ints_phases(kind, steps):
    def route_bits(loop):
        rmsphase.berry._loop_samples.cache_clear()      # cached by step count, which hashes alike
        routes = rmsphase.oracle_comparison(8, PhysicalConstants.dimensionless(), loop)
        return [routes[name].dimensionless_value.hex()
                for name in ("closed", "loop_connection", "loop_overlap")]

    assert route_bits(LoopParams(steps=kind(steps))) == route_bits(LoopParams(steps=steps))


def test_numpy_quantum_number_gives_the_python_ints_energy():
    assert QuantumNumbers(np.uint8(100), 2, 2, 2).twice_energy == 407


def test_records_keep_numpy_integers_as_ints():
    records = [NodeCounts(np.uint8(16), np.uint16(17), np.int32(18), np.uint64(19)),
               QuantumNumbers(np.uint8(2), np.int16(3), np.uint64(2), np.int32(3))]
    for record in records:
        assert all(type(getattr(record, f.name)) is int for f in dataclasses.fields(record))
    assert type(LoopParams(steps=np.uint16(64)).steps) is int
    coeffs = CorrectionCoefficients(np.uint8(1), {np.int64(5): 0.1}, {np.uint8(9): -0.3})
    assert type(coeffs.state_index) is int
    assert coeffs.a[rmsphase.oscillator._ROW[5]] == 0.1
    assert coeffs.b[rmsphase.oscillator._ROW[9]] == -0.3
