"""Fractional-azimuth couplings and first-order correction coefficients.

The two perturbing operators share the factor rho^2 sin^2(theta)
cosh^2(beta) and differ only in the azimuthal profile, cos^2(2 phi/3) for
the cosine channel and sin^2(2 phi/3) for the sine channel.  The
non-integer angular coefficient makes the phi integrals complex for
m_bra != m_ket, which is the whole mechanism of interest.

The two coupling matrices are one stack, in ``Channel`` order: the
closed-form phi integrals of both channels (a constant built at import,
from one ``phi_integral`` call per distinct m_j - m_i) times the
shared-factor table of ``oscillator.overlap_tables``, elementwise.  One
masked division of the stack by the energy gaps E_j - E_i gives every
state's coefficients, and ``correction_coefficients(j)`` hands over
column j as two vectors over the live states, with no copy.  All are pure
numbers: lengths^2 in hbar/(M omega), energies in hbar omega, couplings
in M omega^2.
So one build per resolution serves any constants, whose units enter only
through the 1/(M omega^2)^2 prefactor of a phase (``berry``).

Every coefficient set, one of a resolution's ten records or one a caller
builds from mappings, takes its sums and largest |coefficient| from one
array pass over its columns (``_fill_records``).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from numbers import Number

import numpy as np

from . import oscillator as osc
from .errors import ParameterError, require_instance, require_integer

__all__ = [
    "Channel",
    "CorrectionCoefficients",
    "phi_integral",
    "matrix_element",
    "correction_coefficients",
]

_SQRT3 = math.sqrt(3.0)


class Channel(Enum):
    """Azimuthal profile of a coupling operator."""

    COSINE = "cos^2(2*phi/3)"
    SINE = "sin^2(2*phi/3)"


def phi_integral(m_bra: int, m_ket: int, channel: Channel) -> complex:
    """Closed form of the azimuthal matrix-element integral.

    integral over [0, 2 pi) of e^{-i(m_bra+1/2) phi} g(phi) e^{i(m_ket+1/2) phi}
    with g the channel profile.  Writing delta = m_ket - m_bra (an integer)
    and using cos^2(2 phi/3) = (1 + cos(4 phi/3))/2,

        Phi_cos(delta) = pi delta_{0} + (27 i delta - 12 sqrt3)/(36 delta^2 - 64)
        Phi_sin(delta) = pi delta_{0} - (27 i delta - 12 sqrt3)/(36 delta^2 - 64)

    so the two channels always sum to 2 pi delta_{0}.  Each index passes
    ``errors.require_integer``, as every index does, and delta is taken of
    the ints it returns; an index or a delta^2 too large for a float is
    refused too.
    """
    m_bra = require_integer(m_bra, "azimuthal index")
    m_ket = require_integer(m_ket, "azimuthal index")
    delta = m_ket - m_bra
    try:    # each index, and 36 delta^2 - 64, as a float
        float(m_bra) + float(m_ket)
        oscillatory = (27j * delta - 12.0 * _SQRT3) / (36 * delta * delta - 64)
    except OverflowError:   # the index, of hundreds of digits, is not named
        raise ParameterError("azimuthal indices too large for a float") from None
    base = math.pi if delta == 0 else 0.0
    if channel is Channel.COSINE:
        return base + oscillatory
    if channel is Channel.SINE:
        return base - oscillatory
    raise ParameterError(f"unknown channel {channel!r}")


# Reduced energies l + 2 n_a + 3/2 of the live states, in overlap-table
# order: half-integers, so every gap E_j - E_i is exact.
_ENERGIES = 0.5 * np.array([qn.twice_energy for qn in osc._LIVE_QNS], dtype=float)


# phi_integral between the live states, in overlap-table order, for both
# channels in ``Channel`` order: entry [c, i, j] is phi_integral(m_i, m_j, c),
# which reads only m_j - m_i, so one call per distinct difference is spread
# over the pairs.
_PHI = np.array([[phi_integral(0, d, c) for d in osc._M_DELTAS]
                 for c in Channel])[:, osc._M_PAIRS].reshape(len(Channel), len(_ENERGIES), -1)
_PHI.setflags(write=False)


def _couplings(nodes: osc.NodeCounts) -> np.ndarray:
    """Dimensionless <psi_i | V_c | psi_j> over the live states, both channels
    stacked in ``Channel`` order (rho^2 in units hbar/(M omega))."""
    return _PHI * osc.overlap_tables(nodes).coupling


def matrix_element(i: int, j: int, channel: Channel,
                   nodes: osc.NodeCounts = osc.NodeCounts()) -> complex:
    """Dimensionless <psi_i | V | psi_j> per unit coupling (rho^2 in units
    hbar/(M omega)); zero if either state is null."""
    if not isinstance(channel, Channel):
        raise ParameterError(f"unknown channel {channel!r}")
    require_instance(nodes, osc.NodeCounts, "nodes")
    return osc.live_entry(_couplings(nodes)[list(Channel).index(channel)], i, j)


def _write_entries(j: int, values, column: np.ndarray) -> None:
    """Write ``values``, a mapping from catalogue index to number (not a
    bool), keyed by live states other than j, into ``column``, a zeroed
    complex vector over ``osc.live_indices()``: each entry fills its row,
    and the others, j's own among them, stay 0.  Its keys pass
    ``require_integer``, as every state index does, and the ints it returns
    place the entries."""
    if not (isinstance(values, Mapping) and all(
            isinstance(v, Number) and not isinstance(v, bool) for v in values.values())):
        raise ParameterError(f"coefficients of state {j} must be a mapping from state index "
                             f"to number, got {values!r}")
    # a bool or a float key would hash as the int it equals
    keys = [require_integer(i, "coefficient key") for i in values]
    if any(i == j or i not in osc._ROW for i in keys):
        raise ParameterError(
            f"coefficients of state {j} are keyed by the other live states "
            f"{osc.live_indices()}, got {keys}")
    column[[osc._ROW[i] for i in keys]] = list(values.values())


@dataclass(frozen=True, eq=False)
class CorrectionCoefficients:
    """First-order expansion coefficients of a perturbed state.

    ``a`` holds the cosine-channel coefficients, ``b`` the sine-channel
    ones, as read-only complex vectors over ``osc.live_indices()``: entry k
    is live state k's coefficient.  The correction is orthogonal to the
    state, so its own entry reads 0 (in the package's sets, so does its
    energy level).  Values are pure numbers, per coupling in units of
    M omega^2.  The constructor takes ``a`` and ``b`` as mappings from
    catalogue index, where a state left out reads 0 (``_write_entries``); a
    mapping keyed by the state itself, or anything but a mapping, raises
    ParameterError, and ``state_index`` must be the integer index of a
    live state, kept as an int.

    ``connection_sums`` -- sum|a|^2, sum|b|^2 and sum conj(a) b, the cross
    inner product <psi'|psi''> -- are what every loop route reads, taken
    once, at construction, together with ``max_magnitude()``, the largest
    |coefficient| (``_fill_records``).  A set whose sums are not finite (a
    nan or infinite entry, an int too large for a float, or one whose
    square overflows) raises ParameterError.  Two sets compare equal only
    when they are the same object.
    """

    state_index: int
    a: np.ndarray
    b: np.ndarray
    connection_sums: tuple[float, float, complex] = field(init=False, repr=False)
    _max_magnitude: float = field(init=False, repr=False)

    def __post_init__(self):
        j = require_integer(self.state_index, "state index")
        object.__setattr__(self, "state_index", j)
        if osc.get_state(j).is_null:        # get_state checks the range
            raise ParameterError(f"coefficients belong to one of the live states "
                                 f"{osc.live_indices()}; state {j} vanishes identically")
        table = np.zeros((len(Channel), len(_ENERGIES), 1), dtype=complex)
        try:    # an int too large for a float overflows as it fills the table
            for values, column in zip((self.a, self.b), table[..., 0]):
                _write_entries(j, values, column)
        except OverflowError:
            finite = False
        else:
            table.setflags(write=False)
            with np.errstate(over="ignore", invalid="ignore"):     # refused below
                _fill_records(table, (self,))
            sum_aa, sum_bb, sum_ab = self.connection_sums
            # false too at a nan entry
            finite = all(map(math.isfinite, (sum_aa, sum_bb, sum_ab.real, sum_ab.imag)))
        if not finite:
            raise ParameterError(f"coefficients of state {j} must be finite, with finite "
                                 f"sums of |a|^2, |b|^2 and conj(a) b")

    def max_magnitude(self) -> float:
        return self._max_magnitude


def _fill_records(tables: np.ndarray, records) -> None:
    """Give each of ``records`` its column of ``tables``, a read-only
    (2, 10, k) complex array of k coefficient sets in ``Channel`` order:
    ``a`` and ``b`` as views of the column, ``connection_sums`` and
    ``_max_magnitude``.

    Each sum adds its column's terms one at a time in row order, from +0,
    with each step the one Python's float and complex arithmetic takes
    where numpy's own would round differently: |v| is ``np.hypot`` of the
    parts (not ``np.abs``), its square ``np.float_power(m, 2.0)`` (not
    m * m), and conj(x) y is formed from the parts as Python's complex
    product forms it (not numpy's).  ``np.add.accumulate`` adds down the
    rows in order, where ``np.add.reduce`` and, from Python 3.12, the
    interpreter's ``sum`` would not, and + 0.0 turns a sum of -0.0 terms
    into the +0 a fold from +0 gives.
    """
    re, im = tables.real, tables.imag       # [channel, row, column]
    magnitudes = np.hypot(re, im)
    terms = np.empty((4, *tables.shape[1:]))
    np.float_power(magnitudes, 2.0, out=terms[:2])
    np.multiply(re[0], re[1], out=terms[2])
    terms[2] += im[0] * im[1]
    np.multiply(re[0], im[1], out=terms[3])
    terms[3] -= im[0] * re[1]
    sums = (np.add.accumulate(terms, axis=1)[:, -1] + 0.0).T.tolist()
    tops = magnitudes.max(axis=(0, 1)).tolist()
    for column, (record, (aa, bb, ab_re, ab_im), top) in enumerate(zip(records, sums, tops)):
        vars(record).update(a=tables[0, :, column], b=tables[1, :, column],
                            connection_sums=(aa, bb, complex(ab_re, ab_im)),
                            _max_magnitude=top)


@lru_cache(maxsize=8)
def _coefficient_tables(nodes: osc.NodeCounts) -> tuple[CorrectionCoefficients, ...]:
    """Every live state's coefficient set, in live-row order, built with
    the read-only table whose columns they are: entry [c, i, j] is
    <psi_i|V_c|psi_j> / (E_j - E_i), and 0 where E_i = E_j.  Real and
    imaginary parts are divided separately, as a complex by a float is;
    numpy's complex division multiplies by a rounded reciprocal.  The
    records skip the constructor's checks, which a package table passes:
    its entries are finite, and 0 on each column's own state.
    """
    gap = _ENERGIES - _ENERGIES[:, None]
    gap[gap == 0.0] = np.inf        # x / inf = 0: degenerate entries vanish
    couplings = _couplings(nodes)
    tables = couplings.real / gap + 1j * (couplings.imag / gap)
    tables.setflags(write=False)
    records = tuple(object.__new__(CorrectionCoefficients) for _ in _ENERGIES)
    for record, j in zip(records, osc.live_indices()):
        vars(record)["state_index"] = j
    _fill_records(tables, records)
    return records


def correction_coefficients(j: int,
                            nodes: osc.NodeCounts = osc.NodeCounts()) -> CorrectionCoefficients:
    """First-order coefficients a_i = <psi_i|V_cos|psi_j> / (K_j - K_i).

    Column j of ``_coefficient_tables``' table, read-only and not copied:
    entry i is live state i's coefficient, exactly 0 on the energy level
    of j (the energy denominators are exact multiples of hbar omega); null
    states have no entry, which is the same as zero.  The ten records of a
    resolution are built with its table, so this is a lookup, and a numpy
    integer j gets the record whose ``state_index`` is a Python int.
    """
    if osc.get_state(j).is_null:
        raise ParameterError(
            f"state {j} vanishes identically; corrections undefined")
    require_instance(nodes, osc.NodeCounts, "nodes")
    return _coefficient_tables(nodes)[osc._ROW[j]]
