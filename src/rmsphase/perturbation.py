"""Fractional-azimuth couplings and first-order correction coefficients.

The two perturbing operators share the factor rho^2 sin^2(theta)
cosh^2(beta) and differ only in the azimuthal profile, cos^2(2 phi/3) for
the cosine channel and sin^2(2 phi/3) for the sine channel.  The
non-integer angular coefficient makes the phi integrals complex for
m_bra != m_ket, which is the whole mechanism of interest.

A coupling matrix is the closed-form phi integrals times the shared-factor
table of ``oscillator.overlap_tables``, elementwise.  One masked division
of both by the energy gaps E_j - E_i gives every state's coefficients, and
``correction_coefficients(j)`` reads column j.  All are dimensionless (the
hbar/(M omega) length^2 factor and the hbar omega energy denominators are
attached symbolically), so one build per resolution serves any constants.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import oscillator as osc
from .errors import CorrectionError, ParameterError

__all__ = [
    "Channel",
    "CorrectionCoefficients",
    "phi_integral",
    "matrix_element",
    "shared_factor_element",
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

    so the two channels always sum to 2 pi delta_{0}.
    """
    if m_bra != int(m_bra) or m_ket != int(m_ket):
        raise ParameterError("azimuthal indices must be integers")
    delta = int(m_ket) - int(m_bra)
    oscillatory = (27j * delta - 12.0 * _SQRT3) / (36 * delta * delta - 64)
    base = math.pi if delta == 0 else 0.0
    if channel is Channel.COSINE:
        return base + oscillatory
    if channel is Channel.SINE:
        return base - oscillatory
    raise ParameterError(f"unknown channel {channel!r}")


# Reduced energies l + 2 n_a + 3/2 of the live states, in overlap-table
# order: half-integers, so every gap E_j - E_i is exact.
_ENERGIES = np.array([float(qn.reduced_energy) for qn in osc._live_qns()])


@lru_cache(maxsize=None)
def _phi_table(channel: Channel) -> np.ndarray:
    """phi_integral between the live states, in overlap-table order."""
    m = [qn.m for qn in osc._live_qns()]
    table = np.array([[phi_integral(mi, mj, channel) for mj in m] for mi in m])
    table.setflags(write=False)
    return table


def _couplings(channel: Channel, nodes: osc.NodeCounts) -> np.ndarray:
    """Dimensionless <psi_i | V_channel | psi_j> over the live states
    (rho^2 in units hbar/(M omega))."""
    return _phi_table(channel) * osc.overlap_tables(nodes).coupling


def matrix_element(i: int, j: int, channel: Channel,
                   constants: osc.PhysicalConstants | None = None,
                   nodes: osc.NodeCounts = osc.NodeCounts()) -> complex:
    """<psi_i | V | psi_j> per unit coupling; zero if either state is null.

    Dimensionless when ``constants`` is None, otherwise multiplied by the
    length^2 scale hbar/(M omega) so the value is in SI m^2.
    """
    value = osc.live_entry(_couplings(channel, nodes), i, j)
    if constants is not None:
        value *= constants.length2_scale
    return value


def shared_factor_element(i: int, j: int,
                          nodes: osc.NodeCounts = osc.NodeCounts()) -> complex:
    """Matrix element of the phi-independent factor rho^2 sin^2 theta cosh^2 beta.

    Computed with the azimuthal integral done by quadrature instead of the
    closed form; the two channels must sum to exactly this (cos^2 + sin^2 = 1).
    """
    return osc.live_entry(osc.overlap_tables(nodes).shared, i, j)


@dataclass(frozen=True)
class CorrectionCoefficients:
    """First-order expansion coefficients of a perturbed state.

    ``a`` holds the cosine-channel coefficients, ``b`` the sine-channel
    ones, both keyed by catalogue index and restricted to normalizable
    states outside the degenerate subspace of ``state_index``.  Values are
    in the coupling units of the constants they were computed with (pure
    numbers for dimensionless constants; SI values carry 1/(M omega^2)).

    Both mappings are read-only copies, so ``connection_sums`` -- the
    four numbers every loop step reads, sum|a|^2, sum|b|^2,
    sum conj(a) b and its conjugate -- are computed once, at
    construction, and cannot go stale.
    """

    state_index: int
    a: Mapping[int, complex] = field(compare=False)
    b: Mapping[int, complex] = field(compare=False)
    connection_sums: tuple[float, float, complex, complex] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        a, b = MappingProxyType(dict(self.a)), MappingProxyType(dict(self.b))
        sum_ab = complex(sum(np.conj(a[i]) * b[i] for i in a))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "connection_sums", (
            sum(abs(v) ** 2 for v in a.values()),
            sum(abs(v) ** 2 for v in b.values()),
            sum_ab,
            sum_ab.conjugate(),
        ))

    def sum_abs2_a(self) -> float:
        return self.connection_sums[0]

    def sum_abs2_b(self) -> float:
        return self.connection_sums[1]

    def sum_conj_a_b(self) -> complex:
        """sum over i of conj(a_i) b_i, the cross inner product <psi'|psi''>."""
        return self.connection_sums[2]

    def max_magnitude(self) -> float:
        return max(map(abs, (*self.a.values(), *self.b.values())), default=0.0)

    def with_basis_phases(self, phases: dict[int, float],
                          own_phase: float = 0.0) -> "CorrectionCoefficients":
        """Coefficients after redefining psi_k -> e^{i chi_k} psi_k.

        a_i picks up e^{-i chi_i} e^{+i chi_j}; the cross sums that feed
        the loop phase are invariant under this map.
        """
        shift = cmath.exp(1j * own_phase)
        a, b = ({i: v * cmath.exp(-1j * phases.get(i, 0.0)) * shift for i, v in c.items()}
                for c in (self.a, self.b))
        return CorrectionCoefficients(self.state_index, a, b)


@lru_cache(maxsize=8)
def _coefficient_tables(nodes: osc.NodeCounts) -> np.ndarray:
    """Every live state's dimensionless coefficients, read-only: entry
    [c, i, j] is <psi_i|V_c|psi_j> / (E_j - E_i), and 0 where E_i = E_j.
    Real and imaginary parts are divided separately, as a complex by a
    float is; numpy's complex division multiplies by a rounded reciprocal.
    """
    gap = _ENERGIES - _ENERGIES[:, None]
    gap[gap == 0.0] = np.inf        # x / inf = 0: degenerate entries vanish
    couplings = np.stack([_couplings(c, nodes) for c in Channel])
    tables = couplings.real / gap + 1j * (couplings.imag / gap)
    tables.setflags(write=False)
    return tables


def correction_coefficients(j: int,
                            constants: osc.PhysicalConstants = osc.PhysicalConstants.dimensionless(),
                            nodes: osc.NodeCounts = osc.NodeCounts()) -> CorrectionCoefficients:
    """First-order coefficients a_i = <psi_i|V_cos|psi_j> / (K_j - K_i).

    Column j of ``_coefficient_tables``: sums run over normalizable
    catalogue states outside the degenerate subspace of j (the energy
    denominators are exact multiples of hbar omega); entries for null
    intermediate states are absent, which is the same as zero.
    """
    if osc.get_state(j).is_null:
        raise CorrectionError(
            f"state {j} vanishes identically; corrections undefined")
    scale = 1.0 / constants.coupling_scale
    live = osc.live_indices()
    col = live.index(j)
    rows = np.flatnonzero(_ENERGIES != _ENERGIES[col])
    keys = [live[row] for row in rows]
    a, b = (dict(zip(keys, (table[rows, col] * scale).tolist()))
            for table in _coefficient_tables(nodes))
    return CorrectionCoefficients(j, a, b)
