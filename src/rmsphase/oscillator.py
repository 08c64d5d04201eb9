"""Oscillator eigenbasis on the reduced Minkowski space.

Geometry of the spacelike coordinate patch (rho, theta, phi, beta), the
16-state catalogue with exact eigenvalues (a tuple of ``QuantumNumbers``;
a state's catalogue index is its position + 1), the axis profiles of the
four-dimensional oscillator's product eigenfunctions, and the overlap
tables of one resolution, whose ``norms`` row normalizes them.

Each integral is a product of four 1-d integrals, so ``overlap_tables``
evaluates each distinct axis profile once per set of nodes and forms all
pairs at once as weighted matrix products (F * w * g^p) @ F.T: one cached
build of 10x10 tables per resolution, which every overlap below reads.
Each axis's own (2, 10, 10) table is cached too, by node count, so a new
resolution does new work only on the axes whose count is new.
Each entry of ``AXES`` holds its axis's static layout, computed at import:
the distinct profiles (the ten states share 3 polar, 3 rapidity and 4
radial ones), each state's row among them, and which pairs take the odd
rule of the axis's (even, odd) pair.  It also holds its layout's
evaluator, made at import by the axis's factory (``polar_profiles``,
``rapidity_profiles``, ``radial_profiles``), which plans the column of
the distinct profiles' indices once (``specfun``).  A build evaluates
every distinct profile in one call of it: the shared factors once, then
the two Legendre seeds or one Laguerre recurrence over the column, with
nothing planned.  The
polar (and the rapidity) pair stand on one node array; only the two
radial rules have their own nodes, both from one stacked two-pass solve on
the Laguerre recurrence, and their profiles are evaluated on the two
arrays stacked.  The azimuthal integrals use the periodic trapezoid rule,
exact for every m_j - m_i the catalogue has from 2 nodes on.  So every
build from 9 polar, 5 rapidity, 6 radial and 2 azimuthal nodes on is
exact.  This module also holds that certificate: ``exactness_gap``
compares the whole build with the cached build at ``EXACT_NODES``, and a
correct build stays within ``EXACTNESS_BOUND`` of it.  ``table`` reads it
for its ``converged`` column and ``validate`` for its ``exactness`` check.
The reference table's frequency of each catalogue row,
``ROW_FREQUENCIES_MHZ``, sits next to ``DEFAULT_MASS``, the mass it is
read with.

Every integral is dimensionless: lengths are measured in
sqrt(hbar/(M omega)), energies in hbar*omega, so the computed pure numbers
are independent of the frequency, and units enter only through
``PhysicalConstants.coupling_scale``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import quadrature as quad
from .errors import (EvaluationError, ParameterError, require_instance, require_integer,
                     require_real)
from .specfun import laguerre_plan, laguerre_values, legendre_plan, legendre_values

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "PhysicalConstants",
    "QuantumNumbers",
    "NodeCounts",
    "DEFAULT_MASS",
    "ROW_FREQUENCIES_MHZ",
    "embed",
    "state_table",
    "live_indices",
    "AxisSpec",
    "AXES",
    "OverlapTables",
    "overlap_tables",
    "live_entry",
    "gram_matrix",
    "EXACT_NODES",
    "EXACTNESS_BOUND",
    "exactness_gap",
]

# the SI mass of ``PhysicalConstants.from_frequency``: the electron's, in kg
DEFAULT_MASS = 9.109e-31

# Frequencies (MHz) attached to the catalogue rows in the reference table.
ROW_FREQUENCIES_MHZ = {
    1: 240.4, 2: 89.6, 5: 240.4, 6: 240.4, 8: 334.02,
    9: 240.4, 10: 89.6, 13: 240.4, 14: 240.4, 16: 334.02,
}

# The CLI's cap; a build solves both radial parities by two passes of the
# n-term Laguerre recurrence over 2n nodes, O(n^2) work in all.
MAX_NODES = 1024


@dataclass(frozen=True)
class PhysicalConstants:
    """Scales of the problem: mass [kg] and omega [rad/s], each a real number
    that is not a bool, stored as a float.

    Only ``coupling_scale`` is read, by the 1/(M omega^2)^2 prefactor of a
    phase.  hbar is not a field: a phase in units of M omega^2 is
    (dimensionless value) / (M omega^2)^2, from which it cancels.
    """

    mass: float
    omega: float

    def __post_init__(self):
        object.__setattr__(self, "mass", require_real(self.mass, "mass"))
        object.__setattr__(self, "omega", require_real(self.omega, "omega"))
        if not all(0 < v < math.inf for v in (self.mass, self.omega)):
            raise ParameterError("mass and omega must both be finite and positive")
        # a float ** raises on overflow, and a division by an underflowed 0 raises
        try:
            coupling = self.coupling_scale
            prefactor = 1.0 / coupling ** 2
        except (OverflowError, ZeroDivisionError):
            coupling = prefactor = 0.0
        if not (0 < coupling < math.inf and 0 < prefactor < math.inf):
            raise ParameterError(
                f"M omega^2 and 1/(M omega^2)^2 must be finite and positive; "
                f"omega = {self.omega!r} rad/s and mass {self.mass!r} kg put them out of range")

    @property
    def coupling_scale(self) -> float:
        """M omega^2 = (M omega/hbar) * hbar omega, units of energy/length^2.

        Perturbation couplings divided by this are pure numbers, and the
        loop phase per squared radius scales as 1/coupling_scale**2.
        """
        return self.mass * self.omega ** 2

    @classmethod
    def dimensionless(cls) -> "PhysicalConstants":
        return cls(1.0, 1.0)

    @classmethod
    def from_frequency(cls, omega_mhz: float,
                       omega_convention: str = "angular") -> "PhysicalConstants":
        """Build SI constants for the electron mass ``DEFAULT_MASS`` from a
        frequency quoted in MHz.

        omega_convention 'angular' reads the number as rad/s * 1e6,
        'cyclic' as cycles/s * 1e6 (multiplied by 2 pi).
        """
        omega = require_real(omega_mhz, "frequency") * 1e6
        if not (isinstance(omega_convention, str) and omega_convention in ("angular", "cyclic")):
            raise ParameterError(f"unknown omega convention {omega_convention!r}")
        if omega_convention == "cyclic":
            omega *= 2.0 * math.pi
        return cls(mass=DEFAULT_MASS, omega=omega)


@dataclass(frozen=True)
class QuantumNumbers:
    """Index quadruple (n_a, l, n, m) of an oscillator eigenstate, each a
    non-negative integer, stored as an int."""

    n_a: int
    l: int
    n: int
    m: int

    def __post_init__(self):
        for name in ("n_a", "l", "n", "m"):
            value = require_integer(getattr(self, name), name)
            object.__setattr__(self, name, value)
            if value < 0:
                raise ParameterError(f"{name} must be non-negative")

    @property
    def vanishing_polar(self) -> bool:
        """True when l < n, which kills the polar Legendre factor."""
        return self.l < self.n

    @property
    def vanishing_rapidity(self) -> bool:
        """True when m < n, which kills the rapidity Legendre factor."""
        return self.m < self.n

    @property
    def is_null(self) -> bool:
        """True when the wavefunction vanishes identically."""
        return self.vanishing_polar or self.vanishing_rapidity

    @property
    def twice_energy(self) -> int:
        """Twice the eigenvalue in units of hbar*omega: 2 l + 4 n_a + 3."""
        return 2 * self.l + 4 * self.n_a + 3

    @property
    def reduced_energy(self) -> Fraction:
        """Eigenvalue in units of hbar*omega: l + 2 n_a + 3/2, exact."""
        from fractions import Fraction      # only here: it loads decimal
        return Fraction(self.twice_energy, 2)


@dataclass(frozen=True)
class NodeCounts:
    """Quadrature nodes per axis, each an integer in 2..``MAX_NODES``, stored
    as an int.  Every count from the 9 of ``EXACT_NODES`` on gives the same
    tables to roundoff, which ``exactness_gap`` measures."""

    radial: int = 128
    polar: int = 128
    azimuthal: int = 128
    rapidity: int = 128

    def __post_init__(self):
        for name in ("radial", "polar", "azimuthal", "rapidity"):
            value = require_integer(getattr(self, name), f"{name} node count")
            object.__setattr__(self, name, value)
            if not 2 <= value <= MAX_NODES:
                raise ParameterError(f"{name} node count must be in 2..{MAX_NODES}, got {value}")

    @classmethod
    def uniform(cls, n: int) -> "NodeCounts":
        return cls(n, n, n, n)


_STATES = tuple(QuantumNumbers(*qn) for qn in itertools.product((2, 3), repeat=4))


def state_table() -> tuple[QuantumNumbers, ...]:
    """The 16 catalogue states in lexicographic (n_a, l, n, m) order; a
    state's catalogue index is its position + 1.

    Null states stay in the table so the index arithmetic is stable.
    """
    return _STATES


def get_state(index: int) -> QuantumNumbers:
    """The catalogue state of an integer ``index`` in 1..16; numpy integers
    pass, as the int they equal, and a bool does not."""
    index = require_integer(index, "state index")
    if not 1 <= index <= len(_STATES):
        raise ParameterError(f"state index must be in 1..{len(_STATES)}, got {index}")
    return _STATES[index - 1]


# The live (normalizable) states, and each one's row in the overlap tables
# and the coefficient vectors, by catalogue index.
_LIVE_INDICES = tuple(i for i, qn in enumerate(_STATES, start=1) if not qn.is_null)
_LIVE_QNS = tuple(_STATES[i - 1] for i in _LIVE_INDICES)
_ROW = {index: row for row, index in enumerate(_LIVE_INDICES)}


def live_indices() -> tuple[int, ...]:
    """Indices of the normalizable (not identically zero) states."""
    return _LIVE_INDICES


def embed(rho: float, theta: float, phi: float, beta: float) -> np.ndarray:
    """Map the point (rho, theta, phi, beta) of the spacelike coordinate patch
    to the four-vector (t, x, y, z); rho > 0, theta in [0, pi], all four
    finite real numbers, not bools, and the four-vector finite too (|beta|
    past ~710, or a large rho times cosh(beta), overflows).

    Satisfies -t^2 + x^2 + y^2 + z^2 = rho^2 identically.
    """
    rho, theta, phi, beta = map(require_real, (rho, theta, phi, beta),
                                ("rho", "theta", "phi", "beta"))
    if not all(math.isfinite(v) for v in (rho, theta, phi, beta)):
        raise ParameterError(
            f"coordinates must be finite, got rho={rho}, theta={theta}, phi={phi}, beta={beta}")
    if not rho > 0:
        raise ParameterError(f"rho must be positive, got {rho}")
    if not 0.0 <= theta <= math.pi:
        raise ParameterError(f"theta must lie in [0, pi], got {theta}")
    st, ct = math.sin(theta), math.cos(theta)
    try:
        ch, sh = math.cosh(beta), math.sinh(beta)
    except OverflowError:
        ch = sh = math.inf          # the check below refuses the point
    point = (rho * st * sh, rho * st * math.cos(phi) * ch, rho * st * math.sin(phi) * ch,
             rho * ct)
    if not all(map(math.isfinite, point)):
        raise ParameterError(f"the four-vector of rho={rho}, theta={theta}, phi={phi}, "
                             f"beta={beta} overflows")
    return np.array(point)


# ---------------------------------------------------------------------------
# factor functions (dimensionless axis profiles of the product eigenfunction)

def _on_one_row(evaluate, rows: int):
    """f(x) of shape (rows, *x.shape), from ``evaluate`` on x as one (1, x.size)
    row against a plan whose indices form a (rows, 1) column."""

    def f(x):
        x = np.asarray(x, dtype=float)
        return evaluate(x.reshape(1, -1)).reshape(rows, *x.shape)

    return f


def polar_profiles(qns):
    """theta factors (sin theta)^{-1/2} P_l^n(cos theta) of the states ``qns``.

    The Legendre plan of the column of (l, n) is made here, once.  f(theta)
    has shape (len(qns), *theta.shape): the trigonometric factors are taken
    once, and the two Legendre seeds run over the column.  Every rule node
    lies inside (0, pi), away from the axis where it is singular.
    """
    l, n = np.array([(qn.l, qn.n) for qn in qns]).T
    plan = legendre_plan(l[:, None], n[:, None])

    def evaluate(theta):
        s = np.sin(theta)
        return legendre_values(plan, np.cos(theta)) / np.sqrt(s)

    return _on_one_row(evaluate, len(qns))


def rapidity_profiles(qns):
    """beta factors (1 - tanh^2 beta)^{1/4} P_m^{-n}(tanh beta) of the states ``qns``.

    The Legendre plan of the column of (m, -n) is made here, once.  f(beta)
    has shape (len(qns), *beta.shape): tanh and the envelope are taken once,
    and the two Legendre seeds run over the column.
    """
    m, n = np.array([(qn.m, qn.n) for qn in qns]).T
    plan = legendre_plan(m[:, None], -n[:, None])

    def evaluate(beta):
        u = np.tanh(beta)
        return ((1.0 - u) * (1.0 + u)) ** 0.25 * legendre_values(plan, u)

    return _on_one_row(evaluate, len(qns))


def radial_profiles(qns):
    """rho factors rho^{-1/2} s^{l/2} e^{-s/2} L_{n_a}^{l+1/2}(s), s = rho^2,
    of the states ``qns``.

    The Laguerre plan of the column of (n_a, l + 1/2) is made here, once.
    f(rho) has shape (len(qns), *rho.shape): s, e^{-s/2} and rho^{-1/2} are
    taken once, and one Laguerre recurrence runs over the column.  Exactly 0
    wherever e^{-s/2} underflows: the polynomial is taken at s = 0 there,
    since far enough out it would overflow and make 0 * inf.  Every rule
    node has rho > 0, away from the singular origin.
    """
    n_a = np.array([qn.n_a for qn in qns])
    power = 0.5 * np.array([qn.l for qn in qns])[:, None]
    plan = laguerre_plan(n_a[:, None], 2.0 * power + 0.5)

    def evaluate(rho):
        with np.errstate(over="ignore"):
            s = rho * rho
        decay = np.exp(-0.5 * s)
        s = np.where(decay > 0.0, s, 0.0)
        return s ** power * laguerre_values(plan, s) * (decay / np.sqrt(rho))

    return _on_one_row(evaluate, len(qns))


# ---------------------------------------------------------------------------
# overlap tables: every dimensionless integral of one resolution

class OverlapTables(NamedTuple):
    """Read-only tables over the live states, in ``live_indices()`` order.

    ``coupling`` holds the normalized theta, beta and rho integrals of the
    shared coupling factor rho^2 sin^2(theta) cosh^2(beta); ``shared`` is
    that factor's full matrix element, with the phi integral by quadrature.
    """

    norms: np.ndarray
    gram: np.ndarray
    coupling: np.ndarray
    shared: np.ndarray


def _hermitian(table: np.ndarray) -> np.ndarray:
    """A matrix product need not round (i, j) and (j, i) alike; the overlap
    loop divides the anti-Hermitian part of the Gram matrix by r^2."""
    return 0.5 * (table + table.conj().swapaxes(-1, -2))


def _layout(reads: tuple[str, ...], parity_of: str):
    """An axis's static layout: one live state per distinct profile (a profile
    reads the quantum numbers ``reads``), each live state's row among them,
    and the mask of the pairs whose ``parity_of`` numbers sum to odd."""
    keys = [tuple(getattr(qn, name) for name in reads) for qn in _LIVE_QNS]
    unique = list(dict.fromkeys(keys))
    k = np.array([getattr(qn, parity_of) for qn in _LIVE_QNS])
    return ([_LIVE_QNS[keys.index(key)] for key in unique],
            np.array([unique.index(key) for key in keys]), (k[:, None] + k) % 2 == 1)


class AxisSpec(NamedTuple):
    """One separable axis, and the one place where a pair's parity picks its rule.

    ``profiles(x)`` is the axis's evaluator: its factory's (``polar_profiles``,
    ``rapidity_profiles`` or ``radial_profiles``) for the distinct states of
    ``layout``, one row each, made at import with its column planned, so
    a build evaluates it on its nodes and plans nothing.  ``layout`` is the
    axis's ``_layout``, computed once, at import.
    ``rules(n)`` returns the (even, odd) pair of n-node rules, which keeps
    every integral polynomial-exact.  It looks the constructor up on
    ``quad`` at each call, so a wrapper put on the module attribute sees
    every axis build.  The rule constructors are not cached; the axis's
    tables are, by ``_axis_overlaps``, for its last ``AXIS_CACHE_COUNTS``
    counts, so a patched ``AXES`` needs that cache cleared.
    ``weight(x, p)`` is the measure times the p-th power of the shared
    coupling factor on this axis; the three weights at p = 0 are
    the one statement of the measure rho^3 sin^2(theta) cosh(beta), which
    ``validate`` compares with the Jacobian of ``embed``.  ``overlap_tables``
    is the only other reader, so a wrong rule here shows in the tables
    themselves.
    """

    field: str
    profiles: Callable
    layout: tuple[list[QuantumNumbers], np.ndarray, np.ndarray]
    weight: Callable
    rules: Callable


def _axis(field: str, factory: Callable, reads: tuple[str, ...], parity_of: str,
          weight: Callable, rules: Callable) -> AxisSpec:
    """An axis whose ``profiles`` is ``factory``'s evaluator for the distinct
    states of its ``_layout(reads, parity_of)``."""
    layout = _layout(reads, parity_of)
    return AxisSpec(field, factory(layout[0]), layout, weight, rules)


AXES = (
    _axis("polar", polar_profiles, ("l", "n"), "n",
          lambda t, p: np.sin(t) ** (2 + 2 * p), lambda n: quad.polar_rule(n)),
    _axis("rapidity", rapidity_profiles, ("m", "n"), "n",
          lambda b, p: np.cosh(b) ** (1 + 2 * p), lambda n: quad.rapidity_rule(n)),
    _axis("radial", radial_profiles, ("n_a", "l"), "l",
          lambda r, p: r ** (3 + 2 * p), lambda n: quad.radial_rule(n)),
)

# the distinct m_j - m_i of the live pairs, and each pair's index among them
_M_DELTAS, _M_PAIRS = np.unique([j.m - i.m for i in _LIVE_QNS for j in _LIVE_QNS],
                                return_inverse=True)


# node counts per axis that the ``_axis_overlaps`` cache keeps
AXIS_CACHE_COUNTS = 64


@lru_cache(maxsize=AXIS_CACHE_COUNTS * len(AXES))
def _axis_overlaps(field: str, n: int) -> np.ndarray:
    """int f_i f_j weight(x, p) on the ``AXES`` axis ``field`` at ``n`` nodes,
    for p = 0 and 1, as a read-only (2, 10, 10) stack.

    The one cache below ``overlap_tables``, keyed by (field, n), with
    ``AXIS_CACHE_COUNTS`` entries per axis, shared by the axes.  Each build
    asks every axis for one count, so a count that an axis was asked for in
    its last 64 builds is a hit, which calls neither the axis's rule
    constructor nor its profiles.  A miss calls only ``axis.rules`` and
    ``axis.profiles``.  The distinct profiles are evaluated in one call on
    the pair's node arrays stacked: one array on the finite axes, two on
    the radial axis.  One batched product gives every (rule, power) table;
    each state then takes its profile's row, and each pair the rule its
    parity selects."""
    axis = next(axis for axis in AXES if axis.field == field)
    _, rows, odd = axis.layout
    rules = axis.rules(n)
    x = np.stack([rules[0].nodes] if rules[0].nodes is rules[1].nodes
                 else [rule.nodes for rule in rules])
    # (x row, profile, node), and (rule, power, node); a single x row broadcasts
    f = quad.check_finite(axis.profiles(x), x, axis.field).swapaxes(0, 1)
    w = np.stack([rule.weights for rule in rules])[:, None] * np.stack(
        [axis.weight(x, p) for p in (0, 1)], axis=1)
    tables = ((f[:, None] * w[:, :, None]) @ f[:, None].swapaxes(-1, -2))[..., rows[:, None], rows]
    table = _hermitian(np.where(odd, tables[1], tables[0]))
    table.setflags(write=False)
    return table


@lru_cache(maxsize=8)
def overlap_tables(nodes: NodeCounts = NodeCounts()) -> OverlapTables:
    """Every dimensionless integral of the live states at one resolution.

    Cached for the last 8 resolutions.  The polar, rapidity and radial
    integrals follow ``AXES`` and come from ``_axis_overlaps``, which
    caches each axis's tables by count; only the azimuthal integrals and
    the products are formed here on every miss.  A profile that is not
    finite at a node raises EvaluationError naming the axis.
    """
    polar, rapidity, radial = (_axis_overlaps(axis.field, getattr(nodes, axis.field))
                               for axis in AXES)
    overlaps, couplings = polar * rapidity * radial
    phi = quad.periodic_trapezoid(nodes.azimuthal)
    integrals = [quad.integrate(phi, lambda x, d=d: np.exp(1j * d * x)) for d in _M_DELTAS]
    azimuthal = np.array(integrals)[_M_PAIRS].reshape(len(_LIVE_QNS), -1)
    norm_sq = azimuthal.diagonal().real * overlaps.diagonal()
    if (norm_sq <= 0.0).any():
        raise EvaluationError(f"non-positive norm for {_LIVE_QNS[int(np.argmin(norm_sq))]}")
    norms = 1.0 / np.sqrt(norm_sq)
    pair = np.outer(norms, norms)
    coupling = pair * couplings
    tables = OverlapTables(norms, pair * azimuthal * overlaps, coupling, azimuthal * coupling)
    for table in tables:
        table.setflags(write=False)
    return tables


def live_entry(table: np.ndarray, i: int, j: int) -> complex:
    """Entry for catalogue states i, j of a table over the live states;
    exactly 0 when either state is null."""
    get_state(i), get_state(j)      # range checks
    ri, rj = _ROW.get(i), _ROW.get(j)
    if ri is None or rj is None:
        return 0.0 + 0.0j
    return complex(table[ri, rj])


def gram_matrix(nodes: NodeCounts = NodeCounts()) -> tuple[tuple[int, ...], np.ndarray]:
    """Gram matrix of the normalizable states (dimensionless, so it is
    independent of the physical constants).  Returns (indices, matrix);
    the matrix is read-only."""
    require_instance(nodes, NodeCounts, "nodes")
    return live_indices(), overlap_tables(nodes).gram


# Every rule of a build is exact from 9 polar, 5 rapidity, 6 radial and 2
# azimuthal nodes, so a correct build at any node count is within
# EXACTNESS_BOUND (relative) of this one; a wrong rule is not exact at 9
# nodes, so its build is not.
EXACT_NODES = NodeCounts.uniform(9)
EXACTNESS_BOUND = 1e-12


def exactness_gap(nodes: NodeCounts) -> float:
    """Worst gap of the four tables of the build from those of the exact
    build, each relative to that table's largest entry."""
    return float(np.max([np.max(np.abs(a - b)) / np.max(np.abs(b)) for a, b in
                         zip(overlap_tables(nodes), overlap_tables(EXACT_NODES))]))
