"""Oscillator eigenbasis on the reduced Minkowski space.

Geometry of the spacelike coordinate patch (rho, theta, phi, beta), the
16-state catalogue with exact eigenvalues, and numerically normalized
eigenfunctions of the four-dimensional oscillator.

Each integral is a product of four 1-d integrals, so ``overlap_tables``
evaluates every state's axis profiles once per rule and forms all pairs at
once as weighted matrix products (F * w * g^p) @ F.T: one cached build of
10x10 tables per resolution, which every overlap below reads.  ``AXES``
says, for the polar, rapidity and radial axes, which rule a pair's parity
selects; the build and the doubling self-check both read it.

Internally every integral is dimensionless: lengths are measured in
sqrt(hbar/(M omega)), energies in hbar*omega.  ``PhysicalConstants``
converts at the boundary, which keeps the SI conventions in one place and
makes the computed pure numbers independent of the frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import quadrature as quad
from .errors import DomainError, NormalizationError, ParameterError
from .specfun import assoc_legendre, gen_laguerre

__all__ = [
    "PhysicalConstants",
    "QuantumNumbers",
    "RmsPoint",
    "StateRecord",
    "NodeCounts",
    "DEFAULT_PLANCK",
    "DEFAULT_MASS",
    "embed",
    "measure_weight",
    "eigenvalue",
    "eval_unnormalized",
    "normalization_constant",
    "eval_state",
    "state_table",
    "live_indices",
    "AxisSpec",
    "AXES",
    "OverlapTables",
    "overlap_tables",
    "live_entry",
    "gram_matrix",
]

# default SI inputs: Planck-constant reading 6.626e-34 J s, electron mass
DEFAULT_PLANCK = 6.626e-34
DEFAULT_MASS = 9.109e-31

# The CLI's 1024 doubled; every rule is built from a dense n x n Jacobi matrix.
MAX_NODES = 2048


@dataclass(frozen=True)
class PhysicalConstants:
    """Scales of the problem: hbar [J s], mass [kg], omega [rad/s]."""

    hbar: float
    mass: float
    omega: float

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.hbar, self.mass, self.omega)):
            raise ParameterError("hbar, mass and omega must all be finite and positive")

    @property
    def inverse_length2(self) -> float:
        """M omega / hbar, the 1/length^2 scale of the Gaussian factor."""
        return self.mass * self.omega / self.hbar

    @property
    def length2_scale(self) -> float:
        """hbar / (M omega), the length^2 scale."""
        return self.hbar / (self.mass * self.omega)

    @property
    def energy_scale(self) -> float:
        """hbar omega."""
        return self.hbar * self.omega

    @property
    def coupling_scale(self) -> float:
        """M omega^2 = (M omega/hbar) * hbar omega, units of energy/length^2.

        Perturbation couplings divided by this are pure numbers, and the
        loop phase per squared radius scales as 1/coupling_scale**2.
        """
        return self.mass * self.omega ** 2

    @classmethod
    def dimensionless(cls) -> "PhysicalConstants":
        return cls(1.0, 1.0, 1.0)

    @classmethod
    def from_frequency(cls, omega_mhz: float,
                       omega_convention: str = "angular",
                       hbar_convention: str = "hbar",
                       planck_value: float = DEFAULT_PLANCK,
                       mass: float = DEFAULT_MASS) -> "PhysicalConstants":
        """Build SI constants from a frequency quoted in MHz.

        omega_convention 'angular' reads the number as rad/s * 1e6,
        'cyclic' as cycles/s * 1e6 (multiplied by 2 pi).  hbar_convention
        'hbar' takes planck_value as hbar directly, 'h' divides by 2 pi.
        """
        if omega_convention not in ("angular", "cyclic"):
            raise ParameterError(f"unknown omega convention {omega_convention!r}")
        if hbar_convention not in ("hbar", "h"):
            raise ParameterError(f"unknown hbar convention {hbar_convention!r}")
        omega = omega_mhz * 1e6
        if omega_convention == "cyclic":
            omega *= 2.0 * math.pi
        hbar = planck_value
        if hbar_convention == "h":
            hbar /= 2.0 * math.pi
        return cls(hbar=hbar, mass=mass, omega=omega)


@dataclass(frozen=True)
class QuantumNumbers:
    """Index quadruple (n_a, l, n, m) of an oscillator eigenstate."""

    n_a: int
    l: int
    n: int
    m: int

    def __post_init__(self):
        for name in ("n_a", "l", "n", "m"):
            if getattr(self, name) < 0:
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
    def reduced_energy(self) -> Fraction:
        """Eigenvalue in units of hbar*omega: l + 2 n_a + 3/2, exact."""
        return Fraction(self.l + 2 * self.n_a) + Fraction(3, 2)


@dataclass(frozen=True)
class RmsPoint:
    """Point (rho, theta, phi, beta) of the spacelike coordinate patch."""

    rho: float
    theta: float
    phi: float
    beta: float

    def __post_init__(self):
        if not self.rho > 0:
            raise ParameterError(f"rho must be positive, got {self.rho}")
        if not 0.0 <= self.theta <= math.pi:
            raise ParameterError(f"theta must lie in [0, pi], got {self.theta}")


@dataclass(frozen=True)
class StateRecord:
    """Catalogue row: index, quantum numbers, exact eigenvalue, subspace.

    ``identically_zero`` marks the l < n states whose polar factor kills
    them; ``vanishing_rapidity`` marks the m < n states killed by the
    rapidity factor.  Both classes evaluate to zero everywhere and have no
    normalization; ``is_null`` is their union.
    """

    index: int
    qn: QuantumNumbers
    energy_factor: Fraction
    subspace: int
    identically_zero: bool
    vanishing_rapidity: bool

    @property
    def is_null(self) -> bool:
        return self.identically_zero or self.vanishing_rapidity


@dataclass(frozen=True)
class NodeCounts:
    """Quadrature nodes per axis, each in 2..``MAX_NODES``."""

    radial: int = 128
    polar: int = 128
    azimuthal: int = 128
    rapidity: int = 128

    def __post_init__(self):
        for name in ("radial", "polar", "azimuthal", "rapidity"):
            if not 2 <= getattr(self, name) <= MAX_NODES:
                raise ParameterError(f"{name} node count must be in 2..{MAX_NODES}, "
                                     f"got {getattr(self, name)}")

    @classmethod
    def uniform(cls, n: int) -> "NodeCounts":
        return cls(n, n, n, n)

    def doubled(self) -> "NodeCounts":
        return NodeCounts(2 * self.radial, 2 * self.polar,
                          2 * self.azimuthal, 2 * self.rapidity)


@lru_cache(maxsize=1)
def state_table() -> tuple[StateRecord, ...]:
    """The 16 catalogue states in lexicographic (n_a, l, n, m) order.

    Null states stay in the table so the index arithmetic is stable.
    """
    records = []
    index = 0
    for n_a in (2, 3):
        for l in (2, 3):
            for n in (2, 3):
                for m in (2, 3):
                    index += 1
                    qn = QuantumNumbers(n_a, l, n, m)
                    records.append(StateRecord(
                        index=index,
                        qn=qn,
                        energy_factor=qn.reduced_energy,
                        subspace=(index - 1) // 4 + 1,
                        identically_zero=qn.vanishing_polar,
                        vanishing_rapidity=qn.vanishing_rapidity,
                    ))
    return tuple(records)


def get_state(index: int) -> StateRecord:
    table = state_table()
    if not 1 <= index <= len(table):
        raise ParameterError(f"state index must be in 1..{len(table)}, got {index}")
    return table[index - 1]


def live_indices() -> tuple[int, ...]:
    """Indices of the normalizable (not identically zero) states."""
    return tuple(r.index for r in state_table() if not r.is_null)


def embed(p: RmsPoint) -> np.ndarray:
    """Map (rho, theta, phi, beta) to the spacelike four-vector (t, x, y, z).

    Satisfies -t^2 + x^2 + y^2 + z^2 = rho^2 identically.
    """
    st, ct = math.sin(p.theta), math.cos(p.theta)
    ch, sh = math.cosh(p.beta), math.sinh(p.beta)
    return np.array([
        p.rho * st * sh,
        p.rho * st * math.cos(p.phi) * ch,
        p.rho * st * math.sin(p.phi) * ch,
        p.rho * ct,
    ])


def measure_weight(p: RmsPoint) -> float:
    """|Jacobian| of the embedding: rho^3 sin^2(theta) cosh(beta)."""
    return p.rho ** 3 * math.sin(p.theta) ** 2 * math.cosh(p.beta)


def eigenvalue(qn: QuantumNumbers, constants: PhysicalConstants) -> float:
    """Oscillator eigenvalue hbar omega (l + 2 n_a + 3/2)."""
    return constants.energy_scale * float(qn.reduced_energy)


# ---------------------------------------------------------------------------
# factor functions (dimensionless axis profiles of the product eigenfunction)

def polar_profile(qn: QuantumNumbers):
    """theta factor: (sin theta)^{-1/2} P_l^n(cos theta)."""
    l, n = qn.l, qn.n

    def f(theta):
        theta = np.asarray(theta, dtype=float)
        s = np.sin(theta)
        if np.any(s <= 0.0):
            raise DomainError("polar profile is singular on the polar axis")
        return assoc_legendre(l, n, np.cos(theta)) / np.sqrt(s)

    return f


def rapidity_profile(qn: QuantumNumbers):
    """beta factor: (1 - tanh^2 beta)^{1/4} P_m^{-n}(tanh beta)."""
    m, n = qn.m, qn.n

    def f(beta):
        beta = np.asarray(beta, dtype=float)
        u = np.tanh(beta)
        return ((1.0 - u) * (1.0 + u)) ** 0.25 * assoc_legendre(m, -n, u)

    return f


def radial_profile(qn: QuantumNumbers, scale: float = 1.0):
    """rho factor: rho^{-1/2} s^{l/2} e^{-s/2} L_{n_a}^{l+1/2}(s), s = scale rho^2."""
    n_a, l = qn.n_a, qn.l

    def f(rho):
        rho = np.asarray(rho, dtype=float)
        if np.any(rho <= 0.0):
            raise DomainError("radial profile is singular at rho = 0")
        s = scale * rho * rho
        return (s ** (0.5 * l) * np.exp(-0.5 * s)
                * gen_laguerre(n_a, l + 0.5, s) / np.sqrt(rho))

    return f


def eval_unnormalized(qn: QuantumNumbers, p: RmsPoint,
                      constants: PhysicalConstants) -> complex:
    """Product-form eigenfunction without the normalization constant.

    Returns exactly 0 for null states.  theta in {0, pi} is a domain
    error: the (sin theta)^{-1/2} factor is singular there (quadrature
    nodes never hit the poles and the measure tames every integral).
    """
    if qn.is_null:
        return 0.0 + 0.0j
    if p.theta in (0.0, math.pi) or math.sin(p.theta) <= 0.0:
        raise DomainError("eigenfunctions are singular on the polar axis")
    lam = constants.inverse_length2
    azimuthal = complex(math.cos((qn.m + 0.5) * p.phi),
                        math.sin((qn.m + 0.5) * p.phi))
    value = (azimuthal
             * float(rapidity_profile(qn)(p.beta))
             * float(polar_profile(qn)(p.theta))
             * float(radial_profile(qn, lam)(p.rho)))
    return value


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
    return 0.5 * (table + table.conj().T)


class AxisSpec(NamedTuple):
    """One separable axis, and the one place where a pair's parity picks its rule.

    ``rules`` maps a node count to the rule for pairs whose ``parity_of``
    numbers sum to even and to odd, which keeps every integral
    polynomial-exact.  ``weight(x, p)`` is the measure times the p-th power
    of the shared coupling factor on this axis.
    """

    field: str
    profile: Callable
    parity_of: str
    weight: Callable
    rules: tuple[Callable, Callable]

    def rule_index(self, qns) -> np.ndarray:
        """Pair matrix of indices into ``rules`` (0 even, 1 odd)."""
        k = np.array([getattr(qn, self.parity_of) for qn in qns])
        return (k[:, None] + k) % 2


AXES = (
    AxisSpec("polar", polar_profile, "n", lambda t, p: np.sin(t) ** (2 + 2 * p),
             (lambda n: quad.polar_rule(n, "legendre"),
              lambda n: quad.polar_rule(n, "chebyshev-u"))),
    AxisSpec("rapidity", rapidity_profile, "n", lambda b, p: np.cosh(b) ** (1 + 2 * p),
             (lambda n: quad.rapidity_rule(n, "legendre"),
              lambda n: quad.rapidity_rule(n, "chebyshev-u"))),
    AxisSpec("radial", radial_profile, "l", lambda r, p: r ** (3 + 2 * p),
             (lambda n: quad.radial_rule(n, 1.0, 0.5),
              lambda n: quad.radial_rule(n, 1.0, 0.0))),
)


def azimuthal_rule(n: int) -> quad.QuadratureRule:
    """Gauss-Legendre rule over phi in [0, 2 pi)."""
    return quad.gauss_legendre(n, 0.0, 2.0 * math.pi, "azimuthal")


def _live_qns() -> list[QuantumNumbers]:
    return [get_state(i).qn for i in live_indices()]


def _axis_overlaps(axis: AxisSpec, nodes: NodeCounts) -> list[np.ndarray]:
    """int f_i f_j weight(x, p) on one axis for p = 0 and 1, each pair on
    the rule its parity selects."""
    qns = _live_qns()
    tables = []
    for make_rule in axis.rules:
        rule = make_rule(getattr(nodes, axis.field))
        f = np.array([quad.evaluate(rule, axis.profile(qn)) for qn in qns])
        tables.append([(f * rule.weights * axis.weight(rule.nodes, p)) @ f.T for p in (0, 1)])
    pick = axis.rule_index(qns)
    return [_hermitian(np.choose(pick, pair)) for pair in zip(*tables)]


@lru_cache(maxsize=8)
def overlap_tables(nodes: NodeCounts = NodeCounts()) -> OverlapTables:
    """Every dimensionless integral of the live states at one resolution.

    The polar, rapidity and radial integrals follow ``AXES``.  A profile
    that is not finite at a node raises EvaluationError naming the axis.
    """
    qns = _live_qns()
    polar, rapidity, radial = (_axis_overlaps(axis, nodes) for axis in AXES)
    phi = azimuthal_rule(nodes.azimuthal)
    m = np.array([qn.m for qn in qns])
    deltas, inverse = np.unique((m - m[:, None]).ravel(), return_inverse=True)
    integrals = [quad.integrate(phi, lambda x, d=d: np.exp(1j * d * x)) for d in deltas]
    azimuthal = np.array(integrals)[inverse].reshape(m.size, m.size)
    axes = polar[0] * rapidity[0] * radial[0]
    norm_sq = azimuthal.diagonal().real * axes.diagonal()
    if np.any(norm_sq <= 0.0):
        raise NormalizationError(f"non-positive norm for {qns[int(np.argmin(norm_sq))]}")
    norms = 1.0 / np.sqrt(norm_sq)
    pair = np.outer(norms, norms)
    coupling = pair * polar[1] * rapidity[1] * radial[1]
    tables = OverlapTables(norms, pair * azimuthal * axes, coupling, azimuthal * coupling)
    for table in tables:
        table.setflags(write=False)
    return tables


def live_entry(table: np.ndarray, i: int, j: int) -> complex:
    """Entry for catalogue states i, j of a table over the live states;
    exactly 0 when either state is null."""
    ri, rj = get_state(i), get_state(j)
    if ri.is_null or rj.is_null:
        return 0.0 + 0.0j
    rows = live_indices()
    return complex(table[rows.index(i), rows.index(j)])


def normalization_constant(qn: QuantumNumbers, constants: PhysicalConstants,
                           nodes: NodeCounts = NodeCounts()) -> float:
    """Positive N with ||N psi_unnorm||^2 = 1 against the invariant measure.

    The dimensionless part is read from the overlap tables of ``nodes``;
    the (M omega/hbar)^{3/4} length factor is attached analytically, so the
    physical normalization is exact in the constants.
    """
    if qn.is_null:
        raise NormalizationError(
            f"state {qn} vanishes identically; normalization undefined")
    qns = _live_qns()
    if qn not in qns:
        raise ParameterError(f"{qn} is not a catalogue state")
    return float(overlap_tables(nodes).norms[qns.index(qn)]) * constants.inverse_length2 ** 0.75


def eval_state(qn: QuantumNumbers, p: RmsPoint, constants: PhysicalConstants,
               nodes: NodeCounts = NodeCounts()) -> complex:
    """Normalized eigenfunction value; 0 for null states."""
    if qn.is_null:
        return 0.0 + 0.0j
    return normalization_constant(qn, constants, nodes) * eval_unnormalized(qn, p, constants)


def gram_matrix(nodes: NodeCounts = NodeCounts()) -> tuple[tuple[int, ...], np.ndarray]:
    """Gram matrix of the normalizable states (dimensionless, so it is
    independent of the physical constants).  Returns (indices, matrix);
    the matrix is read-only."""
    return live_indices(), overlap_tables(nodes).gram
