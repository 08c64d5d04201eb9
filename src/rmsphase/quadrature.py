"""Quadrature rules for the four separable axes.

Every rule is returned in the physical coordinate of its axis and its
weights integrate plain ``dx`` there, so callers write
``integrate(rule, f)`` with the full integrand (including any decay or
measure factors) and never see the underlying change of variables:

* ``periodic_trapezoid`` -- one period of a periodic integrand (azimuth).
* ``gauss_legendre``     -- generic finite intervals.
* ``polar_rule``         -- theta in [0, pi], mapped from c = cos(theta).
* ``rapidity_rule``      -- beta on the real line, mapped from u = tanh(beta).
* ``radial_rule``        -- rho on [0, inf), mapped from s = rho^2 with
  generalized Gauss-Laguerre nodes.

Each of the last three returns the (even, odd) pair of rules that a pair of
states of that parity needs, matched to the half-integer power structure
of the integrand so that every integral in this package is exact.  A plain
Gauss-Legendre rule on a sqrt(1-x^2)-type integrand converges only
algebraically (~4e-7 at 128 nodes), which is why there are two.

On the finite axes both rules stand on one node array, mapped from the
closed-form nodes cos(k pi/(n+1)): the odd rule is the Gauss rule of
sqrt(1-x^2) (Chebyshev-U), and the even rule is Fejer's second rule for
weight 1, an interpolatory rule exact to degree n-1 (Trefethen, SIAM
Rev. 50, 67, 2008), whose weights come from one FFT.  The radial pair is
the alpha 1/2 and alpha 0 Laguerre rules, with their own nodes; only they
(and ``gauss_legendre``) need the Golub-Welsch eigen-solve, which takes a
stack of Jacobi matrices, so both come from one pass of the weight
recurrence.  The periodic trapezoid rule is exact for e^{i d x} on
[0, 2 pi) with |d| < n (Trefethen & Weideman, SIAM Rev. 56, 385, 2014).

Rules are immutable after construction, so every constructor but the
trapezoid rule's is memoized and the same rule object may be shared freely
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EvaluationError, ParameterError

__all__ = [
    "QuadratureRule",
    "periodic_trapezoid",
    "gauss_legendre",
    "chebyshev_u",
    "polar_rule",
    "rapidity_rule",
    "radial_rule",
    "evaluate",
    "integrate",
]

@dataclass(frozen=True)
class QuadratureRule:
    """Immutable nodes/weights pair tagged with the axis it serves."""

    nodes: np.ndarray
    weights: np.ndarray
    domain: str = "generic-finite"

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        if nodes.ndim != 1 or weights.ndim != 1 or nodes.size != weights.size:
            raise ParameterError("nodes and weights must be matching 1-d arrays")
        if nodes.size < 2:
            raise ParameterError("a quadrature rule needs at least 2 nodes")
        if np.any(np.diff(nodes) <= 0.0):
            raise ParameterError("nodes must be strictly increasing")
        if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
            raise ParameterError("weights must be positive and finite")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def _gauss(diag: np.ndarray, off: np.ndarray,
           log_mu0: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and log-weights of stacked Gauss rules (Golub & Welsch, Math. Comp. 23, 1969).

    Each row of ``diag`` (shape (r, n)) and ``off`` (shape (r, n-1)) forms a
    Jacobi matrix: the three-term recurrence of the orthonormal polynomials
    p_k of a weight of total mass mu0 = e^{log_mu0[row]}.  Its eigenvalues
    are the nodes, and mu0 / sum_k p_k(x)^2 are the weights.  The
    eigenvalues are solved one dense matrix at a time; the sum runs once
    over the whole stack.  It is rescaled, node by node, past 1e200 and the
    scale kept as a log, so no node overflows at any n, and each row is
    bit-identical to the same problem solved alone.
    """
    x = np.array([np.linalg.eigvalsh(np.diag(d) + np.diag(o, 1), UPLO="U")
                  for d, o in zip(diag, off)])
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    total, log_scale = np.ones_like(x), np.zeros_like(x)
    diag, off = diag.T[:, :, None], off.T[:, :, None]     # one (r, 1) column per step
    for a, b, b_prev in zip(diag, off, (0.0, *off)):
        p_prev, p = p, ((x - a) * p - b_prev * p_prev) / b
        total += p * p
        if total.max() > 1e200:
            c = np.where(total > 1e200, np.sqrt(total), 1.0)
            p, p_prev, total = p / c, p_prev / c, total / (c * c)
            log_scale += np.log(c)
    return x, np.asarray(log_mu0)[:, None] - np.log(total) - 2.0 * log_scale


@lru_cache(maxsize=128)
def gauss_legendre(n: int, a: float, b: float, domain: str = "generic-finite") -> QuadratureRule:
    """Gauss-Legendre rule on [a, b], exact for polynomials of degree <= 2n-1."""
    if n < 2:
        raise ParameterError(f"need at least 2 nodes, got {n}")
    if not a < b:
        raise ParameterError(f"empty interval [{a}, {b}]")
    k = np.arange(1.0, n)
    (x,), (log_w,) = _gauss(np.zeros((1, n)), (k / np.sqrt(4.0 * k * k - 1.0))[None],
                            [math.log(2.0)])
    half = 0.5 * (b - a)
    return QuadratureRule(a + half * (x + 1.0), half * np.exp(log_w), domain)


@lru_cache(maxsize=128)
def chebyshev_u(n: int, domain: str = "generic-finite") -> QuadratureRule:
    """Chebyshev rule of the second kind on (-1, 1) in plain form.

    Closed-form nodes cos(k pi/(n+1)); the sqrt(1-x^2) weight is folded
    into the returned weights, so the rule integrates ``dx`` and is exact
    for integrands of the form sqrt(1-x^2) * polynomial(deg <= 2n-1).
    """
    if n < 2:
        raise ParameterError(f"need at least 2 nodes, got {n}")
    k = np.arange(n, 0, -1, dtype=float)
    theta = k * np.pi / (n + 1)
    return QuadratureRule(np.cos(theta), (np.pi / (n + 1)) * np.sin(theta), domain)


def periodic_trapezoid(n: int, a: float, b: float,
                       domain: str = "generic-periodic") -> QuadratureRule:
    """n-point trapezoid rule for one period [a, b) of a periodic integrand.

    Nodes a + k h with h = (b - a)/n, every weight h.  Exact for
    e^{2 pi i d (x - a)/(b - a)} with integer |d| < n.
    """
    if n < 2:
        raise ParameterError(f"need at least 2 nodes, got {n}")
    if not a < b:
        raise ParameterError(f"empty interval [{a}, {b}]")
    h = (b - a) / n
    return QuadratureRule(a + h * np.arange(n), np.full(n, h), domain)


def _fejer2_weights(n: int) -> np.ndarray:
    """Weights of Fejer's second rule on the nodes of ``chebyshev_u(n)``.

    w_k = 4 sin(t_k)/(n+1) * sum over odd j < n+1 of sin(j t_k)/j, with
    t_k = k pi/(n+1); the sums are a sine transform, taken from one rfft.
    """
    size = n + 1
    odd = np.zeros(2 * size)
    odd[1:size:2] = 1.0 / np.arange(1, size, 2)
    sums = -np.fft.rfft(odd).imag[n:0:-1]
    theta = np.arange(n, 0, -1) * np.pi / size
    return (4.0 / size) * np.sin(theta) * sums


@lru_cache(maxsize=64)
def polar_rule(n: int) -> tuple[QuadratureRule, QuadratureRule]:
    """(even, odd) rules for integrals over theta in [0, pi], on one node array.

    Built in c = cos(theta); the Jacobian d(theta) = -dc/sin(theta) is
    folded into the weights.  The even rule (Fejer's second) is exact when
    the integrand divided by sin(theta) is a polynomial in c of degree
    <= n-1; the odd rule (Chebyshev-U) is for integrands that carry an odd
    net power of sin(theta) after the substitution.
    """
    base = chebyshev_u(n)
    c = base.nodes
    theta = np.arccos(c)[::-1].copy()      # contiguous, so both rules keep this array
    sin_theta = np.sqrt((1.0 - c) * (1.0 + c))[::-1]
    return tuple(QuadratureRule(theta, w[::-1] / sin_theta, "polar")
                 for w in (_fejer2_weights(n), base.weights))


@lru_cache(maxsize=64)
def rapidity_rule(n: int) -> tuple[QuadratureRule, QuadratureRule]:
    """(even, odd) rules for integrals over beta on the real line, on one node array.

    Built in u = tanh(beta) with d(beta) = du/(1-u^2); integrands must
    decay at least like sech^2(beta), which every one used here does.  The
    even rule (Fejer's second) is exact when the integrand times
    cosh^2(beta) is a polynomial in u of degree <= n-1; the odd rule
    (Chebyshev-U) when that product is sqrt(1-u^2) times a polynomial.
    """
    base = chebyshev_u(n)
    u = base.nodes
    beta = np.arctanh(u)
    jacobian = (1.0 - u) * (1.0 + u)
    return tuple(QuadratureRule(beta, w / jacobian, "rapidity")
                 for w in (_fejer2_weights(n), base.weights))


@lru_cache(maxsize=64)
def radial_rule(n: int) -> tuple[QuadratureRule, QuadratureRule]:
    """(even, odd) rules for integrals over rho on [0, inf), from one solve.

    Built from generalized Gauss-Laguerre nodes in s = rho^2 with weight
    s^alpha e^{-s}, alpha 1/2 for the even rule and 0 for the odd one; the
    weight and the Jacobian are folded back so each rule integrates plain
    d(rho).  Exact for integrands of the form s^{alpha+k} e^{-s} *
    polynomial(s) * rho-Jacobian with integer k >= 0.  Both Jacobi
    matrices go through one Golub-Welsch pass, and the weights are folded
    in log space; no node is dropped.
    """
    if n < 2:
        raise ParameterError(f"need at least 2 nodes, got {n}")
    alpha = np.array([[0.5], [0.0]])
    k = np.arange(float(n))
    s, log_w = _gauss(2.0 * k + 1.0 + alpha, np.sqrt(k[1:] * (k[1:] + alpha)),
                      [math.lgamma(1.5), math.lgamma(1.0)])
    rho = np.sqrt(s)
    # plain-form weight: w * e^{s} * s^{-alpha} * ds/drho^{-1}
    log_w += s - alpha * np.log(s) - np.log(2.0 * rho)
    return tuple(QuadratureRule(r, np.exp(w), "radial") for r, w in zip(rho, log_w))


def evaluate(rule: QuadratureRule, f) -> np.ndarray:
    """Values of ``f`` at the rule's nodes.

    ``f`` is called once, on the ndarray of nodes.  A result that does not
    have the nodes' shape, or is not finite, raises EvaluationError naming
    the axis.
    """
    values = np.asarray(f(rule.nodes))
    if values.shape != rule.nodes.shape:
        raise EvaluationError(
            f"integrand returned shape {values.shape} for {rule.nodes.size} nodes on "
            f"{rule.domain} axis; it must be vectorized over the nodes")
    if values.dtype.kind not in "fc":
        values = values.astype(complex)
    bad = ~np.isfinite(values)      # a complex value is finite when both parts are
    if np.any(bad):
        k = int(np.argmax(bad))
        raise EvaluationError(
            f"integrand not finite at node {k} (x={rule.nodes[k]!r}) on "
            f"{rule.domain} axis", node_index=k, node_value=float(rule.nodes[k]))
    return values


def integrate(rule: QuadratureRule, f) -> complex:
    """Apply the rule: sum_k w_k f(x_k), with ``f`` evaluated by ``evaluate``."""
    return complex(np.dot(rule.weights, evaluate(rule, f)))

