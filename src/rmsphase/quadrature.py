"""Gaussian quadrature rules for the four separable axes.

Every rule is returned in the physical coordinate of its axis and its
weights integrate plain ``dx`` there, so callers write
``integrate(rule, f)`` with the full integrand (including any decay or
measure factors) and never see the underlying change of variables:

* ``gauss_legendre`` -- finite intervals (azimuth, generic checks).
* ``polar_rule``     -- theta in [0, pi], mapped from c = cos(theta).
* ``rapidity_rule``  -- beta on the real line, mapped from u = tanh(beta).
* ``radial_rule``    -- rho on [0, inf), mapped from s = scale * rho^2 with
  generalized Gauss-Laguerre nodes.

The Legendre and Laguerre rules come from one Golub-Welsch routine that
keeps every node at any node count; the Chebyshev-U rule is closed-form.

The polar/rapidity rules take a ``weight`` switch ('legendre' or
'chebyshev-u') and the radial rule an exponent ``alpha`` (0 or 1/2);
choosing them to match the half-integer power structure of the integrand
makes every integral in this package polynomial-exact.  A plain
Gauss-Legendre rule on a sqrt(1-x^2)-type integrand converges only
algebraically (~4e-7 at 128 nodes), which is why the switch exists.

Rules are immutable after construction, so the constructors are memoized
and the same rule object may be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EvaluationError, ParameterError

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "chebyshev_u",
    "polar_rule",
    "rapidity_rule",
    "radial_rule",
    "evaluate",
    "integrate",
    "doubling_gap",
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


def _gauss(diag: np.ndarray, off: np.ndarray, log_mu0: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and log-weights of a Gauss rule (Golub & Welsch, Math. Comp. 23, 1969).

    ``diag`` and ``off`` form the Jacobi matrix: the three-term recurrence of
    the orthonormal polynomials p_k of a weight of total mass mu0.  Its
    eigenvalues are the nodes, and mu0 / sum_k p_k(x)^2 are the weights.  The
    sum is rescaled past 1e200 and the scale kept as a log, so no node
    overflows at any n.
    """
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1), UPLO="U")
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    total, log_scale = np.ones_like(x), np.zeros_like(x)
    for a, b, b_prev in zip(diag, off, (0.0, *off)):
        p_prev, p = p, ((x - a) * p - b_prev * p_prev) / b
        total += p * p
        if total.max() > 1e200:
            c = np.where(total > 1e200, np.sqrt(total), 1.0)
            p, p_prev, total = p / c, p_prev / c, total / (c * c)
            log_scale += np.log(c)
    return x, log_mu0 - np.log(total) - 2.0 * log_scale


@lru_cache(maxsize=128)
def gauss_legendre(n: int, a: float, b: float, domain: str = "generic-finite") -> QuadratureRule:
    """Gauss-Legendre rule on [a, b], exact for polynomials of degree <= 2n-1."""
    if n < 2:
        raise ParameterError(f"need at least 2 nodes, got {n}")
    if not a < b:
        raise ParameterError(f"empty interval [{a}, {b}]")
    k = np.arange(1.0, n)
    x, log_w = _gauss(np.zeros(n), k / np.sqrt(4.0 * k * k - 1.0), math.log(2.0))
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


def _unit_rule(n: int, weight: str) -> QuadratureRule:
    if weight == "legendre":
        return gauss_legendre(n, -1.0, 1.0)
    if weight == "chebyshev-u":
        return chebyshev_u(n)
    raise ParameterError(f"unknown weight family {weight!r}")


@lru_cache(maxsize=128)
def polar_rule(n: int, weight: str = "legendre") -> QuadratureRule:
    """Rule for integrals over theta in [0, pi].

    Built in c = cos(theta); the Jacobian d(theta) = -dc/sin(theta) is
    folded into the weights.  Use weight='chebyshev-u' when the integrand
    carries an odd net power of sin(theta) after the substitution.
    """
    base = _unit_rule(n, weight)
    theta = np.arccos(base.nodes)[::-1]
    sin_theta = np.sqrt((1.0 - base.nodes) * (1.0 + base.nodes))[::-1]
    return QuadratureRule(theta, base.weights[::-1] / sin_theta, "polar")


@lru_cache(maxsize=128)
def rapidity_rule(n: int, weight: str = "legendre") -> QuadratureRule:
    """Rule for integrals over the rapidity beta on (-inf, inf).

    Built in u = tanh(beta) with d(beta) = du/(1-u^2); integrands must
    decay at least like sech^2(beta), which every one used here does.
    """
    base = _unit_rule(n, weight)
    u = base.nodes
    return QuadratureRule(np.arctanh(u), base.weights / ((1.0 - u) * (1.0 + u)),
                          "rapidity")


@lru_cache(maxsize=128)
def radial_rule(n: int, scale: float = 1.0, alpha: float = 0.5) -> QuadratureRule:
    """Rule for integrals over rho on [0, inf).

    Built from generalized Gauss-Laguerre nodes in s = scale * rho^2 with
    weight s^alpha e^{-s}; the weight and the Jacobian are folded back so
    the rule integrates plain d(rho).  Exact for integrands of the form
    s^{alpha+k} e^{-s} * polynomial(s) * rho-Jacobian with integer k >= 0;
    pick alpha in {0, 1/2} to match the integrand's power parity.

    The Golub-Welsch weights are folded in log space; no node is dropped.
    """
    if n < 2:
        raise ParameterError(f"need at least 2 nodes, got {n}")
    if not scale > 0.0:
        raise ParameterError(f"scale must be positive, got {scale}")
    if alpha <= -1.0:
        raise ParameterError(f"alpha must exceed -1, got {alpha}")
    k = np.arange(float(n))
    s, log_w = _gauss(2.0 * k + 1.0 + alpha, np.sqrt(k[1:] * (k[1:] + alpha)),
                      math.lgamma(alpha + 1.0))
    rho = np.sqrt(s / scale)
    # plain-form weight: w * e^{s} * s^{-alpha} * ds/drho^{-1}
    log_w += s - alpha * np.log(s) - np.log(2.0 * scale * rho)
    return QuadratureRule(rho, np.exp(log_w), "radial")


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


def doubling_gap(make_rule, f) -> float:
    """Relative gap between a rule and its node-doubled refinement.

    ``make_rule(n_scale)`` must return the rule at 1x and 2x resolution.
    The residual is normalized by max(|I|, L1 mass) so integrals that
    vanish by symmetry are measured against their own magnitude instead
    of blowing up.
    """
    rule1 = make_rule(1)
    rule2 = make_rule(2)
    i1 = integrate(rule1, f)
    values = evaluate(rule2, f)
    i2 = complex(np.dot(rule2.weights, values))
    l1_mass = float(np.dot(rule2.weights, np.abs(values)))
    denom = max(abs(i1), abs(i2), l1_mass, 1e-300)
    return abs(i2 - i1) / denom
