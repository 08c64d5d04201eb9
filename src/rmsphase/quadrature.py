"""Quadrature rules for the four separable axes.

Every rule is returned in the physical coordinate of its axis and its
weights integrate plain ``dx`` there, so callers write
``integrate(rule, f)`` with the full integrand (including any decay or
measure factors) and never see the underlying change of variables:

* ``periodic_trapezoid`` -- the period [0, 2 pi) of the azimuth.
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
are Gauss rules without closed-form nodes.  ``_laguerre`` takes them from
closed-form asymptotic nodes in two passes of the three-term recurrence,
both parities as one stack: one pass and a Taylor solve of the Laguerre
equation move every node to its root, and one more checks the nodes and
gives the weights; no eigen-solve is run.  The periodic trapezoid rule
is exact for e^{i d x} on [0, 2 pi) with |d| < n (Trefethen & Weideman,
SIAM Rev. 56, 385, 2014).

Every rule this module builds holds read-only arrays, with strictly
increasing finite nodes and positive finite weights, so a rule object may
be shared freely across threads.  A test pins that for every family
(``test_all_families_positive_and_increasing``); no runtime check does,
since the package is the only caller and passes node counts that
``NodeCounts`` has checked.  No constructor is cached: a build reuses an
axis's tables, not its rules, and ``oscillator`` caches those per node
count.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import EvaluationError

__all__ = [
    "QuadratureRule",
    "periodic_trapezoid",
    "polar_rule",
    "rapidity_rule",
    "radial_rule",
    "check_finite",
    "integrate",
]


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only in place, as every ``QuadratureRule`` array is."""
    array.setflags(write=False)
    return array


class QuadratureRule(NamedTuple):
    """Nodes/weights pair.

    Every rule the constructors here build holds read-only float arrays
    (``_frozen``), strictly increasing finite nodes and positive finite
    weights; a test pins that, not a runtime check.  The (even, odd) rules
    of ``polar_rule`` and ``rapidity_rule`` hold one and the same node array.
    """

    nodes: np.ndarray
    weights: np.ndarray


# Order of the local Taylor polynomial of the Laguerre P_n that moves each
# initial node to its root; order 1 is a plain Newton step.
TAYLOR_ORDER = 8
# Largest Newton correction accepted at the refined nodes, as a fraction of the
# node's gap to its neighbour.  Up to 1024 nodes the Taylor solve leaves at most
# 3.7e-12 on the radial rules; a plain Newton step leaves 1.8e-3.
NEWTON_BOUND = 1e-6


def _spread(coef: np.ndarray, n: int) -> np.ndarray:
    """Columns of ``coef`` (shape (r, m)) as the m rows of an (m, r n) array.

    Each value is repeated over the n nodes of its rule, so a row lines up
    with a flat stack of r rules and a recurrence step is a same-shape
    ufunc, not a broadcast against an (r, 1) column, which costs as much
    again on a few hundred nodes.
    """
    return np.repeat(coef.T, n, axis=1)


def _blocks(n: int) -> list[slice]:
    """The recurrence steps in blocks of 16; each block's coefficients are spread at once."""
    return [slice(k, k + 16) for k in range(0, n, 16)]


def _monic_ratio(x: np.ndarray, diag: np.ndarray, off_prev: np.ndarray) -> np.ndarray:
    """P_n/P_{n-1} of the monic polynomials at ``x``, run up the recurrence as a
    ratio, which never overflows."""
    n = x.shape[1]
    flat, ratio = x.ravel(), np.ones(x.size)
    with np.errstate(divide="ignore"):      # ratio 0 at a root of P_k: inf, then x - a_k
        for cols in _blocks(n):
            for shifted, b2 in zip(flat - _spread(diag[:, cols], n),
                                   _spread(off_prev[:, cols] ** 2, n)):
                ratio = shifted - b2 / ratio
    return ratio.reshape(x.shape)


def _orthonormal(x: np.ndarray, diag: np.ndarray, off: np.ndarray,
                 off_prev: np.ndarray) -> tuple[np.ndarray, ...]:
    """p_{n-1}, p_n and the Christoffel sum sum_{k<n} p_k^2 at ``x``, the
    first two over the scale e^{log_scale} and the sum over its square.

    With p_k = sigma_k u_k and sigma_{k+1} = (b_k/b_{k+1}) sigma_{k-1}, the
    recurrence is u_{k+1} = c_k (x - a_k) u_k - u_{k-1}, two ufuncs a step.
    Each block of 16 steps writes its u into one array, which is summed
    once; the sum is rescaled past 1e100 after a block (16 steps grow it by
    less than 1e95 up to 4096 nodes), so no node overflows at any n.
    """
    rows, n = x.shape
    h = off_prev[:, 1:] / off[:, 1:]            # b_k/b_{k+1} for k = 1..n-1
    sigma = np.ones((rows, n + 1))
    sigma[:, 2::2] = np.cumprod(h[:, 0::2], axis=1)
    sigma[:, 3::2] = np.cumprod(h[:, 1::2], axis=1)
    c = sigma[:, :-1] / (off * sigma[:, 1:])
    square = sigma[:, 1:] ** 2                  # of u_{k+1}; p_n is not in the sum
    square[:, -1] = 0.0
    flat = x.ravel()
    u_prev, u = np.zeros_like(flat), np.ones_like(flat)
    total, log_scale = np.ones_like(flat), np.zeros_like(flat)
    for cols in _blocks(n):
        steps = (flat - _spread(diag[:, cols], n)) * _spread(c[:, cols], n)
        for g, out in zip(steps, steps):        # each u_{k+1} overwrites its g_k
            np.subtract(g * u, u_prev, out=out)
            u_prev, u = u, out
        total += np.sum(steps * steps * _spread(square[:, cols], n), axis=0)
        if total.max() > 1e100:
            scale = np.where(total > 1e100, np.sqrt(total), 1.0)
            u, u_prev, total = u / scale, u_prev / scale, total / (scale * scale)
            log_scale += np.log(scale)
    u_prev, u, total, log_scale = (a.reshape(x.shape) for a in (u_prev, u, total, log_scale))
    return sigma[:, n - 1:n] * u_prev, sigma[:, n:] * u, total, log_scale


def _taylor_root(x: np.ndarray, step: np.ndarray, ode) -> np.ndarray:
    """Shift from ``x`` to the nearest root of P, from its Newton step P/P' at ``x``.

    P/P' and 1 are P and P' up to a common scale, and ``ode`` gives every
    higher derivative from the two before it (``ode`` takes 1/x, formed
    once here), so the Taylor polynomial of P about x to ``TAYLOR_ORDER``
    is known without another pass of the recurrence (Glaser, Liu &
    Rokhlin, SIAM J. Sci. Comput. 29, 1420, 2007).
    Its root is taken by three Newton steps from the Newton step of P itself.
    """
    inv = 1.0 / x
    derivatives = [step, np.ones_like(x)]
    for k in range(TAYLOR_ORDER - 1):
        c1, c0 = ode(inv, k)
        derivatives.append(c1 * derivatives[-1] + c0 * derivatives[-2])
    coef = [d / math.factorial(k) for k, d in enumerate(derivatives)]
    shift = -step
    for _ in range(3):
        value, slope = coef[-1], 0.0
        for c in coef[-2::-1]:
            slope = slope * shift + value
            value = value * shift + c
        shift = shift - value / slope
    return shift


def _chebyshev_u(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only nodes cos(t_k) and weights of the n-node Chebyshev-U rule for
    plain dx, exact on sqrt(1-x^2) * polynomial(deg <= 2n-1), and sin(t_k),
    with t_k = k pi/(n+1) for k = n..1, so the nodes increase."""
    theta = np.arange(n, 0, -1) * np.pi / (n + 1)
    sin_theta = np.sin(theta)
    return _frozen(np.cos(theta)), _frozen((np.pi / (n + 1)) * sin_theta), sin_theta


def periodic_trapezoid(n: int) -> QuadratureRule:
    """n-point trapezoid rule for the period [0, 2 pi) of the azimuth.

    Nodes k h with h = 2 pi/n, every weight h.  Exact for e^{i d x} with
    integer |d| < n.
    """
    h = 2.0 * math.pi / n
    return QuadratureRule(_frozen(h * np.arange(n)), _frozen(np.full(n, h)))


def _fejer2_weights(sin_theta: np.ndarray) -> np.ndarray:
    """Weights of Fejer's second rule on the n nodes of ``_chebyshev_u(n)``,
    from their ``sin_theta`` = sin(t_k), as ``_chebyshev_u`` returns it.

    w_k = 4 sin(t_k)/(n+1) * sum over odd j < n+1 of sin(j t_k)/j, with
    t_k = k pi/(n+1); the sums are a sine transform, taken from one rfft.
    """
    n = sin_theta.size
    size = n + 1
    odd = np.zeros(2 * size)
    odd[1:size:2] = 1.0 / np.arange(1, size, 2)
    sums = -np.fft.rfft(odd).imag[n:0:-1]
    return (4.0 / size) * sin_theta * sums


def polar_rule(n: int) -> tuple[QuadratureRule, QuadratureRule]:
    """(even, odd) rules for integrals over theta in [0, pi], on one node array.

    Built in c = cos(theta); the Jacobian d(theta) = -dc/sin(theta) is
    folded into the weights.  The even rule (Fejer's second) is exact when
    the integrand divided by sin(theta) is a polynomial in c of degree
    <= n-1; the odd rule (Chebyshev-U) is for integrands that carry an odd
    net power of sin(theta) after the substitution.
    """
    c, odd, sines = _chebyshev_u(n)
    theta = _frozen(np.arccos(c)[::-1].copy())     # contiguous, as every rule's nodes are
    sin_theta = np.sqrt((1.0 - c) * (1.0 + c))[::-1]    # of the rounded nodes c, for the Jacobian
    return tuple(QuadratureRule(theta, _frozen(w[::-1] / sin_theta))
                 for w in (_fejer2_weights(sines), odd))


def rapidity_rule(n: int) -> tuple[QuadratureRule, QuadratureRule]:
    """(even, odd) rules for integrals over beta on the real line, on one node array.

    Built in u = tanh(beta) with d(beta) = du/(1-u^2); integrands must
    decay at least like sech^2(beta), which every one used here does.  The
    even rule (Fejer's second) is exact when the integrand times
    cosh^2(beta) is a polynomial in u of degree <= n-1; the odd rule
    (Chebyshev-U) when that product is sqrt(1-u^2) times a polynomial.
    """
    u, odd, sines = _chebyshev_u(n)
    beta = _frozen(np.arctanh(u))
    jacobian = (1.0 - u) * (1.0 + u)
    return tuple(QuadratureRule(beta, _frozen(w / jacobian))
                 for w in (_fejer2_weights(sines), odd))


def _laguerre_nodes0(n: int, alpha: np.ndarray) -> np.ndarray:
    """Initial nodes of the n-node Laguerre rules of exponent ``alpha`` (an (r, 1) column).

    Tricomi's formula x = nu cos^2(t/2), t - sin t = pi (4n - 4k + 3)/nu,
    with nu = 4n + 2 alpha + 2, in the bulk, and the Bessel-type formula
    j^2/nu (1 + (j^2 + 2 alpha^2 - 2)/(3 nu^2)) for the k <= sqrt(n)
    smallest nodes, with j the k-th zero of J_alpha by McMahon's expansion,
    which is k pi at alpha 1/2 (Gatteschi, J. Comput. Appl. Math. 144, 7,
    2002).  Every one lies within 2% of a node gap of its node.
    """
    nu = 4.0 * n + 2.0 * alpha + 2.0
    k = np.arange(1.0, n + 1.0)
    target = np.pi * (4.0 * (n - k) + 3.0) / nu
    t = np.cbrt(6.0 * target)       # left of the root of the convex t - sin t; Newton from there
    for _ in range(4):
        t = t - (t - np.sin(t) - target) / (1.0 - np.cos(t))
    mu = 4.0 * alpha * alpha
    beta = (k + 0.5 * alpha - 0.25) * np.pi
    j = (beta - (mu - 1.0) / (8.0 * beta)
         - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * beta) ** 3))
    bessel = j * j / nu * (1.0 + (j * j + 2.0 * alpha * alpha - 2.0) / (3.0 * nu * nu))
    return np.where(k * k <= n, bessel, nu * np.cos(0.5 * t) ** 2)


def _laguerre(n: int, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and log-weights of the n-node Gauss-Laguerre rules of weight
    s^alpha e^{-s}, alpha an (r, 1) column, solved as one (r, n) stack.

    Row r of the recurrence b_{k+1} p_{k+1} = (s - a_k) p_k - b_k p_{k-1}
    of the orthonormal polynomials has a_k = 2k + 1 + alpha and
    b_{k+1} = sqrt((k + 1)(k + 1 + alpha)), mass mu0 = Gamma(alpha + 1);
    the nodes are the zeros of p_n.  For the monic P = P_n the derivative
    identity s P' = n P + n (n + alpha) P_{n-1} gives the Newton step from
    P/P_{n-1}, and the Laguerre equation s y'' + (alpha + 1 - s) y' + n y = 0,
    differentiated k times, every higher derivative.  Two passes of the
    recurrence run over the whole stack (Hale & Townsend, SIAM J. Sci.
    Comput. 35, A652, 2013):

    1. ``_monic_ratio`` at the initial nodes of ``_laguerre_nodes0`` gives
       the Newton step P/P', and ``_taylor_root`` moves every node to its root;
    2. ``_orthonormal`` at the refined nodes gives the last Newton
       correction, which is applied to the nodes, and the weight
       mu0 / sum_{k<n} p_k^2, moved with the node to first order.  A
       correction larger than ``NEWTON_BOUND`` of the node's gap to its
       neighbour raises EvaluationError.

    The shorter weight mu0 / (b_n p_n' p_{n-1}) is not used: p_{n-1} at the
    smallest nodes is ~1/n of its neighbours, and the cancellation costs up
    to 2.8e-12 at 256 nodes, where the sum keeps 8e-13.  Every step acts
    node by node, so each row comes out as if solved alone.
    """
    k = np.arange(float(n))
    diag, off = 2.0 * k + 1.0 + alpha, np.sqrt((k + 1.0) * (k + 1.0 + alpha))
    off_prev = np.concatenate([np.zeros((alpha.shape[0], 1)), off[:, :-1]], axis=1)    # b_0 = 0

    def newton(s, ratio):       # P/P' from P/P_{n-1}, by s P' = n P + n (n + alpha) P_{n-1}
        inv = 1.0 / s
        return 1.0 / (n * inv + (n * (n + alpha)) * inv / ratio)

    def ode(inv, k):            # (c1, c0) with y^(k+2) = c1 y^(k+1) + c0 y^(k), at s = 1/inv
        return 1.0 - (alpha + 1.0 + k) * inv, (k - n) * inv

    x = _laguerre_nodes0(n, alpha)
    with np.errstate(divide="ignore"):      # P_n = 0 at an exact node: a zero step
        step = newton(x, _monic_ratio(x, diag, off_prev))
    x = x + _taylor_root(x, step, ode)
    p_prev, p, total, log_scale = _orthonormal(x, diag, off, off_prev)
    with np.errstate(divide="ignore"):      # p_n = 0 at an exact node: no correction
        correction = newton(x, off[:, -1:] * p / p_prev)
    gap = np.diff(x)                    # to the next node; for the last node, to the one before
    if not (np.abs(correction) <= NEWTON_BOUND * np.append(gap, gap[:, -1:], axis=1)).all():
        raise EvaluationError(f"Gauss nodes not converged by the order-{TAYLOR_ORDER} Taylor "
                              f"solve on radial axis")
    # at a root, K = sum_k p_k^2 = b_n p_n' p_{n-1} by Christoffel-Darboux, so
    # K'/K = p_n''/p_n', the ODE's c1: the weight moves with the node to first order
    log_mu0 = np.array([[math.lgamma(a + 1.0)] for a in alpha[:, 0]])
    log_w = log_mu0 - np.log(total) + correction * ode(1.0 / x, 0)[0]
    return x - correction, log_w - 2.0 * log_scale


def radial_rule(n: int) -> tuple[QuadratureRule, QuadratureRule]:
    """(even, odd) rules for integrals over rho on [0, inf), from one solve.

    Built from generalized Gauss-Laguerre nodes in s = rho^2 with weight
    s^alpha e^{-s}, alpha 1/2 for the even rule and 0 for the odd one; the
    weight and the Jacobian are folded back so each rule integrates plain
    d(rho).  Exact for integrands of the form s^{alpha+k} e^{-s} *
    polynomial(s) * rho-Jacobian with integer k >= 0.  Both rules are one
    (2, n) stack through ``_laguerre``: the closed-form initial nodes of
    ``_laguerre_nodes0`` go to the roots by one Taylor solve of the
    Laguerre equation, two recurrence passes in all, and the weights are
    folded in log space; no node is dropped.
    """
    alpha = np.array([[0.5], [0.0]])
    s, log_w = _laguerre(n, alpha)
    rho = _frozen(np.sqrt(s))
    # plain-form weight: w * e^{s} * s^{-alpha} * ds/drho^{-1}
    log_w += s - alpha * np.log(s) - np.log(2.0 * rho)
    return tuple(QuadratureRule(r, _frozen(np.exp(w))) for r, w in zip(rho, log_w))


def check_finite(values: np.ndarray, nodes: np.ndarray, domain: str) -> np.ndarray:
    """Profile ``values`` (float or complex) at ``nodes``, of shape
    (..., *nodes.shape).

    A value that is not finite raises EvaluationError whose message names
    the first such node, by its index along the last axis of ``nodes`` and
    its x, and the axis ``domain``.
    """
    bad = ~np.isfinite(values)      # a complex value is finite when both parts are
    if bad.any():
        flat = int(np.argmax(bad.reshape(-1, nodes.size).any(axis=0)))
        k, x = flat % nodes.shape[-1], float(nodes.flat[flat])
        raise EvaluationError(f"profile not finite at node {k} (x={x!r}) on {domain} axis")
    return values


def integrate(rule: QuadratureRule, f) -> complex:
    """Apply the rule: sum_k w_k f(x_k), with ``f`` called once, on the
    ndarray of nodes, and vectorized over them."""
    return complex(np.dot(rule.weights, f(rule.nodes)))
