"""The special functions and axis profiles as the package evaluated them
before it planned each column of indices once, read only by the tests.

``assoc_legendre`` and ``gen_laguerre`` (with ``_seed``) are copied
verbatim from ``rmsphase.specfun`` as it was when each call did its own
index work, and ``polar_profiles``, ``rapidity_profiles`` and
``radial_profiles`` from ``rmsphase.oscillator``, where each factory's
``f`` called them per evaluation.  ``tests/test_specfun.py`` holds the
planned forms to these bit for bit: both sides run the same ufuncs on the
same operands, so the equality holds on any CPU.
"""

import math

import numpy as np


def _seed(degree: int, order: int) -> float:
    """(-1)^m (2m-1)!!, m = |order|, times the reflection factor of a negative
    order, rounded once: P_m^m / (1-x^2)^{m/2}, or 0 where m > degree."""
    m = abs(order)
    if m > degree:
        return 0.0
    double = math.prod(range(1, 2 * m, 2))
    if order >= 0:
        return (-1) ** m * double
    return double * math.factorial(degree - m) / math.factorial(degree + m)


def assoc_legendre(degree, order, x):
    """Ferrers associated Legendre function ``P_degree^order(x)`` on [-1, 1].

    Condon-Shortley phase; upward recurrence in the degree from the
    closed-form seeds ``P_m^m`` and ``P_{m+1}^m``, m = |order|; the recurrence
    is linear, so a negative order's reflection factor scales its seed.

    Parameters
    ----------
    degree : int or ndarray of int
        Non-negative degrees (the subscript).
    order : int or ndarray of int
        Integer orders (the superscript), may be negative.
    x : float or ndarray
        Evaluation points in [-1, 1].

    ``degree``, ``order`` and ``x`` broadcast together: a column of pairs
    runs in one recurrence, up to the largest ``degree - |order|``.  A
    positive order up to ``degree`` is at most 150, as (2 order - 1)!! must
    fit a float.

    Returns
    -------
    float or ndarray
        Function values; exactly 0 where ``|order| > degree``.
    """
    deg, order = np.broadcast_arrays(degree, order)
    pairs = list(zip(deg.ravel().tolist(), order.ravel().tolist()))
    arr = np.asarray(x, dtype=float)
    y = (1.0 - arr) * (1.0 + arr)
    m = np.abs(order)
    seed = np.reshape([_seed(int(l), int(k)) for l, k in pairs], deg.shape)
    pmm = seed * y ** (0.5 * m)
    pmmp1 = arr * (2 * m + 1) * pmm
    # a row with m > degree has seed 0, so it stays +0 in pmm
    values = np.where(deg <= m, pmm, pmmp1)
    for k in range(2, max(int(d) - abs(int(o)) for d, o in pairs) + 1):
        ell = m + k
        pmm, pmmp1 = pmmp1, (arr * (2 * ell - 1) * pmmp1 - (ell + m - 1) * pmm) / k
        values = np.where(deg == ell, pmmp1, values)
    return float(values) if values.ndim == 0 else values


def gen_laguerre(degree, alpha, x):
    """Generalized Laguerre polynomial ``L_degree^alpha(x)`` for x >= 0.

    Three-term recurrence in the degree:
    ``(k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}``.

    Parameters
    ----------
    degree : int or ndarray of int
        Non-negative polynomial degrees.
    alpha : float or ndarray
        Upper indices, all > -1.
    x : float or ndarray
        Evaluation points, all >= 0.

    ``degree``, ``alpha`` and ``x`` broadcast together, so a column of
    (degree, alpha) pairs against an array of points runs every polynomial in
    one recurrence, up to the largest degree.
    """
    deg = np.asarray(degree)
    alpha = np.asarray(alpha, dtype=float)
    arr = np.asarray(x, dtype=float)
    lkm1 = np.ones(np.broadcast_shapes(deg.shape, alpha.shape, arr.shape))
    lk = 1.0 + alpha - arr
    values = np.where(deg == 0, lkm1, lk)
    for k in range(1, int(deg.max())):
        lkm1, lk = lk, ((2 * k + 1 + alpha - arr) * lk - (k + alpha) * lkm1) / (k + 1)
        values = np.where(deg == k + 1, lk, values)
    return float(values) if values.ndim == 0 else values


def polar_profiles(qns):
    """theta factors (sin theta)^{-1/2} P_l^n(cos theta) of the states ``qns``.

    f(theta) has shape (len(qns), *theta.shape): the trigonometric factors
    are taken once, and one Legendre recurrence runs over the column of (l, n).
    Every rule node lies inside (0, pi), away from the axis where it is singular.
    """
    l, n = np.array([(qn.l, qn.n) for qn in qns]).T

    def f(theta):
        theta = np.asarray(theta, dtype=float)
        s = np.sin(theta)
        column = (-1,) + (1,) * theta.ndim
        return assoc_legendre(l.reshape(column), n.reshape(column), np.cos(theta)) / np.sqrt(s)

    return f


def rapidity_profiles(qns):
    """beta factors (1 - tanh^2 beta)^{1/4} P_m^{-n}(tanh beta) of the states ``qns``.

    f(beta) has shape (len(qns), *beta.shape): tanh and the envelope are
    taken once, and one Legendre recurrence runs over the column of (m, -n).
    """
    m, n = np.array([(qn.m, qn.n) for qn in qns]).T

    def f(beta):
        u = np.tanh(np.asarray(beta, dtype=float))
        column = (-1,) + (1,) * u.ndim
        return ((1.0 - u) * (1.0 + u)) ** 0.25 * assoc_legendre(m.reshape(column),
                                                                 -n.reshape(column), u)

    return f


def radial_profiles(qns):
    """rho factors rho^{-1/2} s^{l/2} e^{-s/2} L_{n_a}^{l+1/2}(s), s = rho^2,
    of the states ``qns``.

    f(rho) has shape (len(qns), *rho.shape): s, e^{-s/2} and rho^{-1/2} are
    taken once, and one Laguerre recurrence runs over the column of
    (n_a, l + 1/2).  Exactly 0 wherever e^{-s/2} underflows: the polynomial
    is taken at s = 0 there, since far enough out it would overflow and
    make 0 * inf.  Every rule node has rho > 0, away from the singular origin.
    """
    n_a = np.array([qn.n_a for qn in qns])
    half_l = 0.5 * np.array([qn.l for qn in qns])

    def f(rho):
        rho = np.asarray(rho, dtype=float)
        with np.errstate(over="ignore"):
            s = rho * rho
        decay = np.exp(-0.5 * s)
        s = np.where(decay > 0.0, s, 0.0)
        column = (-1,) + (1,) * rho.ndim
        power = half_l.reshape(column)
        polynomial = gen_laguerre(n_a.reshape(column), 2.0 * power + 0.5, s)
        return s ** power * polynomial * (decay / np.sqrt(rho))

    return f
