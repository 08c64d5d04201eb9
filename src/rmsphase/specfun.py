"""Special functions for the oscillator eigenbasis.

Ferrers associated Legendre functions and generalized Laguerre
polynomials.  Conventions are fixed once here so every caller agrees:

* Legendre functions are the real Ferrers functions on [-1, 1] with the
  Condon-Shortley phase.
* Negative orders are defined through the reflection
  ``P_l^{-n} = (-1)^n (l-n)!/(l+n)! P_l^n``, and any ``|order| > degree``
  evaluates to exactly zero, a return value, not an error: a null state's
  profile is zero everywhere.  Builds evaluate only the live states, so
  none of them reaches that zero.
* Laguerre polynomials use the stable three-term recurrence in the degree.

Both functions broadcast their indices against the evaluation points, so a
column of index pairs runs in one recurrence; both are stateless and safe to
call from multiple threads.

Neither checks its arguments.  Their one caller, the axis profiles in
``oscillator``, passes catalogue indices (degrees 2 and 3, orders of
either sign up to 3, upper indices 2.5 and 3.5) and points inside the
domain: the cosine or tanh of a rule node, in [-1, 1], and rho^2 >= 0.
Outside that contract the recurrences return whatever the arithmetic
gives.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["assoc_legendre", "gen_laguerre"]


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
