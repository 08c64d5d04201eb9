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
column of index pairs runs in one recurrence.  Each is a plan, then an
evaluation: ``legendre_plan`` and ``laguerre_plan`` take once what depends
on the indices alone (seeds, factors, masks and the recurrence's length),
and ``legendre_values`` and ``laguerre_values`` run the arithmetic on one
array of points.  ``assoc_legendre`` and ``gen_laguerre`` plan, then
evaluate, so there is one implementation of each; a caller that evaluates
one column on many node arrays plans once and evaluates per array.  No
function writes to a plan, so every function here is stateless and safe
to call from multiple threads.

None of them checks its arguments.  Their one caller, the axis profiles in
``oscillator``, passes catalogue indices (degrees 2 and 3, orders of
either sign up to 3, upper indices 2.5 and 3.5) and points inside the
domain: the cosine or tanh of a rule node, in [-1, 1], and rho^2 >= 0.
Outside that contract the recurrences return whatever the arithmetic
gives.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = ["assoc_legendre", "gen_laguerre", "legendre_plan", "legendre_values",
           "laguerre_plan", "laguerre_values"]


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


class _LegendrePlan(NamedTuple):
    """A column of (degree, order) pairs, as ``legendre_values`` reads it."""

    seed: np.ndarray        # _seed of each pair
    half_m: np.ndarray      # 0.5 m, the power of 1 - x^2 in P_m^m
    first: np.ndarray       # 2m + 1, the factor of x P_m^m in P_{m+1}^m
    low: np.ndarray         # degree <= m: the row keeps P_m^m
    steps: tuple            # per step k >= 2: (k, 2 ell - 1, ell + m - 1, degree == ell)


def legendre_plan(degree, order) -> _LegendrePlan:
    """Everything ``assoc_legendre`` computes from its indices alone, once.

    ``degree`` and ``order`` are as in ``assoc_legendre``; the plan holds
    their broadcast seeds, factors and masks and the recurrence's length,
    so ``legendre_values(plan, x)`` does arithmetic on ``x`` only.
    """
    deg, order = np.broadcast_arrays(degree, order)
    pairs = list(zip(deg.ravel().tolist(), order.ravel().tolist()))
    m = np.abs(order)
    seed = np.reshape([_seed(int(l), int(k)) for l, k in pairs], deg.shape)
    steps = []
    for k in range(2, max(int(d) - abs(int(o)) for d, o in pairs) + 1):
        ell = m + k
        steps.append((k, 2 * ell - 1, ell + m - 1, deg == ell))
    # a row with m > degree has seed 0, so it stays +0 in P_m^m
    return _LegendrePlan(seed, 0.5 * m, 2 * m + 1, deg <= m, tuple(steps))


def legendre_values(plan: _LegendrePlan, x):
    """The functions of ``plan`` at the points ``x``, which broadcast against
    its indices; a float where both are scalars."""
    seed, half_m, first, low, steps = plan
    arr = np.asarray(x, dtype=float)
    y = (1.0 - arr) * (1.0 + arr)
    pmm = seed * y ** half_m
    pmmp1 = arr * first * pmm
    values = np.where(low, pmm, pmmp1)
    for k, rise, fall, at in steps:
        pmm, pmmp1 = pmmp1, (arr * rise * pmmp1 - fall * pmm) / k
        values = np.where(at, pmmp1, values)
    return float(values) if values.ndim == 0 else values


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
    return legendre_values(legendre_plan(degree, order), x)


class _LaguerrePlan(NamedTuple):
    """A column of (degree, alpha) pairs, as ``laguerre_values`` reads it."""

    first: np.ndarray       # 1 + alpha, of L_1 = 1 + alpha - x
    zero: np.ndarray        # degree == 0: the row keeps L_0 = 1
    steps: tuple            # per step k >= 1: (k + 1, 2k + 1 + alpha, k + alpha, degree == k + 1)


def laguerre_plan(degree, alpha) -> _LaguerrePlan:
    """Everything ``gen_laguerre`` computes from its indices alone, once.

    ``degree`` and ``alpha`` are as in ``gen_laguerre``; the plan holds the
    recurrence's coefficients and masks up to the largest degree, so
    ``laguerre_values(plan, x)`` does arithmetic on ``x`` only.
    """
    deg = np.asarray(degree)
    alpha = np.asarray(alpha, dtype=float)
    steps = tuple((k + 1, 2 * k + 1 + alpha, k + alpha, deg == k + 1)
                  for k in range(1, int(deg.max())))
    return _LaguerrePlan(1.0 + alpha, deg == 0, steps)


def laguerre_values(plan: _LaguerrePlan, x):
    """The polynomials of ``plan`` at the points ``x``, which broadcast
    against its indices; a float where both are scalars."""
    first, zero, steps = plan
    arr = np.asarray(x, dtype=float)
    lkm1 = np.ones(np.broadcast_shapes(zero.shape, first.shape, arr.shape))
    lk = first - arr
    values = np.where(zero, lkm1, lk)
    for k1, rise, fall, at in steps:
        lkm1, lk = lk, ((rise - arr) * lk - fall * lkm1) / k1
        values = np.where(at, lk, values)
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
    return laguerre_values(laguerre_plan(degree, alpha), x)
