"""Special functions for the oscillator eigenbasis.

Ferrers associated Legendre functions and generalized Laguerre
polynomials, over the columns of indices that the live states take.
Conventions are fixed once here so every caller agrees:

* Legendre functions are the real Ferrers functions on [-1, 1] with the
  Condon-Shortley phase.  A live state has l >= n and m >= n, so every
  column pair has 0 <= degree - |order| <= 1: the polar axis's (l, n) in
  {(2, 2), (3, 2), (3, 3)} and the rapidity axis's (m, -n) in
  {(2, -2), (3, -2), (3, -3)}.  Each function is one of the two closed-form
  seeds ``P_m^m`` and ``P_{m+1}^m``, m = |order|, with no recurrence.
* Negative orders are defined through the reflection
  ``P_l^{-n} = (-1)^n (l-n)!/(l+n)! P_l^n``, which scales the seed.
* Laguerre polynomials use the stable three-term recurrence in the degree.

Both take their indices as a column that broadcasts against one array of
points, so the column runs in one pass.  Each is a plan, then an
evaluation: ``legendre_plan`` and ``laguerre_plan`` take once what depends
on the indices alone (seeds, factors, masks and the Laguerre recurrence's
length), and ``legendre_values`` and ``laguerre_values`` run the
arithmetic on one array of points, returning an array.  A caller that
evaluates one column on many node arrays plans once and evaluates per
array.  No function writes to a plan, so every function here is stateless
and safe to call from multiple threads.

None of them checks its arguments.  Their one caller, the axis profiles in
``oscillator``, passes the live columns above, the radial axis's
(n_a, l + 1/2) with n_a in {2, 3}, and points inside the domain: the
cosine or tanh of a rule node, in [-1, 1], and rho^2 >= 0.  Outside that
contract they return whatever the arithmetic gives.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = ["legendre_plan", "legendre_values", "laguerre_plan", "laguerre_values"]


def _seed(degree: int, order: int) -> float:
    """(-1)^m (2m-1)!!, m = |order|, times the reflection factor of a negative
    order, rounded once: P_m^m / (1-x^2)^{m/2}."""
    m = abs(order)
    double = math.prod(range(1, 2 * m, 2))
    if order >= 0:
        return (-1) ** m * double
    return double * math.factorial(degree - m) / math.factorial(degree + m)


class _LegendrePlan(NamedTuple):
    """A column of (degree, order) pairs, as ``legendre_values`` reads it."""

    seed: np.ndarray        # _seed of each pair
    half_m: np.ndarray      # 0.5 m, the power of 1 - x^2 in P_m^m
    first: np.ndarray       # 2m + 1, the factor of x P_m^m in P_{m+1}^m
    low: np.ndarray         # degree <= m: the row is P_m^m, else P_{m+1}^m


def legendre_plan(degree, order) -> _LegendrePlan:
    """The seeds, factors and masks of the (degree, order) pairs, once.

    ``degree`` and ``order`` are integer arrays that broadcast together,
    each pair with 0 <= degree - |order| <= 1, so ``legendre_values(plan, x)``
    does arithmetic on ``x`` only.
    """
    deg, order = np.broadcast_arrays(degree, order)
    pairs = zip(deg.ravel().tolist(), order.ravel().tolist())
    m = np.abs(order)
    seed = np.reshape([_seed(l, k) for l, k in pairs], deg.shape)
    return _LegendrePlan(seed, 0.5 * m, 2 * m + 1, deg <= m)


def legendre_values(plan: _LegendrePlan, x) -> np.ndarray:
    """The functions ``P_degree^order`` of ``plan`` at the points ``x``, an
    array that broadcasts against its indices."""
    seed, half_m, first, low = plan
    arr = np.asarray(x, dtype=float)
    y = (1.0 - arr) * (1.0 + arr)
    pmm = seed * y ** half_m
    return np.where(low, pmm, arr * first * pmm)


class _LaguerrePlan(NamedTuple):
    """A column of (degree, alpha) pairs, as ``laguerre_values`` reads it."""

    first: np.ndarray       # 1 + alpha, of L_1 = 1 + alpha - x
    zero: np.ndarray        # degree == 0: the row keeps L_0 = 1
    steps: tuple            # per step k >= 1: (k + 1, 2k + 1 + alpha, k + alpha, degree == k + 1)


def laguerre_plan(degree, alpha) -> _LaguerrePlan:
    """The recurrence's coefficients and masks up to the largest degree, once.

    ``degree`` (non-negative integers) and ``alpha`` (upper indices > -1)
    broadcast together, so ``laguerre_values(plan, x)`` does arithmetic on
    ``x`` only:
    ``(k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}``.
    """
    deg = np.asarray(degree)
    alpha = np.asarray(alpha, dtype=float)
    steps = tuple((k + 1, 2 * k + 1 + alpha, k + alpha, deg == k + 1)
                  for k in range(1, int(deg.max())))
    return _LaguerrePlan(1.0 + alpha, deg == 0, steps)


def laguerre_values(plan: _LaguerrePlan, x) -> np.ndarray:
    """The polynomials ``L_degree^alpha`` of ``plan`` at the points ``x``
    (all >= 0), an array that broadcasts against its indices."""
    first, zero, steps = plan
    arr = np.asarray(x, dtype=float)
    lkm1 = np.ones(np.broadcast_shapes(zero.shape, first.shape, arr.shape))
    lk = first - arr
    values = np.where(zero, lkm1, lk)
    for k1, rise, fall, at in steps:
        lkm1, lk = lk, ((rise - arr) * lk - fall * lkm1) / k1
        values = np.where(at, lk, values)
    return values
