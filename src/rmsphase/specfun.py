"""Special functions for the oscillator eigenbasis.

Ferrers associated Legendre functions and generalized Laguerre
polynomials.  Conventions are fixed once here so every caller agrees:

* Legendre functions are the real Ferrers functions on [-1, 1] with the
  Condon-Shortley phase.
* Negative orders are defined through the reflection
  ``P_l^{-n} = (-1)^n (l-n)!/(l+n)! P_l^n``, and any ``|order| > degree``
  evaluates to exactly zero.  The basis construction relies on that
  vanishing, so it is a return value, not an error.
* Laguerre polynomials use the stable three-term recurrence in the degree.

All evaluation routines are stateless, accept scalars or numpy arrays for
the evaluation argument, and are safe to call from multiple threads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["assoc_legendre", "gen_laguerre"]


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _maybe_scalar(values: np.ndarray, scalar: bool):
    return float(values) if scalar else values


def assoc_legendre(degree: int, order: int, x):
    """Ferrers associated Legendre function ``P_degree^order(x)`` on [-1, 1].

    Condon-Shortley phase; upward recurrence in the degree from the
    closed-form seeds ``P_m^m`` and ``P_{m+1}^m``.

    Parameters
    ----------
    degree : int
        Non-negative degree (the subscript).
    order : int
        Integer order (the superscript), may be negative.
    x : float or ndarray
        Evaluation points in [-1, 1].

    Returns
    -------
    float or ndarray
        Function value; exactly 0 where ``|order| > degree``.
    """
    if degree < 0 or degree != int(degree):
        raise DomainError(f"degree must be a non-negative integer, got {degree}")
    if order != int(order):
        raise DomainError(f"order must be an integer, got {order}")
    degree, order = int(degree), int(order)

    arr, scalar = _as_array(x)
    if np.any(np.abs(arr) > 1.0):
        raise DomainError("associated Legendre argument outside [-1, 1]")

    if abs(order) > degree:
        return _maybe_scalar(np.zeros_like(arr), scalar)

    if order < 0:
        n = -order
        pref = (-1) ** n * math.factorial(degree - n) / math.factorial(degree + n)
        return _maybe_scalar(pref * np.asarray(assoc_legendre(degree, n, arr)), scalar)

    m = order
    # seed P_m^m = (-1)^m (2m-1)!! (1-x^2)^{m/2}
    pmm = np.ones_like(arr)
    if m > 0:
        somx2 = np.sqrt((1.0 - arr) * (1.0 + arr))
        fact = 1.0
        for _ in range(m):
            pmm = -pmm * fact * somx2
            fact += 2.0
    if degree == m:
        return _maybe_scalar(pmm, scalar)

    pmmp1 = arr * (2 * m + 1) * pmm
    if degree == m + 1:
        return _maybe_scalar(pmmp1, scalar)

    for ell in range(m + 2, degree + 1):
        pll = (arr * (2 * ell - 1) * pmmp1 - (ell + m - 1) * pmm) / (ell - m)
        pmm, pmmp1 = pmmp1, pll
    return _maybe_scalar(pmmp1, scalar)


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
    if np.any(deg < 0) or np.any(deg != np.round(deg)):
        raise DomainError(f"degree must be a non-negative integer, got {degree}")
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= -1.0):
        raise DomainError(f"Laguerre upper index must exceed -1, got {alpha}")

    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("Laguerre argument must be non-negative")

    lkm1 = np.ones(np.broadcast_shapes(deg.shape, alpha.shape, arr.shape))
    lk = 1.0 + alpha - arr
    values = np.where(deg == 0, lkm1, lk)
    for k in range(1, int(deg.max())):
        lkm1, lk = lk, ((2 * k + 1 + alpha - arr) * lk - (k + alpha) * lkm1) / (k + 1)
        values = np.where(deg == k + 1, lk, values)
    return _maybe_scalar(values, values.ndim == 0)
