"""Exception hierarchy shared across the package: one class per error exit code.

The CLI maps ``ParameterError`` to exit 2 (``configuration error:``) and
``EvaluationError`` to exit 3 (``numerical error:``).  No package error
exits 1; that code is left to a failed validation.  Each ``require_*``
returns the value that the package keeps, so an input is checked and
converted once, where it enters.  ``require_integer`` is the one integer
check behind every index (the keys of a coefficient mapping and
``perturbation.phi_integral``'s azimuthal indices too) and count the package
takes, and returns it as an int.  ``require_real`` is the one number check
behind every real input, and returns it as a float.  ``require_instance``
is the one type check behind every record.
"""

from numbers import Real

import numpy as np


class RmsPhaseError(Exception):
    """Base class for all package errors; raised only through a subclass."""


class ParameterError(RmsPhaseError):
    """Bad input: a value outside a function's domain, an invalid construction
    parameter or run setting, or a state that vanishes identically.  Exit 2."""


class EvaluationError(RmsPhaseError):
    """A numerical step failed: a non-finite integrand at a quadrature node, a
    non-positive norm or a loop too coarse for its radius.  Exit 3."""


def require_integer(value, what: str) -> int:
    """``value`` as an int; ParameterError unless it is an int or a numpy
    integer.

    A bool is refused, although Python counts it as an int: ``True`` would
    pass as 1.  Callers go on with the int: a numpy integer's arithmetic
    has a fixed width, and wraps around.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    return int(value)


def require_real(value, what: str) -> float:
    """``value`` as a float; ParameterError unless it is a real number (an
    int, a float or a numpy real) that a float can hold.

    A bool is refused, although Python counts it as a real: ``True`` would
    pass as 1.0.  A string is refused here, before any arithmetic on it,
    and so is an int too large for a float.  Callers go on with the float:
    numpy scalar arithmetic warns where float arithmetic gives inf or
    raises, and a numpy int64 wraps around.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ParameterError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:       # the int, of hundreds of digits, is not named
        raise ParameterError(f"{what} is too large for a float") from None


def require_instance(value, kind: type, what: str) -> None:
    """Raise ParameterError unless ``value`` is a ``kind``, before any cache
    hashes it or any attribute of it is read."""
    if not isinstance(value, kind):
        raise ParameterError(f"{what} must be a {kind.__name__}, got {value!r}")
