"""Correctness checks on rmsphase outputs.

Every physical loop phase of this model vanishes, and ``rmsphase validate``
compares the three routes with |x - y| <= max(rtol * max(|x|, |y|), atol).
The checks here use the same tolerances and never round a value before
comparing it: a loop-overlap phase printed as -1.37e-13 passes because it
is inside the overlap route's absolute floor, not because it reads as 0.
Each check returns None when the output is right and a reason otherwise.
"""

from __future__ import annotations

import math
import re

# (rtol, atol) of each route against the closed form, as in validate's
# oracle-agreement check.
CONNECTION_TOL = (1e-6, 1e-9)
OVERLAP_TOL = (1e-5, 1e-7)
# validate's orthonormality check: max |G - I| below this.
GRAM_TOL = 1e-8

# Catalogue order (n_a, l, n, m), indices 1..16; a state is identically zero
# when l < n or m < n.
QUANTUM_NUMBERS = tuple((n_a, l, n, m) for n_a in (2, 3) for l in (2, 3)
                        for n in (2, 3) for m in (2, 3))
NULL_STATES = tuple(j for j, (_, l, n, m) in enumerate(QUANTUM_NUMBERS, 1)
                    if l < n or m < n)
LIVE_STATES = tuple(j for j in range(1, 17) if j not in NULL_STATES)
ELECTRON_MASS = 9.109e-31


def within(x: float, y: float, rtol: float, atol: float) -> bool:
    return abs(x - y) <= max(rtol * max(abs(x), abs(y)), atol)


def overlap_rtol(steps: int) -> float:
    """validate's overlap rtol plus the route's leading discretization error.

    The overlap product around an N-step loop misses a nonzero phase by a
    relative (2 pi / N)^2 / 6 (measured 6.58/N^2 on random coefficient
    sets); validate never sees this term because it compares zeros.
    """
    return OVERLAP_TOL[0] + 1.1 * (2.0 * math.pi / steps) ** 2 / 6.0


def route_tol(method: str) -> float:
    """Absolute floor within which a vanishing phase must come out."""
    return OVERLAP_TOL[1] if method == "loop-overlap" else CONNECTION_TOL[1]


# ---------------------------------------------------------------------------
# CLI outputs

def _number(pattern: str, text: str) -> float | None:
    match = re.search(pattern, text, re.MULTILINE)
    return float(match.group(1)) if match else None


def check_table_csv(returncode: int, stdout: str, reference: str | None) -> str | None:
    """``table --format csv``: exit 0 and, when a reference is given, the same bytes.

    Without a reference the rows are checked one by one: every live state
    once, in order, converged, with a phase that vanishes in SI units.
    """
    if returncode != 0:
        return f"exit code {returncode}"
    if reference is not None:
        return None if stdout == reference else "CSV differs from the reference"
    lines = stdout.splitlines()
    if not lines or lines[0] != "j,omega_hz,gamma_over_r2,method,converged":
        return "bad CSV header"
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(LIVE_STATES):
        return "CSV rows are not the live states in order"
    for j, omega, gamma, method, converged in rows:
        prefactor = 1.0 / (ELECTRON_MASS * float(omega) ** 2) ** 2
        if method != "closed" or converged != "true":
            return f"row {j}: method {method}, converged {converged}"
        if abs(float(gamma)) > CONNECTION_TOL[1] * prefactor:
            return f"row {j}: phase {gamma} does not vanish"
    return None


def check_phase(returncode: int, stdout: str, j: int, method: str) -> str | None:
    """``phase --state J --method M``: the catalogue row and a vanishing phase."""
    if returncode != 0:
        return f"exit code {returncode}"
    qn = ", ".join(map(str, QUANTUM_NUMBERS[j - 1]))
    if not stdout.startswith(f"state {j}: quantum numbers (n_a, l, n, m) = ({qn})\n"):
        return "wrong state header"
    if f"\nmethod: {method}\n" not in stdout:
        return "wrong method line"
    value = _number(r"= dimensionless (\S+) x prefactor", stdout)
    if value is None or not math.isfinite(value):
        return "no dimensionless phase"
    if abs(value) > route_tol(method):
        return f"phase {value} does not vanish"
    return None


def check_oracle(returncode: int, stdout: str, j: int, steps: int) -> str | None:
    """``oracle --state J``: three vanishing routes that agree as validate requires."""
    if returncode != 0:
        return f"exit code {returncode}"
    if not stdout.startswith(f"state {j} oracle comparison"):
        return "wrong header"
    values = {m: _number(rf"^\s*{m}: (\S+)", stdout)
              for m in ("closed", "loop-connection", "loop-overlap")}
    if any(v is None or not math.isfinite(v) for v in values.values()):
        return "missing route value"
    if stdout.count(f"[steps={steps} ") != 2:
        return "wrong loop step count"
    return check_routes(values["closed"], values["loop-connection"],
                        values["loop-overlap"])


def check_validate(returncode: int, stdout: str) -> str | None:
    """``validate``: exit 0, every check PASS, and the summary says so."""
    if returncode != 0:
        return f"exit code {returncode}"
    lines = stdout.splitlines()
    summary = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1] if lines else "")
    results = lines[:-1]
    if (summary is None or summary.group(1) != summary.group(2)
            or int(summary.group(2)) != len(results) or len(results) < 9):
        return "bad summary line"
    if not all(line.startswith("[PASS] ") for line in results):
        return "a check did not pass"
    return None


# ---------------------------------------------------------------------------
# in-process results

def check_routes(closed: float, connection: float, overlap: float) -> str | None:
    """A physical phase: all routes vanish and agree with validate's tolerances."""
    if abs(closed) > CONNECTION_TOL[1]:
        return f"closed-form phase {closed!r} does not vanish"
    if not within(closed, connection, *CONNECTION_TOL):
        return f"connection {connection!r} disagrees with closed {closed!r}"
    if not within(closed, overlap, *OVERLAP_TOL):
        return f"overlap {overlap!r} disagrees with closed {closed!r}"
    return None


def check_synthetic(closed: float, expected: float, connection: float,
                    overlap: float, steps: int) -> str | None:
    """A synthetic nonzero phase: closed form equals -2 pi Im sum conj(a) b,
    and both loop routes reproduce it (the overlap route up to its
    discretization error)."""
    if not within(closed, expected, 1e-12, 0.0):
        return f"closed form {closed!r}, expected {expected!r}"
    if not within(closed, connection, *CONNECTION_TOL):
        return f"connection {connection!r} disagrees with closed {closed!r}"
    if not within(closed, overlap, overlap_rtol(steps), OVERLAP_TOL[1]):
        return f"overlap {overlap!r} disagrees with closed {closed!r}"
    return None


def check_table(phases: dict[int, float], gram_dev: float) -> str | None:
    """An in-process table: ten vanishing closed-form phases and an
    orthonormal Gram matrix."""
    if sorted(phases) != list(LIVE_STATES):
        return "table does not cover the live states"
    for j, value in phases.items():
        if not abs(value) <= CONNECTION_TOL[1]:
            return f"state {j}: phase {value!r} does not vanish"
    if not gram_dev < GRAM_TOL:
        return f"max |G - I| = {gram_dev!r}"
    return None
