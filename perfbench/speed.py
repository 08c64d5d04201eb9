"""Times at a fixed machine speed.

The CPU speed of a shared 2-vCPU virtual machine drifts by up to 1.7x
over seconds to minutes, and CPU time drifts with wall time, so the clock
itself slows.  Within one run the drift moves every time by about the same
factor, but a set of runs can straddle a slow and a fast phase.  So a
fixed reference computation (small numpy kernels and bytecode, as in the
package) is timed before and after every measurement, on the vCPU the
measured work runs on, and a raw time t is reported as ``t * REF_S / ref``
with ``ref`` the mean of those two reference times.  Raw times are kept
next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The reference's time on a 2-vCPU x86-64 virtual machine in its fast
# phase: scaled times read as milliseconds of that machine.
REF_S = 0.5e-3

_X = np.linspace(0.1, 1.0, 64)


def reference_work() -> float:
    total = 0.0
    for k in range(60):
        total += float((np.sin(_X * k) * np.exp(-_X)).sum())
        for i in range(40):
            total += i * 0.5
    return total


class Speed:
    """Reference timings taken around measurements."""

    def __init__(self, repeats: int):
        self.repeats = repeats
        self.last: float | None = None
        self.refs: list[float] = []
        reference_work()

    def sample(self) -> float:
        """Median time of ``repeats`` reference runs, in seconds."""
        times = []
        for _ in range(self.repeats):
            start = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - start)
        self.last = statistics.median(times)
        self.refs.append(self.last)
        return self.last

    def measure(self, fn):
        """Run ``fn()``; returns (result, raw seconds, scale to reference speed).

        The reference taken after one measurement serves as the one before
        the next, so back-to-back measurements cost one reference each.
        """
        before = self.last if self.last is not None else self.sample()
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        return result, raw, 2.0 * REF_S / (before + self.sample())
