"""Machine-speed reference: times on a drifting machine, read at one speed.

On a shared virtual machine the CPU's speed drifts by tens of percent over
seconds to tens of minutes, while the program does exactly the same work.
Such drift lasts longer than one run, so no median over a run removes it,
and two runs of the same code minutes apart can differ by more than a
regression bound.

A run therefore also times a fixed reference computation right after
every request, and each request's latency is scaled by ``NOMINAL_S`` over
that reference time: it reads as it would on this machine when the
reference takes ``NOMINAL_S``.  The drift changes within a second, so the
reference timed next to a request follows it much better than a median
over the run.  A change to the program moves its own times and not the
reference's, so it moves the scaled metrics in full; drift moves both and
cancels.

The reference uses only Python and numpy, never ``noiseamp``, and mixes the
kinds of work the workloads do: a Python loop of 3x3 numpy products (as
in the small-LMI eigenvalue code), elementwise maths over a 1.6 MB array
(as in the per-mode sums over large tori and the Monte Carlo buffers) and
plain integer arithmetic.  It must never change: changing it, or
``NOMINAL_S``, rescales every time metric.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np

# The reference time the time metrics are read at.  On the 2-vCPU virtual
# machine the baseline was measured on (Python 3.11, numpy 2.4) the
# reference took 3.6 to 5.8 ms, median 5.2 ms.
NOMINAL_S = 4.0e-3

_BULK = np.linspace(0.0, 1.0, 200_000)


def _kernel() -> float:
    a = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
    acc = 0.0
    for _ in range(40):
        rot = np.eye(3)
        rot[0, 1], rot[1, 0] = 0.1, -0.1
        a = rot.T @ a @ rot
        a = 0.5 * (a + a.T)
        acc += math.sqrt(float(np.sum(np.tril(a, -1) ** 2)))
    acc += float(np.sum(np.cos(_BULK) * _BULK))
    total = 0
    for i in range(20_000):
        total += i * i
    return acc + total


class Speed:
    """Reference timings taken during one run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, times: int = 1) -> float:
        """Time the reference ``times`` times; return the last timing."""
        # The reference makes no reference cycles; with the collector off,
        # a large heap left by the program cannot slow it down.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                t0 = time.perf_counter()
                _kernel()
                self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        return self.samples[-1]

    @property
    def median_s(self) -> float:
        return statistics.median(self.samples)

    @property
    def factor(self) -> float:
        """Nominal over the median reference time (below 1: machine slow)."""
        return NOMINAL_S / self.median_s


def scale(value: float, unit: str, factor: float) -> float:
    """A measured value read at nominal speed: times shrink by ``factor``
    on a slow machine, rates grow; other units stay as measured."""
    if unit in ("s", "ms", "ns"):
        return value * factor
    if unit.endswith("/s"):
        return value / factor
    return value
