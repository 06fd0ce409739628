"""Host-speed sampling: times at the reference host's speed.

The benchmark runs on a few cores of a host that other tenants share, and
their load slows every operation by up to half, in phases that change within
seconds.  Timed in wall seconds alone, the median of one run then says more
about the neighbours than about the solver.

While a timed region runs, a SIGALRM handler times a fixed calibration
kernel every ``INTERVAL`` seconds.  The kernel uses only numpy and plain
Python, the same mix of short array expressions and interpreter work that
the solver's Bessel series and quadrature are made of, and never calls
excyl, so no change to the solver can move it.  A region reports

* ``seconds``: its wall time less the time the handler took, and
* ``reference_seconds``: ``seconds`` times ``REFERENCE_S`` over the mean
  kernel time sampled during the region, i.e. the time the region would
  have taken on a host where the kernel takes ``REFERENCE_S``.

A solver that does twice the work reads twice the reference seconds; a
neighbour that slows the host slows the kernel with it and cancels out.
Sampling inside the region matters: a kernel timed only before and after a
multi-second operation misses most of the host's changes.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.05        # seconds between kernel samples inside a region
# Mean kernel time on the reference host, a 2-vCPU shared Linux VM (Python
# 3.11.7, numpy 2.4.6) at a quiet moment.  Only the unit depends on it.
REFERENCE_S = 5.0e-4

_X = np.linspace(1.0, 60.0, 513)


def kernel() -> float:
    """The calibration kernel: a power series on a 513-point array and a
    short interpreter loop, about a millisecond.  Returns its wall time."""
    t0 = time.perf_counter()
    for j in range(5):
        q = (0.25 + 0.01 * j) * _X * _X
        term = np.ones_like(_X)
        total = np.zeros_like(_X)
        for m in range(1, 16):
            term = term * q / (m * (m + 1.5))
            total += term
        np.log1p(total)
        np.exp(-_X)
    acc = 0
    for i in range(3000):
        acc += i * i
    return time.perf_counter() - t0


class Region:
    """Context manager that samples the kernel while its body runs.

    Re-arming a one-shot timer at the end of each sample keeps a gap of
    ``INTERVAL`` between samples however slow the host gets.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.seconds = 0.0
        self.reference_seconds = 0.0
        self._previous = None
        self._t0 = 0.0

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(kernel())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Region":
        self.samples.append(kernel())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel())
        self.seconds = wall - self.spent
        self.reference_seconds = self.seconds * REFERENCE_S / self.mean_kernel_s

    @property
    def mean_kernel_s(self) -> float:
        return statistics.fmean(self.samples)
