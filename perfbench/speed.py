"""Machine-speed correction for timings on a shared host.

A small shared host drifts in speed by up to 1.5x in phases of 10-60 s,
so a plain wall time says as much about the neighbours as about the
program. Each timing is therefore taken together with a fixed reference
computation, `probe()`, which never calls the program: it runs BRACKET
times right before and right after the timed call and, in
`Speedometer.timed`, on a SIGALRM timer every PROBE_EVERY seconds during
it.

The reference time of a call is its wall time, less the time its inner
probes took, multiplied by the mean of REF_S / duration over all its
probes: the call's time on a machine where one probe takes REF_S. It
does not move when the host speeds up or slows down, while a change to
the program's own speed moves it fully. Both numbers are kept with
every sample.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# one probe takes 8-15 ms on a 2-vCPU shared VM as its speed drifts, so
# reference seconds there are of the order of wall seconds
REF_S = 0.010
PROBE_EVERY = 0.25
PROBE_STEPS = 300
WARM_STEPS = 30
BRACKET = 3

_VECS = np.random.default_rng(12297).normal(size=(64, 3))


def _steps(n):
    acc = 0.0
    table = {}
    for i in range(n):
        a = _VECS[i & 63]
        c = np.cross(a, _VECS[(i * 7) & 63])
        acc += float(c @ a) + (i % 13)
        table[i & 31] = acc
    return acc


def probe():
    """Wall time of a fixed mix of interpreter work and small numpy
    calls, like the program's inner loops. A few untimed steps first
    bring the probe's code and data back into the caches, so a probe
    that interrupts the program is not slower than one between calls."""
    _steps(WARM_STEPS)
    t0 = time.perf_counter()
    _steps(PROBE_STEPS)
    return time.perf_counter() - t0


def bracket():
    """Durations of BRACKET probes run back to back."""
    return [probe() for _ in range(BRACKET)]


def reference_seconds(seconds, probes):
    """`seconds` of the program's own work in reference seconds, given
    the durations of the probes run around and during it."""
    return seconds * statistics.fmean(REF_S / d for d in probes)


class Speedometer:
    """Times calls in wall and reference seconds, probing the machine's
    speed on a timer while they run."""

    def __init__(self, every=PROBE_EVERY):
        self.every = every
        self.inside = []

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        duration = probe()
        self.inside.append((start, time.perf_counter() - start, duration))

    def timed(self, fn):
        """(fn's result, wall seconds, reference seconds). The reference
        time leaves out the time the timer's probes took."""
        before = bracket()
        self.inside = []
        old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        try:
            t0 = time.perf_counter()
            result = fn()
            t1 = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
        # a probe may start after fn returned, before the timer stops
        self.inside = [p for p in self.inside if p[0] < t1]
        busy = sum(min(start + spent, t1) - start
                   for start, spent, _ in self.inside)
        probes = before + [d for _, _, d in self.inside] + bracket()
        return result, t1 - t0, reference_seconds(t1 - t0 - busy, probes)
