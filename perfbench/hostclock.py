"""Host speed, measured beside the program, and times in reference seconds.

Other tenants of a shared host slow this process by up to 2x, switching
within seconds, so the wall times of one benchmark run drift against those
of the next: their spread over ten runs reached 30-60 %.  CPU time drifts
with them, since the slowdown lies inside the process's own CPU time.  So
each timed step runs under a ``HostClock``: fixed reference tasks measure
the host's slowness (1 on a quiet host, 2 at half speed) just before and
after the step and, from a timer signal, every SAMPLE_EVERY_S seconds
while it runs.  The step's time in reference seconds is its wall time, less
the samples taken inside it, divided by the slowness over it.  The tasks do
not touch the program, so a change to the program moves reference times as
it moves wall times.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

__all__ = ["HostClock", "bracket", "slowness"]

SAMPLE_EVERY_S = 0.05
# samples before and after each step; they stand in for the samples inside
# a step too short to hold MIN_INSIDE of them
BRACKET_SAMPLES = 4
MIN_INSIDE = 3

_DENSE = np.random.default_rng(0).standard_normal((120, 120))


def _python_loop():
    total = 0
    for i in range(25_000):
        total += i * i


def _small_arrays():
    v = np.ones(8)
    for _ in range(375):
        v = v * 1.0000001 + 0.0


def _dense_solves():
    for _ in range(5):
        np.linalg.solve(_DENSE, _DENSE[:, 0])


# The kinds of work a check does: interpreted Python, small-array numpy and
# dense linear algebra.  Each task pairs with its time on a quiet host, the
# least of its times over a minute on a 2-vCPU Intel Xeon VM, so that
# reference seconds read close to wall seconds there.
REFERENCE_TASKS = ((_python_loop, 0.0015), (_small_arrays, 0.00052),
                   (_dense_solves, 0.00077))


def slowness() -> float:
    """One sample of the host's slowness: the geometric mean of the
    reference tasks' wall times over their quiet-host times."""
    ratios = []
    for task, quiet_s in REFERENCE_TASKS:
        t0 = time.perf_counter()
        task()
        ratios.append((time.perf_counter() - t0) / quiet_s)
    return statistics.geometric_mean(ratios)


def bracket() -> list[float]:
    """BRACKET_SAMPLES samples of the host's slowness, one after another."""
    return [slowness() for _ in range(BRACKET_SAMPLES)]


class HostClock:
    """Times steps in wall and reference seconds.

    With ``inside=False`` no samples are taken while a step runs, so that
    spans recorded inside it hold no sampling time; the slowness then comes
    from the brackets alone.  ``slowness`` lists the slowness over each
    step timed.
    """

    def __init__(self, inside: bool = True):
        self.inside = inside
        self.slowness: list[float] = []
        self._before = bracket()
        self._samples: list[float] = []
        self._sampling_s = 0.0

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self._samples.append(slowness())
        self._sampling_s += time.perf_counter() - t0

    def time(self, fn):
        """Run ``fn()``.  Returns its result, its wall time less the
        samples taken inside it, and that time in reference seconds."""
        self._samples, self._sampling_s = [], 0.0
        if self.inside:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S,
                             SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - t0
            if self.inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        wall -= self._sampling_s
        after = bracket()
        over = self._samples
        if len(over) < MIN_INSIDE:
            over = over + self._before + after
        slow = statistics.geometric_mean(over)
        self._before = after
        self.slowness.append(slow)
        return result, wall, wall / slow
