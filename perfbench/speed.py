"""Reference speed for timing on a shared host whose speed drifts.

The cores this benchmark runs on may be shared with other tenants, and
their speed then swings by tens of percent within seconds and drifts over
minutes.  A fixed exact-arithmetic kernel that does not depend on ramex is
timed, in thread CPU time, at the start and end of a run and every
``PERIOD_S`` seconds in between, from a ``SIGALRM`` handler in the
measuring process, so that long operations are sampled while they run.

A time measured over a stretch of the run is reported scaled to the
reference speed, at which the kernel takes ``REFERENCE_S`` seconds:
``seconds * REFERENCE_S / harmonic mean of the kernel times sampled over
that stretch``.  Samples are evenly spaced in time, and the harmonic mean
of the kernel's times is the inverse of its mean speed, so the product
estimates the time at constant reference speed.  Short operations are
pooled, in order, until their stretch holds ``MIN_SAMPLES`` samples.

The kernel takes about 2% of the run; it is never changed, because a
change would rescale every reported time.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.25
REFERENCE_S = 0.004
EDGE_SAMPLES = 5
MIN_SAMPLES = 8


def kernel() -> Fraction:
    """Determinant of a fixed 12 x 12 rational matrix by Gaussian elimination."""
    rng = random.Random(7)
    n = 12
    a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
    det = Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def _timed_kernel() -> float:
    start = time.thread_time()
    kernel()
    return time.thread_time() - start


class Speedometer:
    """Samples the kernel's time while it is running."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous_handler = None
        self._running = False

    def _sample(self, signum, frame) -> None:
        self.samples.append(_timed_kernel())

    def start(self) -> None:
        self.samples += [_timed_kernel() for _ in range(EDGE_SAMPLES)]
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._running = True

    def stop(self) -> None:
        """Stop sampling; a second call does nothing."""
        if not self._running:
            return
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.samples += [_timed_kernel() for _ in range(EDGE_SAMPLES)]

    def mark(self) -> int:
        """Index of the next sample, to delimit a stretch of the run."""
        return len(self.samples)

    def factor(self, first: int, end: int) -> float:
        """Scale factor to reference seconds for the stretch of samples
        [first, end); an empty stretch uses every sample."""
        window = self.samples[first:end] or self.samples
        return REFERENCE_S / statistics.harmonic_mean(window)

    def factors(self, marks: list[int]) -> list[float]:
        """Scale factor for each stretch between consecutive marks, the last
        one running to the last sample, pooling stretches with too few samples."""
        bounds = list(marks) + [len(self.samples)]
        windows = []  # [first sample, end sample, stretches pooled]
        for i in range(len(marks)):
            if windows and windows[-1][1] - windows[-1][0] < MIN_SAMPLES:
                windows[-1][1] = bounds[i + 1]
                windows[-1][2] += 1
            else:
                windows.append([bounds[i], bounds[i + 1], 1])
        if len(windows) > 1 and windows[-1][1] - windows[-1][0] < MIN_SAMPLES:
            first, end, count = windows.pop()
            windows[-1][1] = end
            windows[-1][2] += count
        return [self.factor(first, end) for first, end, count in windows for _ in range(count)]
