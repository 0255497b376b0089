"""A clock that runs at the host's current speed, for timing on a shared host.

On a shared host the same Python code runs up to twice as slow for
stretches of seconds to minutes while other tenants keep the CPU busy.
Process CPU time slows down just as much, so it is no way out. What does
track the slowdown is a fixed piece of interpreter work timed right next
to the code under test: ``CalibratedClock`` times ``kernel`` every
``interval`` seconds, from a SIGALRM handler, and advances at the rate
``KERNEL_REF_S / kernel time`` of its latest sample. Its readings are
seconds at the host's fast state, where ``kernel`` takes ``KERNEL_REF_S``,
so a job timed in a slow stretch reads about what it reads in a fast one.
The time spent in ``kernel`` itself is left out of the readings.

``kernel`` shares no code with ringlab, so a change to ringlab moves the
readings exactly as it moves the wall time in a fixed host state.
"""

from __future__ import annotations

import contextlib
import signal
import time
from fractions import Fraction

# Time of ``kernel`` in the fast state of the 2-core Xeon VM the benchmark
# was written on (the fastest 1% of 20000 samples there).
KERNEL_REF_S = 410e-6


def _step(a: int, b: int) -> int:
    return (a * 31 + b) % 1009


def kernel() -> int:
    """Fixed interpreter work of about 0.4 ms: Python calls, small-int and
    Fraction arithmetic, new lists and tuple-keyed dict stores, the mix
    that ringlab spends its time on."""
    s, d = 0, {}
    for i in range(150):
        s = _step(s, i)
        d[i & 31, s & 7] = [s, i]
        s += (Fraction(s, 7) + Fraction(i + 1, 3)).numerator % 5
    return s


class CalibratedClock:
    """Calling the clock gives its reading in reference seconds.

    Inside ``running()`` a SIGALRM timer takes a sample every ``interval``
    seconds; outside it the clock keeps the rate of its last sample. Only
    the main thread may use it.
    """

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.samples = 0
        self._total = 0.0
        self._rate = 1.0
        self._t = time.perf_counter()
        # Set while a reading or a sample is in progress; a SIGALRM that
        # arrives then skips its sample, so no reading mixes two samples.
        self._busy = False
        self._sample()

    def _sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self._total += (t0 - self._t) * self._rate
        kernel()
        t1 = time.perf_counter()
        self._rate = KERNEL_REF_S / (t1 - t0)
        self._t = t1
        self.samples += 1
        self._busy = False

    def __call__(self) -> float:
        self._busy = True
        now = self._total + (time.perf_counter() - self._t) * self._rate
        self._busy = False
        return now

    @contextlib.contextmanager
    def running(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
