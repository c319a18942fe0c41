"""Host-speed normalisation of pass times.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to about 30% over tens of seconds, and the drift moves every pass time
of a run with it.  To take it out, a fixed reference kernel (a few small
numpy FFT round trips, about 0.25 ms) is timed on a wall-clock timer signal
every PERIOD_S while a pass runs.  The handler runs in the worker's own
thread between bytecodes, so each sample sees the same core and the same
host state as the pass around it.  The kernel runs once untimed before
each timed run: timed cold, it ran up to 2.2 times slower inside a pass
than on its own, by an amount that depends on the program's cache
footprint, which would tie the scale to the code being measured.  Warm,
it runs 1.01 to 1.11 times slower inside a pass.

A pass that took `raw` seconds, of which `spent` went to the handler, is
reported as (raw - spent) * mean(REF_S / sample): its time on a host where
the kernel takes REF_S.  The mean of speed ratios over samples spread
evenly in time is the pass's average speed relative to that host.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable

import numpy as np

PERIOD_S = 0.05
REF_S = 2.5e-4  # the kernel's time on the nominal host
SETUP_SAMPLES_S = 0.1  # back-to-back sampling after set-up


class HostSpeed:
    """Collects speed samples; `timed()` takes them on a timer while a pass runs."""

    def __init__(self) -> None:
        self._x = np.random.default_rng(0).standard_normal((8, 512))
        self.ratios: list[float] = []
        self.spent = 0.0
        self._busy = False  # a signal arriving inside the handler is dropped
        for _ in range(20):  # let numpy's FFT caches fill
            self._kernel()
        self.take()

    def _kernel(self) -> None:
        x = self._x
        for _ in range(3):
            np.fft.irfft(np.fft.rfft(x) * np.fft.rfft(x))

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self._kernel()
        t2 = time.perf_counter()
        self.ratios.append(REF_S / (t2 - t1))
        self.spent += time.perf_counter() - t0
        self._busy = False

    def take(self) -> tuple[float, float]:
        """(mean speed ratio, handler seconds) since the last take; resets both."""
        if not self.ratios:
            self.sample()
            self.spent = 0.0  # taken outside the measured block
        out = statistics.fmean(self.ratios), self.spent
        self.ratios, self.spent = [], 0.0
        return out

    def settle(self) -> float:
        """Speed ratio from SETUP_SAMPLES_S of back-to-back samples."""
        self.take()
        end = time.perf_counter() + SETUP_SAMPLES_S
        while time.perf_counter() < end:
            self.sample()
        return self.take()[0]

    def timed(self, fn: Callable):
        """Run fn() with samples on the timer; returns (result, raw s, nominal-host s)."""
        self.take()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            t0 = time.perf_counter()
            result = fn()
            raw = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        factor, spent = self.take()
        return result, raw, (raw - spent) * factor
