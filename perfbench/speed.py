"""Machine-speed calibration for timed work.

On a shared host the machine's speed can shift by up to 2x for seconds at
a time, so wall times of the same op on the same input differ that much
between runs.  Timed work therefore runs under a Sampler: a SIGALRM every
INTERVAL_S runs ``kernel``, a fixed pure-Python loop that does not touch
the package under test, and times it; a few kernel runs also bracket the
work.  ``Sampler.scaled`` takes the work's wall time minus the time spent
in the kernel and multiplies it by REFERENCE_S / (mean kernel time), so it
reads as seconds at the reference speed, the speed at which the kernel
takes REFERENCE_S.  A change to the package changes the work's time but
not the kernel's, so it shows in full.

Python runs a signal handler between bytecodes, so a long C call delays a
sample; it does not lose any of the work's time.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.1
BRACKET = 3          # kernel runs just before and just after the work
KERNEL_STEPS = 20000
# Kernel seconds on an unloaded 2-CPU Sapphire Rapids Xeon virtual machine.
REFERENCE_S = 0.0025


def kernel() -> float:
    """Seconds one run of the fixed kernel takes."""
    start = time.perf_counter()
    total = 0
    table = {}
    for k in range(KERNEL_STEPS):
        total += k * k
        table[k & 1023] = total
    return time.perf_counter() - start


class Sampler:
    """Samples the kernel's speed while a block of work runs.

        with Sampler() as sampler:
            start = time.perf_counter()
            work()
            seconds = time.perf_counter() - start
        reference_seconds = sampler.scaled(seconds)
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0            # seconds the handler took inside the work
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(kernel())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.samples.extend(kernel() for _ in range(BRACKET))
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.extend(kernel() for _ in range(BRACKET))
        return False

    def slowdown(self) -> float:
        """Mean kernel time over REFERENCE_S: 1 at the reference speed."""
        return statistics.fmean(self.samples) / REFERENCE_S

    def scaled(self, seconds: float) -> float:
        """Wall seconds measured inside the block, at the reference speed."""
        return (seconds - self.spent) / self.slowdown()
