"""A fixed reference kernel that measures how fast the machine is right now.

On a shared machine the speed available to one process drifts by 20-50 %
within seconds, and it drifts alike for every kind of work gsync does.  The
benchmark therefore times this kernel every PERIOD_S seconds while an
operation runs (from a SIGALRM handler, so the samples fall inside the
operation), and three times just before and just after it.  It reports the
operation's wall time scaled to a machine on which the kernel takes
REFERENCE_S seconds.  The kernel uses no gsync code, so a change to gsync
moves the scaled times and never the kernel.  Its mix follows gsync's work:
Python loops over small arrays (integration and recursion steps), batched
small-matrix linear algebra (grid suprema) and float formatting (CSV output).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.00025   # about the kernel's time on a quiet core of a 2-core x86-64 VM
PERIOD_S = 0.05         # sampling costs about 1 % of the operation's time
MARK_SAMPLES = 3        # samples just before and just after an operation
_M = np.random.default_rng(0).normal(size=(8, 8, 8))
_STEP = np.array([1e-3, 2e-3, 3e-3])


def kernel() -> float:
    y = np.array([0.1, 0.2, 0.3])
    acc = 0.0
    for _ in range(120):
        y = y * 0.999 + _STEP
        acc += float(y[0])
    acc += float(np.linalg.svd(_M, compute_uv=False).sum())
    text = ",".join(f"{v:.17g}" for v in _M.ravel()[:100])
    return acc + len(text)


class Sampler:
    """Kernel timings taken every PERIOD_S seconds while the sampler is active.

    Use as a context manager in the main thread.  ``mark`` adds MARK_SAMPLES
    samples on demand and returns the number of samples so far; the samples
    of one operation are those of the mark before it, those taken while it
    ran, and those of the mark after it.  Operations shorter than PERIOD_S
    rely on the marks alone.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, *_):
        t = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t)

    def mark(self) -> int:
        for _ in range(MARK_SAMPLES):
            self._sample()
        return len(self.samples)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, seconds: float, before: int, after: int) -> float:
        """Wall time of an operation, rescaled to a kernel time of REFERENCE_S.

        ``before`` and ``after`` are the values ``mark`` returned around it;
        the median ignores a sample stretched by a nested one.
        """
        return seconds * REFERENCE_S / statistics.median(
            self.samples[before - MARK_SAMPLES:after])
