"""Host-speed calibration: a fixed kernel timed next to every measurement.

The benchmark runs on shared machines whose speed swings by up to 2x within
a minute, for all work alike: a pure-Python loop slows as much as hhbound
does. Every timing is therefore reported in reference seconds, the raw
seconds times ``REFERENCE_S / k``, where ``k`` is the mean time of this
kernel run just before and just after the timed work. The kernel is the
benchmark's own code, so no change to hhbound can move it; the raw seconds
are printed beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's median time on a 2-core x86-64 VM (Python 3.11, numpy 2.4)
REFERENCE_S = 0.040


def kernel_s() -> float:
    """Run the kernel once (interpreter loop, dict stores, small numpy
    ufuncs) and return its wall time in seconds."""
    t0 = time.perf_counter()
    total = 0.0
    table = {}
    for i in range(150_000):
        total += i * 0.5
        table[i & 1023] = total
    a = np.linspace(0.0, 1.0, 4096)
    for _ in range(300):
        a = np.sin(a) * 0.5 + a
    return time.perf_counter() - t0


def scale(before_s: float, after_s: float) -> float:
    """Factor that turns raw seconds measured between two kernel runs into
    reference seconds."""
    return REFERENCE_S / (0.5 * (before_s + after_s))


def timed(fn):
    """Call ``fn`` between two kernel runs; return (its result, its raw
    seconds, the scale to reference seconds)."""
    before = kernel_s()
    t0 = time.perf_counter()
    out = fn()
    seconds = time.perf_counter() - t0
    return out, seconds, scale(before, kernel_s())
