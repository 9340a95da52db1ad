"""Fixed host-speed probe.

About 85 ms of work shaped like the program's own: pure-Python integer
and float arithmetic, 9-significant-digit formatting, small numpy array
updates and passes over an 80 kB array. It imports nothing from
affineswarm, so no change to the library can move it. A timed sample
divided by the probe's time around it, times ``NOMINAL_PROBE_S``, is the
sample's probe-normalised time in seconds (see ``normalise``).
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_PROBE_S = 0.085
MIN_WINDOW_S = 0.25


def _unit() -> None:
    """One fifth of the probe's work."""
    acc = 0
    x = 0.0
    for i in range(16_000):
        acc = (acc * 1_103_515_245 + i) & 0xFFFFFFFF
        x += (acc & 0xFF) * 0.5
    text = ",".join(format(x / (i + 1), ".9g") for i in range(2_400))
    pos = np.zeros((6, 3))
    ref = np.full((6, 3), len(text) * 1e-6)
    vel = np.zeros((6, 3))
    for _ in range(1_000):
        vel = vel + 0.001 * (2500.0 * (ref - pos) - 100.0 * vel)
        pos = pos + 0.001 * vel
    # 80 kB arrays stay below glibc's mmap threshold, so the probe's speed
    # does not depend on what the process allocated and freed before it.
    vec = np.arange(10_000, dtype=float)
    for _ in range(60):
        vec = np.sqrt(vec * vec + pos[0, 0])
    float(vec[-1])


def probe() -> float:
    """Run the fixed probe once; return five times its median unit time.

    The median of five units ignores a burst of host contention that hits
    one of them, so one probe reads the host's prevailing speed.
    """
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _unit()
        times.append(time.perf_counter() - t0)
    return 5.0 * statistics.median(times)


def normalise(start: float, seconds: float, probes: list) -> float:
    """Probe-normalised time of a sample that ran from ``start`` for ``seconds``.

    ``probes`` is the run's sorted list of ``[start time, probe seconds]``, on
    the same monotonic clock. The host's speed is the mean of the probes
    that start within one sample length (at least ``MIN_WINDOW_S``) of the
    sample, always counting the probe just before it and the one just after.
    Short samples are thus judged by their neighbours; a long sample, which
    spans several of the host's speed changes, by the mean of many probes.
    """
    times = [t for t, _ in probes]
    end = start + seconds
    pad = max(seconds, MIN_WINDOW_S)
    lo = min(bisect.bisect_left(times, start - pad), max(bisect.bisect_right(times, start) - 1, 0))
    hi = max(bisect.bisect_right(times, end + pad), bisect.bisect_left(times, end) + 1)
    return seconds / statistics.fmean(p for _, p in probes[lo:hi]) * NOMINAL_PROBE_S
