"""Machine-speed reference used to normalise timings.

On a small shared host the speed of a processor swings by up to a factor
of two, both in bursts of milliseconds and in phases of many seconds
(other tenants' work on the same physical core).  That is far more than
the effects the benchmark must resolve.  So after every timed call the
clock runs a fixed reference kernel for a twentieth of the call's time,
and each call's time is converted to *nominal seconds*:

    nominal = raw * NOMINAL_UNIT_S / (reference seconds / reference units)

using the call's own reference sample and as many samples before it as
make up WINDOW_S seconds of reference work, i.e. the time the work would
have taken on a machine that runs one kernel unit in ``NOMINAL_UNIT_S``.
The window follows phases of slow processors, so a phase scales only the
calls made during it and does not reshape the run's latency
distribution; a long call's own sample fills the window alone.
The kernel is a frozen copy of the package's hot loop (dense polynomial
correction steps on small numpy arrays); it lives here so that no change
to the package can move it.  Raw wall times are reported next to the
nominal ones.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

# seconds per kernel unit on a 2-core Intel Xeon VM when its cores are idle
NOMINAL_UNIT_S = 0.00066
REFERENCE_SHARE = 0.05
REFERENCE_MIN_S = 0.002
# reference seconds behind each call's speed estimate: about six census
# calls, or a fold call's own sample.  On the 2-core VM the census median
# latency spread 0.03-0.04 over ten seeds with such a window and 0.06-0.09
# with one factor for the whole run; fold spread 0.08 with its own sample
# and 0.15 with six calls' samples
WINDOW_S = 0.1

_SIZE = 300
_K = np.arange(_SIZE, dtype=float)
_EULER = _K * (_K - 2.0)
_WEIGHTS = np.zeros(_SIZE)
_WEIGHTS[2:] = -1.0 / (_K[2:] * (_K[2:] - 1.0))


def _polynomial_steps(start: float) -> float:
    c = np.array([0.0, 0.0, start])
    for _ in range(7):
        n = c.size
        d = np.zeros(2 * n - 1)
        d[:n] = _EULER[:n] * c
        d -= 0.5 * np.convolve(c, c)
        d[4] -= 0.5
        out = d * _WEIGHTS[: d.size]
        out[:n] += c
        c = out
    return float(c.sum())


def kernel_unit():
    """One unit of reference work: ten depth-7 correction iterates."""
    for j in range(10):
        _polynomial_steps(-1.0 - 0.01 * j)


class NominalClock:
    """Times calls and samples the machine's speed right after each one."""

    def __init__(self):
        kernel_unit()  # the first run pays numpy's own warm-up
        self.samples = []  # (seconds, units) per sample
        self.sample(REFERENCE_MIN_S)

    def sample(self, seconds: float):
        """Run whole kernel units for at least ``seconds``, split over the CPUs.

        A process allowed on several processors (the CLI, whose pool
        workers use all of them) samples each in turn.
        """
        allowed = os.sched_getaffinity(0)
        total_s = 0.0
        total_units = 0
        try:
            for cpu in sorted(allowed):
                if len(allowed) > 1:
                    os.sched_setaffinity(0, {cpu})
                # untimed: refills the caches the timed call evicted, so the
                # sample does not depend on the package's memory footprint
                kernel_unit()
                t0 = perf_counter()
                units = 0
                while True:
                    kernel_unit()
                    units += 1
                    elapsed = perf_counter() - t0
                    if elapsed >= seconds / len(allowed):
                        break
                total_s += elapsed
                total_units += units
        finally:
            os.sched_setaffinity(0, allowed)
        self.samples.append((total_s, total_units))

    def call(self, fn, *args, **kwargs):
        """Run ``fn``; returns (result, nominal seconds, raw seconds)."""
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        raw = perf_counter() - t0
        self.sample(max(REFERENCE_MIN_S, REFERENCE_SHARE * raw))
        return result, raw * speed(self.recent()), raw

    def recent(self) -> list:
        """The latest samples that together hold at least WINDOW_S of reference work."""
        total = 0.0
        for first in range(len(self.samples) - 1, -1, -1):
            total += self.samples[first][0]
            if total >= WINDOW_S:
                break
        return self.samples[first:]

    @property
    def factor(self) -> float:
        """Nominal seconds per raw second, from all reference work so far."""
        return speed(self.samples)


def speed(samples) -> float:
    """Nominal seconds per raw second over ``samples``."""
    return NOMINAL_UNIT_S * sum(u for _, u in samples) / sum(s for s, _ in samples)
