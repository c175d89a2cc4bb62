"""Machine-speed probe, so that times can be reported at a fixed speed.

A shared vCPU drifts between a fast state and one up to about 1.5 times as
slow, in spells from under a second to minutes, so a whole benchmark run
can fall in one state.  `probe` times a fixed piece of work
made of a Python loop and numpy element-wise arithmetic (no BLAS, so the
number of BLAS threads does not move it) and never calls rdplab, so no
change to the library can move it.  A `Meter` probes in the gap after every
op, more often after a long op, and multiplies each op's time by the
reference probe time over the median of the probes on either side of it.
The result reads as seconds on the reference machine in its fast state.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# probe time on the reference machine (2-vCPU Xeon at 2.0 GHz, Python 3.11,
# numpy 2.4) in its fast state: the 10th percentile of a minute of probes
REFERENCE_S = 3.3e-3
REPEATS = 3

# the numpy part writes into a preallocated buffer: an allocation could be
# served from the heap or by fresh pages depending on what the process did
# before, which would make the probe depend on the ops between probes
_ARRAY = np.linspace(0.0, 1.0, 50_000)
_BUF = np.empty_like(_ARRAY)


def _work() -> float:
    s = 0
    for i in range(25_000):
        s += i * i % 7
    total = 0.0
    for _ in range(6):
        np.multiply(_ARRAY, 1.5, out=_BUF)
        np.add(_BUF, 0.5, out=_BUF)
        np.sqrt(_BUF, out=_BUF)
        total += float(_BUF.sum())
    return s + total


def probe() -> float:
    """Seconds for one unit of fixed work: the fastest of REPEATS, so that an
    interrupt during one repeat does not count."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


# one probe in the gap after an op, and one more for every this many
# seconds the op took, up to MAX_GAP_PROBES: a long op spans more of the
# machine's speed changes than two single probes see
SECONDS_PER_PROBE = 0.5
MAX_GAP_PROBES = 6


class Meter:
    """The speed probes of one run, taken in the gaps between its ops."""

    def __init__(self) -> None:
        self.gaps = [[probe()]]

    def after_op(self, op_seconds: float) -> float:
        """Probe after an op; returns the op's factor from measured to
        reference seconds, from the probes in the gaps on either side."""
        gap = [probe() for _ in range(min(MAX_GAP_PROBES, 1 + int(op_seconds / SECONDS_PER_PROBE)))]
        around = self.gaps[-1] + gap
        self.gaps.append(gap)
        return REFERENCE_S / statistics.median(around)

    def factor(self) -> float:
        """The factor over the whole run so far."""
        return REFERENCE_S / statistics.median(p for gap in self.gaps for p in gap)
