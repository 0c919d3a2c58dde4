"""CPU-speed calibration for a shared machine.

The same deterministic check pass was measured at 0.6 s and at 1.1 s a
minute apart on a shared 2-core Linux machine whose neighbours come and go;
CPU time moved with wall time, so the cause is the speed each instruction
gets, not descheduling.  A fixed pure-Python kernel in the style of qmod's
inner loops (complex exp and division) is timed between the workload's calls,
and every time the benchmark reports is scaled to a machine on which that
kernel takes ``REFERENCE_S``:
reported = measured * REFERENCE_S / median(kernel samples).
The kernel never changes with qmod, so a change to qmod moves the reported
times exactly as it moves the measured ones.
"""

from __future__ import annotations

import cmath
import statistics
import time

#: Roughly the kernel's time on that machine (Python 3.11.7), so reported and
#: measured times are of the same size.
REFERENCE_S = 0.002


def sample() -> float:
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    z = 0.3 + 0.1j
    acc = 0j
    for i in range(4000):
        w = z * (i % 17) * 0.01
        acc += cmath.exp(-w) / (1.0 - 0.5 * cmath.exp(1j * w)) + w * w
    return time.perf_counter() - t0


def slowdown(samples: list) -> float:
    """How much slower than the reference machine the samples say we run."""
    return statistics.median(samples) / REFERENCE_S
