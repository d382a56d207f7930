"""Speed-scaled wall time.

Other processes on a shared machine change its speed by up to a factor of two,
from one second to the next and from one minute to the next: the same run
measured 47 to 66 documents per second within a few minutes on a 2-CPU
container.  A fixed pure-Python calibration kernel, timed right before and
right after each measured interval, tracks that speed: the ratio of a
workload's time to the kernel's time varied by about 1% where raw times
varied by 17%.  ``scaled`` therefore rescales a wall time to the speed at
which the kernel takes ``REFERENCE_CALIBRATION_S``, about its time on an idle
machine of the development kind.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_CALIBRATION_S = 0.0006

_MODULUS = (1 << 521) - 1


def calibrate() -> float:
    """Wall time of a fixed kernel of rational sums and big-integer products,
    like the program's own work: the least of three runs."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total, x = Fraction(0), 3
        for i in range(1, 200):
            total += Fraction(i, i + 1)
            x = x * x % _MODULUS
        best = min(best, time.perf_counter() - start)
    return best


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` at reference speed, given the calibrations around it."""
    return wall_s * REFERENCE_CALIBRATION_S / ((before_s + after_s) / 2)
