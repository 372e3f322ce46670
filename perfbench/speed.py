"""Machine-speed calibration of the end-to-end times.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over tens of seconds, which no run length averages out.  So a fixed
reference computation, independent of lamkit, is timed before every
operation and once after the last.  Each operation's time is multiplied by
``REFERENCE_S / r``, where ``r`` is the median reference time of the samples
around it: the result is the operation's time on a machine on which the
reference takes ``REFERENCE_S``.  A change to lamkit moves the scaled time as
it moves the wall-clock time; a change in the speed of the whole machine
moves the reference with the operation and cancels.

The reference mixes what lamkit spends its time on: bytecode with small
integers, ``Fraction`` arithmetic, and 1024-bit ``mpf`` arithmetic (pure
Python integers under mpmath's ``python`` backend).
"""

from fractions import Fraction
import statistics
import time

import mpmath

# About the median duration of ``reference_work`` on a 2-vCPU Intel Xeon VM
# at 2.0 GHz (mpmath python backend, CPython 3).
REFERENCE_S = 0.0009
WINDOW = 2  # reference samples taken on each side of an operation

with mpmath.workprec(1024):
    _ROOT2 = mpmath.sqrt(2)


def reference_work():
    s = 0
    for i in range(2000):
        s += i * i % 7
    f = Fraction(1)
    for i in range(1, 25):
        f = f * Fraction(i, i + 1) + Fraction(1, i * i)
    with mpmath.workprec(1024):
        y = _ROOT2
        for _ in range(60):
            y = y * _ROOT2 + 1
    return s, f, y


def time_reference():
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class SpeedGauge:
    """Reference timings taken between operations, and the scale they give."""

    def __init__(self):
        self.samples = []

    def sample(self):
        self.samples.append(time_reference())

    def scale(self, i):
        """Scale for the operation timed between samples ``i`` and ``i + 1``."""
        window = self.samples[max(0, i - WINDOW + 1):i + WINDOW + 1]
        return REFERENCE_S / statistics.median(window)
