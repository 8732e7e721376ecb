"""Machine-speed calibration for the end-to-end times.

The benchmark runs on shared hardware whose speed drifts by tens of
per cent for tens of seconds at a time (other tenants on the same
physical cores), which is longer than a run.  A fixed reference loop --
small ``numpy.linalg.solve`` calls and ``math`` arithmetic, the same mix
as manideg's per-point work -- is timed between passes and, every
SAMPLE_EVERY_S seconds, between the operations (or branch pairs) of a
pass.  An end-to-end time is reported in seconds at the reference speed:

    calibrated = raw * REFERENCE_S / (mean reference loop time around it)

so a slow phase stretches both factors and cancels.  The raw wall
times stay in the human-readable output and the ``--out`` records.
"""

import bisect
import math
import time

import numpy as np

# one reference loop at the reference speed: its uncontended time on the
# 2-vCPU Xeon VM (Python 3.11, numpy 2.4) where the benchmark was defined
REFERENCE_S = 0.0035
REPS = 2
SAMPLE_EVERY_S = 0.25


def _reference_loop():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 2.0])
    total = 0.0
    for i in range(400):
        x = np.linalg.solve(a, b + i)
        total += math.sin(float(x[0])) * float(x[1]) + math.sqrt(i)
    return total


def reference_time(reps=REPS):
    """Fastest of ``reps`` reference loops: the machine's current speed."""
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


class Speed:
    """Reference-loop samples taken during a run, with their cost."""

    def __init__(self):
        self.times = []       # when each sample started
        self.references = []  # its reference loop seconds

    def sample(self):
        """Take a sample; returns the seconds it took."""
        t0 = time.perf_counter()
        self.times.append(t0)
        self.references.append(reference_time())
        return time.perf_counter() - t0

    def sample_if_due(self):
        """Take a sample if the last one is SAMPLE_EVERY_S old; returns
        the seconds it took."""
        if self.times and time.perf_counter() - self.times[-1] < SAMPLE_EVERY_S:
            return 0.0
        return self.sample()

    def scale(self, t0, t1):
        """REFERENCE_S over the mean reference time sampled from the last
        sample at or before ``t0`` to the first sample at or after ``t1``."""
        lo = max(bisect.bisect_right(self.times, t0) - 1, 0)
        hi = min(bisect.bisect_left(self.times, t1), len(self.times) - 1)
        window = self.references[lo:hi + 1]
        return REFERENCE_S / (sum(window) / len(window))

    def calibrate(self, op):
        """(calibrated seconds of ``op``, calibrated seconds of each answer)."""
        answers = [(end - start) * self.scale(start, end) for start, end in op.answers]
        rest = op.seconds - sum(end - start for start, end in op.answers)
        return sum(answers) + rest * self.scale(*op.window), answers
