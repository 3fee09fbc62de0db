"""Reference kernels that measure how fast the machine runs right now.

The benchmark's host is a few cores of a shared machine.  Its speed
switches between states for minutes at a time: a fixed pure-Python
loop takes up to 1.8 times as long in one state as in another, while a
vectorised numpy kernel moves by less than a tenth.  A run of tens of
seconds sits mostly in one state, so raw timings of the same code
spread by half from run to run.  Within a run, though, an op's time
divided by a reference kernel timed next to it stays within a few per
cent.

So the loop times a reference kernel before every op, and reports op
times at the reference pace: a latency is multiplied by the kernel's
nominal time over its measured time around that op.  The kernels are
fixed code that does not touch the program under test, so a change to
the program moves the reported times exactly as it moves wall time at
a steady machine speed.  Each workload names the kernel whose kind of
work matches its ops: ``"interpreter"`` for Python-bound code and
``"vectorised"`` for numpy-bound code.
"""

import statistics
import time

import numpy as np

_SIZE = 1 << 16
_PERM = np.random.default_rng(0).permutation(_SIZE)


def interpreter():
    """Dict, list and integer work in the Python interpreter."""
    counts = {}
    keys = []
    for i in range(6000):
        k = (i * 7919) % 1021
        counts[k] = counts.get(k, 0) + i
        keys.append(k)
    keys.sort()
    return len(counts)


def vectorised():
    """Gathers and integer arithmetic over numpy arrays."""
    x = np.arange(_SIZE, dtype=np.int64)
    for _ in range(5):
        x = (x[_PERM] * 7919 + 1) % 1021
    return int(x[-1])


KERNELS = {"interpreter": interpreter, "vectorised": vectorised}

#: Each kernel's time on the machine the benchmark was tuned on (a
#: 2-core VM) in its fast state.  Reported times are at this pace.
NOMINAL_S = {"interpreter": 0.0012, "vectorised": 0.0022}


class Pace:
    """Timings of one reference kernel, taken between ops."""

    def __init__(self, kind):
        self.kind = kind
        self.kernel = KERNELS[kind]
        for _ in range(3):
            self.kernel()
        self.samples = []

    def sample(self):
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)

    def scale(self, i):
        """Nominal over measured pace during the op between samples ``i``
        and ``i + 1``: the median of those two and one more on each side,
        so one disturbed sample does not move it."""
        near = self.samples[max(0, i - 1) : i + 3]
        return NOMINAL_S[self.kind] / statistics.median(near)

    def overall(self):
        """Nominal over the median of every sample."""
        return NOMINAL_S[self.kind] / statistics.median(self.samples)
