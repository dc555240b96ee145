"""Speed probe: a gauge of how fast the shared machine runs at a moment.

run.py times it between set-up processes and child.py between measured
commands, and each scales the wall times next to it by PROBE_REF_S over the
probe's time, so that the reported times and rates are those at the
probe's reference speed.  README.md ("Why the rates are scaled by a speed
probe") says why.
"""

from __future__ import annotations

import gc
import time

# The probe's time at which scaled and raw figures agree: about its median
# on the 2-CPU VM that README.md's figures come from.
PROBE_REF_S = 0.027


class SpeedProbe:
    """A fixed piece of work like the program's own mix of Python and
    small-array numpy operations; a call runs it and returns its wall time
    in seconds."""

    REPEATS = 700

    def __init__(self, numpy):
        rng = numpy.random.default_rng(0)
        self.np = numpy
        # Every array, temporaries too, stays under glibc's 128 KiB mmap
        # threshold: larger ones were mapped afresh on each allocation until
        # the program's own frees raised the threshold, which made the probe
        # twice as slow before the first command as after it.
        self.a = rng.standard_normal((32, 32))
        self.x = rng.standard_normal((4, 3, 16, 16))

    def __call__(self):
        np, a, x = self.np, self.a, self.x
        # The cyclic collector is off while the probe runs, so that its time
        # does not depend on how many objects the program left on the heap.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(self.REPEATS):
                y = a @ a
                z = np.tanh(x * 0.5 + 1.0).sum(axis=(2, 3))
                y = y * 0.1 + z.mean()
                sorted({j: j * 2 for j in range(20)}.values(), reverse=True)
            return time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
