"""Host speed reference: rescales measured wall times to a fixed host speed.

The benchmark runs on a shared host whose speed drifts over minutes: on a
2-CPU Xeon the same picard-xval call took 0.45 s in one run and 0.88 s a few
minutes later, and every workload slowed at once.  A fixed reference kernel
run next to each measured operation slows down with it, so

    rescaled time = wall time * REF_S / (reference kernel wall time)

is the operation's wall time on a host where the kernel takes REF_S.  The
kernel does not call gfc, so a change to gfc moves the rescaled time exactly
as it moves the wall time.  It mixes the kinds of work gfc's solves do:
fresh n^2 NumPy temporaries (page-faulted in under the pinned mmap
threshold) and a scattered ``bincount``; then NumPy calls on small arrays,
SciPy PCHIP constructions, float formatting and a plain Python loop, for
the interpreter-bound 128-cell workloads, which slow the most.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy.interpolate import PchipInterpolator

REF_S = 0.05   # near the kernel's median wall time, 50-65 ms on a 2-CPU Xeon
REF_N = 512    # large temporaries, as in split-coag's coagulation step
REF_SMALL = 128   # small-array calls, as in the 128-cell workloads
REF_REPS = 7


class HostSpeed:
    """Runs the reference kernel around measured operations and rescales
    each operation by the mean of the kernel runs just before and after it."""

    def __init__(self):
        self.x = np.linspace(1e-3, 1.0, REF_N)
        self.idx = (np.arange(REF_N * REF_N) * 7919) % REF_N
        self.small = np.linspace(1e-3, 1.0, REF_SMALL)
        self.kernel_s: list[float] = []
        self.restart()

    def kernel(self) -> float:
        start = time.perf_counter()
        for i in range(REF_REPS):
            ev = np.multiply.outer(self.x, self.x + i)
            np.bincount(self.idx, weights=ev.ravel(), minlength=REF_N)
            v = self.small
            for _ in range(200):
                v = np.maximum(v * 0.5 + np.sqrt(v), 1e-3) / float(np.sum(v))
            for _ in range(6):
                PchipInterpolator(self.small, v + self.small)(0.9 * self.small)
            ",".join(f"{u:.17g}" for u in v)
            sum(math.sqrt(j) for j in range(3000))
        dt = time.perf_counter() - start
        self.kernel_s.append(dt)
        return dt

    def restart(self) -> None:
        """Run the kernel now, as the 'before' run of the next operation."""
        self.last = self.kernel()

    def rescale(self, dt: float) -> float:
        """``dt``, measured since the last kernel run, at the reference speed."""
        before, self.last = self.last, self.kernel()
        return dt * REF_S / ((before + self.last) / 2)

    def median(self) -> float:
        return statistics.median(self.kernel_s)
