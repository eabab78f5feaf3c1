"""Host speed reference: a fixed computation timed through the run.

On a shared host a vCPU's speed drifts by 20-40% in plateaus of 10 to 60
seconds: co-tenants contend for the core, and the process's CPU time
tracks its wall time, so it is not time taken away from the vCPU (steal)
that a CPU clock could leave out. Python-bound, memory-bound and start-up
work slow by about the same share, and a run of under a minute sits in
one or two plateaus, so raw times of runs of the same code differ by as
much as the drift.

The benchmark therefore times this reference before the workload's
operations, at most once per `EVERY_S`, and scales the run's times by
`NOMINAL_S` over the reference's mean time in the run: seconds at the
host's nominal speed. The reference is numpy
elementwise work behind short Python calls, plus memory streams of a few
MB, with no BLAS call and nothing from rgcf, so no change to the program
changes its work. Raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# About the reference's time on a 2-vCPU Intel Xeon VM; any constant would do,
# since only the ratio of two runs' metrics matters.
NOMINAL_S = 0.040
EVERY_S = 1.0  # least time between two samples

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal(4096)
_LARGE = _RNG.standard_normal(262_144)


def reference() -> float:
    """Seconds of one fixed reference computation."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(1500):  # interpreter-bound: many small numpy calls
        x = _SMALL * 1.0001
        x += _SMALL
        acc += float(np.maximum(x, 0.0).sum())
    for _ in range(40):  # memory-bound: 2 MB streams
        y = _LARGE * 0.5
        y += _LARGE
        acc += float(y.sum())
    seconds = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise RuntimeError("host speed reference produced a non-finite sum")
    return seconds


class HostSpeed:
    def __init__(self):
        reference()  # untimed: first-touch page faults and first calls
        self.samples: list[float] = []
        self._last = -float("inf")

    def maybe_sample(self) -> None:
        """Time the reference if `EVERY_S` has passed since the last sample."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.samples.append(reference())
            self._last = time.perf_counter()

    def scale(self) -> float:
        """Nominal over measured reference time: multiply a raw time by it."""
        return NOMINAL_S / float(np.mean(self.samples))
