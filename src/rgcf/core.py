"""Flat parameter vectors, their non-finite check, the deterministic RNG
contract, and the one rule for splitting a call's work across CPUs."""

from __future__ import annotations

import contextvars
import os
from collections.abc import Callable

import numpy as np


class NonFiniteValueError(ValueError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"non-finite value at coordinate {index}")

    def __reduce__(self):
        return type(self), (self.index,)


def param_vector(values) -> np.ndarray:
    """Validate and freeze a flat float64 parameter/gradient vector.

    Returns a read-only array so it can be shared freely between the
    server loop, workers and the filter.
    """
    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a flat vector, got shape {v.shape}")
    assert_finite(v)
    v.flags.writeable = False
    return v


def assert_finite(v: np.ndarray) -> None:
    """Raise NonFiniteValueError for the first NaN/Inf coordinate, if any."""
    finite = np.isfinite(v)
    if not finite.all():
        raise NonFiniteValueError(int(np.argmin(finite)))


# Every RNG stream id, split off one experiment seed. Each id keeps its
# value forever, so adding a stream never perturbs an existing one and every
# output stays byte-reproducible. The server init stream is read only by
# `simulation.server_start`, where filter training and deployment runs both
# start: with one experiment seed, they start from the same weights. The MLP
# filter depends on this; deployed from another start, it rejects nearly
# every honest gradient, so its file records its start's digest, and `run`
# and `compare` refuse a filter whose digest is not their own start's.
SID_FILTER_INIT = 10
SID_SERVER_INIT = 11
SID_FILTER_PICK = 12  # filter training: honest or Byzantine worker
SID_FILTER_BATCH = 13
SID_FILTER_ATTACK = 14
SID_BYZ_PICK = 21
SID_SHARD = 22
SID_WORKER_PICK = 23  # filter mode: the one worker queried per step
SID_BENCH = 30
SID_BLOBS_TRAIN = 40
SID_BLOBS_VAL = 41
# Worker i owns SID_WORKER_BATCH + i and SID_WORKER_ATTACK + i; the two
# ranges stay apart while i < MAX_WORKERS.
SID_WORKER_BATCH = 1000
SID_WORKER_ATTACK = 100000
MAX_WORKERS = SID_WORKER_ATTACK - SID_WORKER_BATCH


def stream(seed: int, stream_id: int) -> np.random.Generator:
    """The counter-based random stream keyed (seed << 64) | stream_id.

    The same key yields an identical sequence on every platform, and
    distinct stream ids under one seed are independent streams.
    """
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) | int(stream_id)))


# How many processes, this one included, run at once on the CPUs it may
# use: set by `share_cpus` in a compare pool worker, else 1.
_sharers = 1


def share_cpus(processes: int) -> None:
    """Record that this process is one of `processes` that run at once on
    the CPUs it may use, so `cpu_parts` counts only its share of them: a
    compare pool as large as the CPU count keeps every cell's work whole."""
    global _sharers
    _sharers = processes


def cpu_parts(size: int, part: int) -> int:
    """How many parts a job of `size` units of work splits into: one per
    CPU of this process's share of the CPUs it may use, each of at least
    `part` units, and at least one."""
    return max(1, min(len(os.sched_getaffinity(0)) // _sharers, size // part))


def run_parts(count: int, part: Callable[[int], object]) -> list:
    """part(0), ..., part(count - 1), in order of their results: this thread
    runs the last part while helper threads run the others, each in a copy
    of this thread's contextvars context, so numpy's errstate holds in
    every part. The helpers live for this call alone and are joined before
    it returns, so none outlives it into a later fork. The lowest failed
    part's exception is raised, as a serial loop's would be."""
    if count == 1:
        return [part(0)]
    import concurrent.futures

    with concurrent.futures.ThreadPoolExecutor(count - 1) as pool:
        results = [pool.submit(contextvars.copy_context().run, part, i) for i in range(count - 1)]
        last: concurrent.futures.Future = concurrent.futures.Future()
        try:
            last.set_result(part(count - 1))
        except Exception as e:
            last.set_exception(e)
    return [f.result() for f in (*results, last)]
