"""Flat parameter vectors, their non-finite check and the deterministic RNG contract."""

from __future__ import annotations

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
