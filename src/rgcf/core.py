"""Shared numeric types, error classes and the deterministic RNG contract."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NonFiniteValueError(ValueError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"non-finite value at coordinate {index}")


class LengthMismatchError(ValueError):
    def __init__(self, expected: int, got: int):
        self.expected = expected
        self.got = got
        super().__init__(f"length mismatch: expected {expected}, got {got}")


class EmptyInputError(ValueError):
    pass


class TooFewWorkersError(ValueError):
    pass


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


@dataclass(frozen=True)
class GradientReport:
    """One worker message: the gradient it sends plus the scalar training
    loss it was computed at. The caller freezes the gradient with
    `param_vector`; a non-finite loss raises NonFiniteValueError at index
    d, the loss's coordinate in the filter input."""

    gradient: np.ndarray
    loss: float

    def __post_init__(self):
        if not np.isfinite(self.loss):
            raise NonFiniteValueError(self.gradient.shape[0])
        if self.loss < 0:
            raise ValueError(f"loss must be non-negative, got {self.loss}")


# Every RNG stream id, split off one experiment seed. Each id keeps its
# value forever, so adding a stream never perturbs an existing one and every
# output stays byte-reproducible. The server init stream is shared by filter
# training and deployment runs: with one experiment seed, the simulated
# server episode starts from the same initialization the deployment server
# will use, which is what the simulation is modelling.
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
