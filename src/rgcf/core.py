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


# Stream id shared by the filter-training simulation and deployment runs:
# with one experiment seed, the simulated server episode starts from the
# same initialization the deployment server will use, which is what the
# simulation is modelling.
SID_SERVER_INIT = 11


@dataclass(frozen=True)
class RngStream:
    """Counter-based, splittable random stream.

    Same (seed, stream_id) yields an identical sequence on every platform.
    Distinct stream_ids derived from one experiment seed are independent,
    so e.g. changing the number of workers never perturbs other streams.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = (int(self.seed) << 64) | int(self.stream_id)
        return np.random.Generator(np.random.Philox(key=key))
