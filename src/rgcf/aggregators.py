"""Robust aggregation baselines: mean, Krum, coordinate median, trimmed mean, Bulyan.

All rules take the n worker gradients of one step and return a single
estimate of the true gradient. Krum/trimmed-mean/Bulyan additionally need
f_count, the operator's assumed number of Byzantine workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EmptyInputError, LengthMismatchError, TooFewWorkersError

MEAN = "mean"
KRUM = "krum"
COORD_MEDIAN = "median"
TRIMMED_MEAN = "trimmed_mean"
BULYAN = "bulyan"

AGGREGATOR_KINDS = (MEAN, KRUM, COORD_MEDIAN, TRIMMED_MEAN, BULYAN)


@dataclass(frozen=True)
class AggregatorSpec:
    kind: str
    f_count: int = 0
    # Krum scoring per the original definition uses squared distances; plain
    # norms are selectable for sensitivity checks.
    squared_distances: bool = True

    def __post_init__(self):
        if self.kind not in AGGREGATOR_KINDS:
            raise ValueError(f"unknown aggregator kind {self.kind!r}")
        if self.f_count < 0:
            raise ValueError("f_count must be >= 0")

    def check_preconditions(self, n: int) -> None:
        _check_worker_count(self.kind, n, self.f_count)


def _check_worker_count(kind: str, n: int, f_count: int) -> None:
    """The minimum worker count of each rule that assumes f_count Byzantine workers."""
    if kind == KRUM and n < f_count + 3:
        raise TooFewWorkersError(f"krum needs n >= f+3, got n={n}, f={f_count}")
    if kind == TRIMMED_MEAN and n - 2 * f_count < 1:
        raise TooFewWorkersError(f"trimmed mean needs n - 2f >= 1, got n={n}, f={f_count}")
    if kind == BULYAN and n < 4 * f_count + 3:
        raise TooFewWorkersError(f"bulyan needs n >= 4f+3, got n={n}, f={f_count}")


def _stack(grads: list[np.ndarray]) -> np.ndarray:
    if len(grads) == 0:
        raise EmptyInputError("no gradients to aggregate")
    d = grads[0].shape[0]
    for g in grads[1:]:
        if g.shape[0] != d:
            raise LengthMismatchError(d, g.shape[0])
    return np.stack(grads)


def agg_mean(grads: list[np.ndarray]) -> np.ndarray:
    return _stack(grads).mean(axis=0)


def _krum_scores(g: np.ndarray, f_count: int, squared: bool) -> np.ndarray:
    """Score each vector by the summed (squared) distances to its
    n - f - 2 nearest other vectors. Pools too small for that many
    neighbors (possible inside Bulyan's selection loop) use however many
    remain, down to zero."""
    n = g.shape[0]
    dist2 = np.empty((n, n))
    for i in range(n):
        dist2[i, i] = 0.0
        for j in range(i + 1, n):
            diff = g[i] - g[j]
            dist2[i, j] = dist2[j, i] = float(diff @ diff)
    contrib = dist2 if squared else np.sqrt(dist2)
    k = max(0, min(n - f_count - 2, n - 1))
    scores = np.empty(n)
    for i in range(n):
        others = np.sort(np.delete(contrib[i], i))
        scores[i] = others[:k].sum()
    return scores


def agg_krum(
    grads: list[np.ndarray], f_count: int, squared_distances: bool = True
) -> tuple[int, np.ndarray]:
    """Return (index, vector) of the input minimizing the Krum score.

    Ties break to the lowest index.
    """
    g = _stack(grads)
    n = g.shape[0]
    _check_worker_count(KRUM, n, f_count)
    scores = _krum_scores(g, f_count, squared_distances)
    idx = int(np.argmin(scores))
    return idx, grads[idx]


def agg_coord_median(grads: list[np.ndarray]) -> np.ndarray:
    """Per-coordinate median; even n averages the two middle order statistics."""
    return np.median(_stack(grads), axis=0)


def agg_trimmed_mean(grads: list[np.ndarray], f_count: int) -> np.ndarray:
    """Per coordinate, drop the f_count largest and smallest values, average the rest."""
    g = _stack(grads)
    n = g.shape[0]
    _check_worker_count(TRIMMED_MEAN, n, f_count)
    if f_count == 0:
        return g.mean(axis=0)
    s = np.sort(g, axis=0)
    return s[f_count : n - f_count].mean(axis=0)


def agg_bulyan(
    grads: list[np.ndarray], f_count: int, squared_distances: bool = True
) -> np.ndarray:
    """Two-stage rule: repeated Krum selection of theta = n - 2f vectors,
    then per coordinate the mean of the beta = theta - 2f values closest
    to the coordinate median of the selected set."""
    g = _stack(grads)
    n = g.shape[0]
    _check_worker_count(BULYAN, n, f_count)
    theta = n - 2 * f_count
    pool = list(range(n))
    selected = []
    while len(selected) < theta:
        sub = g[pool]
        scores = _krum_scores(sub, f_count, squared_distances)
        best = int(np.argmin(scores))
        selected.append(pool.pop(best))
    sel = g[selected]
    beta = theta - 2 * f_count
    med = np.median(sel, axis=0)
    # Stable argsort keeps selection order among equidistant values.
    order = np.argsort(np.abs(sel - med), axis=0, kind="stable")[:beta]
    return np.take_along_axis(sel, order, axis=0).mean(axis=0)


def aggregate(spec: AggregatorSpec, grads: list[np.ndarray]) -> np.ndarray:
    spec.check_preconditions(len(grads))
    if spec.kind == MEAN:
        return agg_mean(grads)
    if spec.kind == KRUM:
        return agg_krum(grads, spec.f_count, spec.squared_distances)[1]
    if spec.kind == COORD_MEDIAN:
        return agg_coord_median(grads)
    if spec.kind == TRIMMED_MEAN:
        return agg_trimmed_mean(grads, spec.f_count)
    if spec.kind == BULYAN:
        return agg_bulyan(grads, spec.f_count, spec.squared_distances)
    raise AssertionError(f"unreachable: {spec.kind}")
