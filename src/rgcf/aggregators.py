"""Robust aggregation baselines: mean, Krum, coordinate median, trimmed mean, Bulyan.

All rules take the n worker gradients of one step, as a list of rows or
one (n, d) array, and return a single estimate of the true gradient.
Krum/trimmed-mean/Bulyan additionally need f_count, the operator's assumed
number of Byzantine workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels

MEAN = "mean"
KRUM = "krum"
COORD_MEDIAN = "median"
TRIMMED_MEAN = "trimmed_mean"
BULYAN = "bulyan"

AGGREGATOR_KINDS = (MEAN, KRUM, COORD_MEDIAN, TRIMMED_MEAN, BULYAN)

Gradients = list[np.ndarray] | np.ndarray


@dataclass(frozen=True)
class AggregatorSpec:
    kind: str
    f_count: int = 0

    def __post_init__(self):
        if self.kind not in AGGREGATOR_KINDS:
            raise ValueError(f"unknown aggregator kind {self.kind!r}")
        if self.f_count < 0:
            raise ValueError("f_count must be >= 0")

    @property
    def compiled(self) -> bool:
        """Whether the rule sorts columns with the compiled kernel: median,
        Bulyan (its median stage) and trimmed mean at f_count > 0."""
        return self.kind in (COORD_MEDIAN, BULYAN) or (self.kind == TRIMMED_MEAN and self.f_count > 0)

    def check_preconditions(self, n: int) -> None:
        bound = max_f_count(self.kind, n)
        if bound is not None and self.f_count > bound:
            raise ValueError(f"{self.kind} at n={n} accepts f_count <= {bound}, got {self.f_count}")


def max_f_count(kind: str, n: int) -> int | None:
    """The largest f_count the rule accepts at n workers (negative when
    none fits), or None for rules that take no f_count: Krum needs
    n >= f+3, trimmed mean n - 2f >= 1 and Bulyan n >= 4f+3."""
    if kind == KRUM:
        return n - 3
    if kind == TRIMMED_MEAN:
        return (n - 1) // 2
    if kind == BULYAN:
        return (n - 3) // 4
    return None


def _row_count(grads: Gradients) -> int:
    """The number of gradients, after checking that there is one and that
    all are rows of one length."""
    if len(grads) == 0:
        raise ValueError("no gradients to aggregate")
    d = grads[0].shape[0]
    for g in grads:
        if g.shape != (d,):
            raise ValueError(f"length mismatch: expected {d}, got {g.shape[0]}")
    return len(grads)


def _stack(grads: Gradients) -> np.ndarray:
    """The gradients as one (n, d) array: a 2-D array as it is (no rule
    writes to its input), a list of rows stacked."""
    _row_count(grads)
    return grads if isinstance(grads, np.ndarray) and grads.ndim == 2 else np.stack(grads)


# Columns per block of the compiled sort. A block's scratch, n*1 KB, stays
# in a 48 KB L1 up to n=40: at d=10^5 on a 2-vCPU Xeon, n=40 took 11 ms per
# call at 128 columns and 17 ms at 256.
SORT_BLOCK = 128


def _sorted_columns(grads: Gradients, trim: int) -> np.ndarray:
    """Per column, the median (trim < 0) or the mean of the sorted values
    trim..n-trim-1, from the sorting network of `kernels`. The kernel reads
    each row where it is, so a list of rows is never stacked; a row that is
    not a C-contiguous float64 array is converted first."""
    rows = [np.ascontiguousarray(g, dtype=np.float64) for g in grads]
    n = _row_count(rows)
    out = np.empty(rows[0].shape[0])
    pointers = np.array([r.ctypes.data for r in rows], dtype=np.uintp)
    scratch = np.empty(n * SORT_BLOCK)
    kernels.library().rgcf_sorted_columns(
        pointers.ctypes.data, n, out.shape[0], trim, SORT_BLOCK, scratch.ctypes.data, out.ctypes.data
    )
    return out


def agg_mean(grads: Gradients) -> np.ndarray:
    """The mean of the rows, added in row order onto zeros, so a list of
    rows is never stacked. For d >= 2 it has the bits of
    np.stack(grads).mean(axis=0), the sign of a zero included; at d=1 numpy
    sums the one contiguous column pairwise, so the last bits may differ
    there (no model has d=1)."""
    n = _row_count(grads)
    out = np.zeros(grads[0].shape[0])
    for g in grads:
        out += g
    out /= n
    return out


def _squared_distances(g: np.ndarray) -> np.ndarray:
    """The n x n matrix of squared distances between the rows of g, one
    diff @ diff per pair."""
    n = g.shape[0]
    dist2 = np.empty((n, n))
    for i in range(n):
        dist2[i, i] = 0.0
        for j in range(i + 1, n):
            diff = g[i] - g[j]
            dist2[i, j] = dist2[j, i] = float(diff @ diff)
    return dist2


def _krum_scores(dist2: np.ndarray, f_count: int) -> np.ndarray:
    """Score each vector by the summed squared distances to its n - f - 2
    nearest other vectors, from their squared-distance matrix. Each row's
    zero diagonal sorts first and is skipped. Pools too small for that many
    neighbors (possible inside Bulyan's selection loop) use however many
    remain, down to zero."""
    n = dist2.shape[0]
    k = max(0, min(n - f_count - 2, n - 1))
    return np.sort(dist2, axis=1)[:, 1 : k + 1].sum(axis=1)


def agg_krum(grads: Gradients, f_count: int) -> tuple[int, np.ndarray]:
    """Return (index, vector) of the input minimizing the Krum score.

    Ties break to the lowest index.
    """
    g = _stack(grads)
    AggregatorSpec(KRUM, f_count).check_preconditions(g.shape[0])
    idx = int(np.argmin(_krum_scores(_squared_distances(g), f_count)))
    return idx, grads[idx]


def agg_coord_median(grads: Gradients) -> np.ndarray:
    """Median of each column from one sort down the columns: the middle row
    for odd n, the mean of the two middle rows for even n, and NaN in any
    column holding a NaN (the sort puts NaN last, as np.sort does). It
    equals np.median(grads, axis=0) in value; only the sign of a zero median
    may differ, as a sorting network may order zeros of opposite sign
    otherwise than np.sort."""
    return _sorted_columns(grads, -1)


def agg_trimmed_mean(grads: Gradients, f_count: int) -> np.ndarray:
    """Per coordinate, drop the f_count largest and smallest values, average
    the rest: the bits of np.sort(g, axis=0)[f:n-f].mean(axis=0), but for
    the sign of a zero."""
    AggregatorSpec(TRIMMED_MEAN, f_count).check_preconditions(_row_count(grads))
    return _sorted_columns(grads, f_count) if f_count else agg_mean(grads)


def agg_bulyan(grads: Gradients, f_count: int) -> np.ndarray:
    """Two-stage rule: repeated Krum selection of theta = n - 2f vectors,
    then per coordinate the mean of the beta = theta - 2f values closest
    to the coordinate median of the selected set. The pairwise distances
    are computed once; each selection round scores the vectors still in
    the pool on their sub-matrix."""
    g = _stack(grads)
    n = g.shape[0]
    AggregatorSpec(BULYAN, f_count).check_preconditions(n)
    theta = n - 2 * f_count
    dist2 = _squared_distances(g)
    pool = list(range(n))
    selected = []
    while len(selected) < theta:
        scores = _krum_scores(dist2[np.ix_(pool, pool)], f_count)
        best = int(np.argmin(scores))
        selected.append(pool.pop(best))
    sel = g[selected]
    beta = theta - 2 * f_count
    med = agg_coord_median(sel)
    # Stable argsort keeps selection order among equidistant values.
    order = np.argsort(np.abs(sel - med), axis=0, kind="stable")[:beta]
    return np.take_along_axis(sel, order, axis=0).mean(axis=0)


def aggregate(spec: AggregatorSpec, grads: Gradients) -> np.ndarray:
    """Dispatch to spec's rule; each bounded rule checks its worker count."""
    if spec.kind == MEAN:
        return agg_mean(grads)
    if spec.kind == KRUM:
        return agg_krum(grads, spec.f_count)[1]
    if spec.kind == COORD_MEDIAN:
        return agg_coord_median(grads)
    if spec.kind == TRIMMED_MEAN:
        return agg_trimmed_mean(grads, spec.f_count)
    if spec.kind == BULYAN:
        return agg_bulyan(grads, spec.f_count)
    raise AssertionError(f"unreachable: {spec.kind}")
