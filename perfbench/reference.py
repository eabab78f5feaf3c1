"""Brute-force references for the decision-loop output checks.

These are written from the rules' definitions, not from rgcf's code, and are
run on a sample of decisions outside the timed region.
"""

from __future__ import annotations

import numpy as np


def krum_index(grads: list[np.ndarray], f: int) -> int:
    """Argmin over i of the summed squared distances to the n - f - 2
    nearest other inputs (clamped to the n - 1 that exist); ties go to the
    lowest index."""
    n = len(grads)
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            diff = grads[i] - grads[j]
            dist[i][j] = dist[j][i] = float(np.dot(diff, diff))
    k = max(0, min(n - f - 2, n - 1))
    scores = [sum(sorted(dist[i][j] for j in range(n) if j != i)[:k]) for i in range(n)]
    return min(range(n), key=lambda i: (scores[i], i))


def bulyan(grads: list[np.ndarray], f: int) -> np.ndarray:
    """Select theta = n - 2f inputs by repeated Krum, then per coordinate
    average the beta = theta - 2f selected values nearest the median."""
    pool = list(range(len(grads)))
    theta = len(grads) - 2 * f
    selected = []
    while len(selected) < theta:
        best = krum_index([grads[i] for i in pool], f)
        selected.append(pool.pop(best))
    sel = np.stack([grads[i] for i in selected])
    beta = theta - 2 * f
    med = np.median(sel, axis=0)
    # Equidistant values keep selection order (a stable sort down each column).
    nearest = np.argsort(np.abs(sel - med), axis=0, kind="stable")[:beta]
    return np.take_along_axis(sel, nearest, axis=0).mean(axis=0)


def trimmed_mean(grads: list[np.ndarray], f: int) -> np.ndarray:
    s = np.sort(np.stack(grads), axis=0)
    return s[f : len(grads) - f].mean(axis=0)


def median(grads: list[np.ndarray]) -> np.ndarray:
    return np.median(np.stack(grads), axis=0)


def mean(grads: list[np.ndarray]) -> np.ndarray:
    return np.stack(grads).mean(axis=0)


def filter_probability(
    params: np.ndarray, d: int, hidden: tuple[int, ...], grad: np.ndarray, loss: float
) -> float:
    """Dense forward of the (d+1) -> hidden -> 1 sigmoid net on the gradient
    rescaled to norm sqrt(d), with the loss appended."""
    norm = np.linalg.norm(grad)
    x = np.append(grad * (np.sqrt(d) / norm) if norm > 0 else grad, loss)
    sizes = (d + 1, *hidden, 1)
    off = 0
    for layer, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        w = params[off : off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += fan_in * fan_out
        b = params[off : off + fan_out]
        off += fan_out
        x = w.T @ x + b
        if layer < len(sizes) - 2:
            x = np.maximum(x, 0.0)
    return float(1.0 / (1.0 + np.exp(-x[0])))
