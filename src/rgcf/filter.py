"""The gradient-classification filter.

Every filter is one ReLU net with a sigmoid head, (d+1) -> 64 -> 32 -> 1
(`HIDDEN` holds the widths). It takes a flat gradient with the scalar
training loss appended as the final input coordinate and outputs the
probability that the gradient is Byzantine. This module holds the net, its
input, its weighted-BCE loss and gradient, one Adam training step on one
(gradient, loss) example, and the filter file format. The simulated server
that trains it, one honest and one Byzantine worker over the deployment's
worker turn, is `simulation.train_filter`.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import param_vector
from .data import read_exact
from .models import (
    AdamState,
    Architecture,
    FactoredGradient,
    adam_step,
    init_params,
    mlp_backward,
    mlp_forward,
)

# Not called here: the benchmark tracer (perfbench/tracing.py) wraps these
# three names in this module, so they stay importable from it.
from .attacks import apply_attack  # noqa: F401
from .data import sample_minibatch  # noqa: F401
from .models import apply_update  # noqa: F401

PRED_CLAMP = 1e-7

MAGIC = b"RGCF"
FORMAT_VERSION = 3
HIDDEN = (64, 32)  # the hidden widths of every filter
THRESHOLD = 0.5  # a gradient the net scores at p >= THRESHOLD is rejected
NO_START = bytes(32)  # the start digest of a filter that guards no start


def filter_arch(d: int) -> Architecture:
    """The filter net over d-dimensional gradients: (d+1) -> HIDDEN -> 1."""
    return Architecture(d + 1, HIDDEN, 1)


@dataclass(frozen=True)
class FilterNet:
    """Classifier over (gradient, loss) inputs, the net `filter_arch(d)`.

    The gradient block of the input is rescaled to norm sqrt(d) before the
    net sees it, so classification depends on the gradient's direction
    alone, not its magnitude; the scalar loss passes through unscaled.
    `start` is the `start_digest` of the server weights its training run
    started from, the only start it guards.
    """

    d: int
    params: np.ndarray
    start: bytes = NO_START
    threshold = THRESHOLD  # not a field: every filter decides at THRESHOLD

    @cached_property  # read by filter_forward at every decision
    def layer_sizes(self) -> tuple[int, ...]:
        return filter_arch(self.d).layer_sizes

    def __post_init__(self):
        expected = filter_arch(self.d).param_count
        if self.params.shape != (expected,):
            raise ValueError(f"filter params {self.params.shape} != expected ({expected},)")


def filter_init(d: int, rng: np.random.Generator) -> FilterNet:
    """A fresh filter that guards no start yet."""
    return FilterNet(d=d, params=init_params(filter_arch(d), rng))


def start_digest(params: np.ndarray) -> bytes:
    """sha256 of a server's initial weights as little-endian float64."""
    return hashlib.sha256(np.ascontiguousarray(params, dtype="<f8")).digest()


def _filter_input(filt: FilterNet, grad: np.ndarray, loss: float) -> np.ndarray:
    """The net's input row, (d+1,): the gradient, rescaled to norm sqrt(d)
    unless it is zero, then the loss. Built in place, since every
    transferred gradient passes through here."""
    if grad.shape != (filt.d,):
        raise ValueError(f"gradient length {grad.shape} != filter d {filt.d}")
    if not np.isfinite(loss):
        raise ValueError("loss must be finite")
    x = np.empty(filt.d + 1)
    norm = np.linalg.norm(grad)
    if norm > 0:
        np.multiply(grad, np.sqrt(filt.d) / norm, out=x[: filt.d])
    else:
        x[: filt.d] = grad
    x[filt.d] = loss
    return x


def _forward(filt: FilterNet, x: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """The net's probability on one input row, and its activations."""
    z, acts = mlp_forward(filt.params, filt.layer_sizes, x)
    return float(1.0 / (1.0 + np.exp(-z[0]))), acts


def filter_forward(filt: FilterNet, grad: np.ndarray, loss: float) -> float:
    """Probability in (0,1) that the gradient is Byzantine."""
    return _forward(filt, _filter_input(filt, grad, loss))[0]


def filter_loss(pred: float, label: int, p: float) -> float:
    """Weighted binary cross-entropy (negative log-likelihood); the
    Byzantine class is up-weighted by p."""
    if p <= 0:
        raise ValueError("p must be positive")
    q = min(max(pred, PRED_CLAMP), 1.0 - PRED_CLAMP)
    if label == 1:
        return -p * np.log(q)
    return -np.log(1.0 - q)


def filter_gradient(
    filt: FilterNet, grad: np.ndarray, loss: float, label: int, p: float
) -> tuple[FactoredGradient, float, float]:
    """Gradient of the weighted BCE on one (grad, loss) example w.r.t. the
    filter's own parameters, plus the BCE value and the predicted
    probability. The first weight matrix's gradient is kept as its two
    factors, the input row and the first layer's delta."""
    x = _filter_input(filt, grad, loss)
    pred, acts = _forward(filt, x)
    bce = filter_loss(pred, label, p)
    q = min(max(pred, PRED_CLAMP), 1.0 - PRED_CLAMP)
    # dL/dq through the clamp, then sigmoid derivative at the raw pred.
    dq = -p / q if label == 1 else 1.0 / (1.0 - q)
    dz = np.array([[dq * pred * (1.0 - pred)]])
    rest = np.empty(filt.params.shape[0] - x.shape[0] * filt.layer_sizes[1])
    delta = mlp_backward(filt.params, filt.layer_sizes, [a[None] for a in acts], dz, rest)
    return FactoredGradient(x, delta[0], rest), bce, pred


def filter_train_step(
    filt: FilterNet, adam: AdamState, grad: np.ndarray, loss: float, label: int, p: float
) -> tuple[float, float]:
    """One Adam update on the weighted BCE of one (grad, loss) example, in
    place on the filter's writable weights and on `adam`.

    Returns the pre-update BCE value and predicted probability. A weight
    the update leaves non-finite raises NonFiniteValueError.
    """
    filter_grad, bce, pred = filter_gradient(filt, grad, loss, label, p)
    adam_step(adam, filt.params, filter_grad)
    return bce, pred


def save_filter(filt: FilterNet, path: str) -> None:
    """Versioned binary format: magic, version and d (uint32 each), the
    32-byte start digest, then the little-endian float64 weights of
    `filter_arch(d)` in canonical flattening order."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, filt.d))
        f.write(filt.start)
        # the array's own buffer, not a bytes copy of every weight
        f.write(np.ascontiguousarray(filt.params, dtype="<f8"))


def load_filter(path: str) -> FilterNet:
    """Parse a file written by save_filter. Every field must be complete
    and nothing may follow the weights; anything else, a file of another
    format version included, raises ValueError. The start digest is read,
    not judged: which start a run needs is the caller's to say."""
    with open(path, "rb") as f:
        if read_exact(f, len(MAGIC), path) != MAGIC:
            raise ValueError(f"{path}: not a filter file (bad magic)")
        version, d = struct.unpack("<II", read_exact(f, 8, path))
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}; retrain the filter")
        start = read_exact(f, len(NO_START), path)
        count = filter_arch(d).param_count
        params = np.frombuffer(read_exact(f, 8 * count, path), dtype="<f8")
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after the weight block")
    return FilterNet(d, param_vector(params), start)
