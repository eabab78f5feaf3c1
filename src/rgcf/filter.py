"""The gradient-classification filter.

A small ReLU net with a sigmoid head takes a flat gradient with the scalar
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
FORMAT_VERSION = 2
THRESHOLD = 0.5  # a gradient the net scores at p >= THRESHOLD is rejected
NO_START = bytes(32)  # the start digest of a filter that guards no start


@dataclass(frozen=True)
class FilterNet:
    """Classifier over (gradient, loss) inputs: (d+1) -> 64 -> 32 -> 1.

    The gradient block of the input is rescaled to norm sqrt(d) before the
    net sees it, so classification depends on the gradient's direction
    alone, not its magnitude; the scalar loss passes through unscaled.
    `start` is the `start_digest` of the server weights its training run
    started from, the only start it guards.
    """

    d: int
    params: np.ndarray
    hidden: tuple[int, ...] = (64, 32)
    start: bytes = NO_START
    threshold = THRESHOLD  # not a field: every filter decides at THRESHOLD

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.d + 1, *self.hidden, 1)

    def __post_init__(self):
        if min(self.hidden, default=1) < 1:
            raise ValueError(f"layer sizes {self.layer_sizes}: every hidden width must be >= 1")
        expected = Architecture(self.d + 1, self.hidden, 1).param_count
        if self.params.shape != (expected,):
            raise ValueError(f"filter params {self.params.shape} != expected ({expected},)")


def filter_init(d: int, rng: np.random.Generator, hidden: tuple[int, ...] = (64, 32)) -> FilterNet:
    """A fresh filter that guards no start yet."""
    return FilterNet(d=d, params=init_params(Architecture(d + 1, hidden, 1), rng), hidden=hidden)


def start_digest(params: np.ndarray) -> bytes:
    """sha256 of a server's initial weights as little-endian float64."""
    return hashlib.sha256(np.ascontiguousarray(params, dtype="<f8")).digest()


def _filter_input(filt: FilterNet, grad: np.ndarray, loss: float) -> np.ndarray:
    """The net's input as a (1, d+1) batch: the gradient, rescaled to norm
    sqrt(d) unless it is zero, then the loss. Built in place, since every
    transferred gradient passes through here."""
    if grad.shape != (filt.d,):
        raise ValueError(f"gradient length {grad.shape} != filter d {filt.d}")
    if not np.isfinite(loss):
        raise ValueError("loss must be finite")
    x = np.empty((1, filt.d + 1))
    norm = np.linalg.norm(grad)
    if norm > 0:
        np.multiply(grad, np.sqrt(filt.d) / norm, out=x[0, : filt.d])
    else:
        x[0, : filt.d] = grad
    x[0, filt.d] = loss
    return x


def filter_forward(filt: FilterNet, grad: np.ndarray, loss: float) -> float:
    """Probability in (0,1) that the gradient is Byzantine.

    This is the per-decision hot path, so it runs the net on the input's
    single row: 1-D matvecs rather than the training path's batch of one.
    """
    z, _ = mlp_forward(filt.params, filt.layer_sizes, _filter_input(filt, grad, loss)[0])
    return float(1.0 / (1.0 + np.exp(-z[0])))


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
    z, acts = mlp_forward(filt.params, filt.layer_sizes, x)
    pred = 1.0 / (1.0 + np.exp(-z[0, 0]))
    bce = filter_loss(pred, label, p)
    q = min(max(pred, PRED_CLAMP), 1.0 - PRED_CLAMP)
    # dL/dq through the clamp, then sigmoid derivative at the raw pred.
    dq = -p / q if label == 1 else 1.0 / (1.0 - q)
    dz = np.array([[dq * pred * (1.0 - pred)]])
    rest = np.empty(filt.params.shape[0] - x.shape[1] * filt.layer_sizes[1])
    delta = mlp_backward(filt.params, filt.layer_sizes, acts, dz, rest)
    return FactoredGradient(x[0], delta[0], rest), bce, pred


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
    """Versioned binary format: magic, version, d, the layer-size count and
    the layer sizes (uint32 each), the 32-byte start digest, then
    little-endian float64 weights in canonical flattening order."""
    sizes = filt.layer_sizes
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack(f"<III{len(sizes)}I", FORMAT_VERSION, filt.d, len(sizes), *sizes))
        f.write(filt.start)
        f.write(np.asarray(filt.params, dtype="<f8").tobytes())


def load_filter(path: str) -> FilterNet:
    """Parse a file written by save_filter. Every field must be complete,
    the layer sizes must run from d+1 to 1 with no hidden width below 1,
    and nothing may follow the weights; anything else, a file of another
    format version included, raises ValueError. The start digest is read,
    not judged: which start a run needs is the caller's to say."""
    with open(path, "rb") as f:

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, read_exact(f, struct.calcsize(fmt), path))

        if read_exact(f, len(MAGIC), path) != MAGIC:
            raise ValueError(f"{path}: not a filter file (bad magic)")
        version, d = unpack("<II")
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}; retrain the filter")
        (n_sizes,) = unpack("<I")
        sizes = unpack(f"<{n_sizes}I")
        if n_sizes < 2 or sizes[0] != d + 1 or sizes[-1] != 1:
            raise ValueError(f"{path}: layer sizes {sizes} do not run from d+1={d + 1} to 1")
        start = read_exact(f, len(NO_START), path)
        count = Architecture(sizes[0], sizes[1:-1], sizes[-1]).param_count
        params = np.frombuffer(read_exact(f, 8 * count, path), dtype="<f8")
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after the weight block")
    return FilterNet(d, param_vector(params), tuple(sizes[1:-1]), start)
