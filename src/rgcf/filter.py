"""The gradient-classification filter.

A small ReLU net with a sigmoid head takes a flat gradient with the scalar
training loss appended as the final input coordinate and outputs the
probability that the gradient is Byzantine. It is trained online, one
(gradient, loss) example per step, inside a simulated parameter-server run
with one honest and one Byzantine worker; the simulated server applies only
the ground-truth-honest gradients, so the filter learns from an optimally
trained trajectory.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import core, models
from .attacks import RANDOM_GAUSSIAN, AttackSpec, apply_attack
from .core import GradientReport, param_vector, stream
from .data import Dataset, read_exact, sample_minibatch
from .models import (
    AdamState,
    Architecture,
    FactoredGradient,
    ShapeMismatchError,
    adam_init,
    adam_step,
    apply_update,
    init_params,
    mlp_backward,
    mlp_forward,
)

PRED_CLAMP = 1e-7

MAGIC = b"RGCF"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class FilterNet:
    """Classifier over (gradient, loss) inputs: (d+1) -> 64 -> 32 -> 1.

    With normalize=True (the default) the gradient block of the input is
    rescaled to norm sqrt(d) before the net sees it, so classification
    depends on the gradient's direction rather than its magnitude; the
    scalar loss passes through unscaled. normalize=False feeds the raw
    gradient.
    """

    d: int
    params: np.ndarray
    hidden: tuple[int, ...] = (64, 32)
    threshold: float = 0.5
    normalize: bool = True

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.d + 1, *self.hidden, 1)

    def __post_init__(self):
        expected = Architecture(self.d + 1, self.hidden, 1).param_count
        if self.params.shape != (expected,):
            raise ShapeMismatchError(f"filter params {self.params.shape} != expected ({expected},)")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0,1)")


def filter_init(
    d: int,
    rng: np.random.Generator,
    hidden: tuple[int, ...] = (64, 32),
    threshold: float = 0.5,
    normalize: bool = True,
) -> FilterNet:
    params = init_params(Architecture(d + 1, hidden, 1), rng)
    return FilterNet(
        d=d,
        params=params,
        hidden=hidden,
        threshold=threshold,
        normalize=normalize,
    )


def _filter_input(filt: FilterNet, grad: np.ndarray, loss: float) -> np.ndarray:
    """The net's input as a (1, d+1) batch: the gradient, rescaled to norm
    sqrt(d) when the filter normalizes, then the loss. Built in place, since
    every transferred gradient passes through here."""
    if grad.shape != (filt.d,):
        raise ShapeMismatchError(f"gradient length {grad.shape} != filter d {filt.d}")
    if not np.isfinite(loss):
        raise ValueError("loss must be finite")
    x = np.empty((1, filt.d + 1))
    norm = np.linalg.norm(grad) if filt.normalize else 0.0
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


def classify(filt: FilterNet, grad: np.ndarray, loss: float) -> int:
    """1 = reject (Byzantine), 0 = accept. The threshold boundary rejects."""
    return 1 if filter_forward(filt, grad, loss) >= filt.threshold else 0


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
    filt: FilterNet, report: GradientReport, label: int, p: float
) -> tuple[FactoredGradient, float, float]:
    """Gradient of the single-example weighted BCE w.r.t. the filter's own
    parameters, plus the loss value and the predicted probability. The
    first weight matrix's gradient is kept as its two factors, the input
    row and the first layer's delta."""
    x = _filter_input(filt, report.gradient, report.loss)
    z, acts = mlp_forward(filt.params, filt.layer_sizes, x)
    pred = 1.0 / (1.0 + np.exp(-z[0, 0]))
    loss = filter_loss(pred, label, p)
    q = min(max(pred, PRED_CLAMP), 1.0 - PRED_CLAMP)
    # dL/dq through the clamp, then sigmoid derivative at the raw pred.
    dq = -p / q if label == 1 else 1.0 / (1.0 - q)
    dz = np.array([[dq * pred * (1.0 - pred)]])
    rest = np.empty(filt.params.shape[0] - x.shape[1] * filt.layer_sizes[1])
    delta = mlp_backward(filt.params, filt.layer_sizes, acts, dz, rest)
    return FactoredGradient(x[0], delta[0], rest), loss, pred


def filter_train_step(
    filt: FilterNet, adam: AdamState, report: GradientReport, label: int, p: float
) -> tuple[float, float]:
    """One Adam update on the single-example weighted BCE, in place on the
    filter's writable weights and on `adam`.

    Returns the pre-update loss value and predicted probability. A weight
    the update leaves non-finite raises NonFiniteValueError.
    """
    grad, loss, pred = filter_gradient(filt, report, label, p)
    adam_step(adam, filt.params, grad)
    return loss, pred


@dataclass(frozen=True)
class FilterTrainConfig:
    episodes: int = 1
    steps_per_episode: int = 500
    positive_weight: float = 10.0
    filter_lr: float = 0.002
    server_lr: float = 0.01
    batch_size: int = 128
    attack: AttackSpec = field(default_factory=lambda: AttackSpec(RANDOM_GAUSSIAN, 1.0))
    threshold: float = 0.5
    normalize: bool = True

    def __post_init__(self):
        if min(self.episodes, self.steps_per_episode) < 0:
            raise ValueError("episodes/steps must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if min(self.positive_weight, self.filter_lr, self.server_lr) <= 0:
            raise ValueError("positive_weight and learning rates must be positive")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0,1)")


@dataclass
class FilterTrainLog:
    steps: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    running_accuracy: list[float] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)
    server_losses: list[float] = field(default_factory=list)


def train_filter(
    cfg: FilterTrainConfig,
    local_data: Dataset,
    server_arch: Architecture,
    seed: int,
) -> tuple[FilterNet, FilterTrainLog]:
    """Simulation-based training: one honest and one Byzantine worker,
    sampled with equal probability each step. The simulated server is
    updated with the ground-truth label (drop every Byzantine gradient),
    not the filter's prediction, so filter quality cannot disturb the
    server trajectory it learns from."""
    d = server_arch.param_count
    filt = filter_init(
        d, stream(seed, core.SID_FILTER_INIT), threshold=cfg.threshold, normalize=cfg.normalize
    )
    # the weights and the Adam moments are allocated once and updated in
    # place; the weights are frozen when training ends
    filt = replace(filt, params=np.array(filt.params))
    adam = adam_init(filt.params.shape[0], lr=cfg.filter_lr)
    init_rng = stream(seed, core.SID_SERVER_INIT)
    pick_rng = stream(seed, core.SID_FILTER_PICK)
    batch_rng = stream(seed, core.SID_FILTER_BATCH)
    attack_rng = stream(seed, core.SID_FILTER_ATTACK)

    log = FilterTrainLog()
    correct = 0
    step = 0
    # a weight driven past the float range is reported by adam_step's own
    # check, not by numpy's overflow warnings on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        for _episode in range(cfg.episodes):
            params = init_params(server_arch, init_rng)
            for _t in range(cfg.steps_per_episode):
                byz = int(pick_rng.integers(0, 2))
                inputs, labels = sample_minibatch(local_data, cfg.batch_size, batch_rng)
                grad, server_loss = models.backward(server_arch, params, inputs, labels)
                if byz:
                    grad = apply_attack(cfg.attack, grad, attack_rng)
                report = GradientReport(param_vector(grad), server_loss)
                params = apply_update(params, report.gradient, cfg.server_lr, byz)
                loss, pred = filter_train_step(filt, adam, report, byz, cfg.positive_weight)
                predicted = int(pred >= filt.threshold)
                step += 1
                correct += int(predicted == byz)
                log.steps.append(step)
                log.losses.append(loss)
                log.running_accuracy.append(correct / step)
                log.labels.append(byz)
                log.server_losses.append(report.loss)
    return replace(filt, params=param_vector(filt.params)), log


def save_filter(filt: FilterNet, path: str) -> None:
    """Versioned binary format: magic, version, d, layer sizes, threshold,
    then little-endian float64 weights in canonical flattening order."""
    sizes = filt.layer_sizes
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, filt.d))
        f.write(struct.pack("<I", len(sizes)))
        f.write(struct.pack(f"<{len(sizes)}I", *sizes))
        f.write(struct.pack("<d", filt.threshold))
        f.write(struct.pack("<B", int(filt.normalize)))
        f.write(np.asarray(filt.params, dtype="<f8").tobytes())


def load_filter(path: str) -> FilterNet:
    """Parse a file written by save_filter. Every field must be complete,
    the layer sizes must run from d+1 to 1, and nothing may follow the
    weights; anything else raises ValueError."""
    with open(path, "rb") as f:

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, read_exact(f, struct.calcsize(fmt), path))

        if read_exact(f, len(MAGIC), path) != MAGIC:
            raise ValueError(f"{path}: not a filter file (bad magic)")
        version, d = unpack("<II")
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        (n_sizes,) = unpack("<I")
        sizes = unpack(f"<{n_sizes}I")
        if n_sizes < 2 or sizes[0] != d + 1 or sizes[-1] != 1:
            raise ValueError(f"{path}: layer sizes {sizes} do not run from d+1={d + 1} to 1")
        (threshold,) = unpack("<d")
        (normalize,) = unpack("<B")
        count = Architecture(sizes[0], sizes[1:-1], sizes[-1]).param_count
        params = np.frombuffer(read_exact(f, 8 * count, path), dtype="<f8")
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after the weight block")
    return FilterNet(
        d=d,
        params=param_vector(params),
        hidden=tuple(sizes[1:-1]),
        threshold=threshold,
        normalize=bool(normalize),
    )
