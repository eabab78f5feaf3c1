"""From-scratch differentiable models for the parameter server.

Fully-connected nets with ReLU hidden layers and a softmax cross-entropy
head, manual backprop, the masked SGD update, a finite-difference gradient
oracle, and Adam.

Canonical parameter flattening order (public contract, shared by gradients,
attacks and the filter): layer by layer from the input, weight matrix of
shape (fan_in, fan_out) in row-major order, then its bias vector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import GradientReport, LengthMismatchError, param_vector


class ShapeMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Architecture:
    """Layer widths of a fully-connected classifier.

    hidden=() is plain multinomial logistic regression.
    """

    in_dim: int
    hidden: tuple[int, ...]
    classes: int

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.in_dim, *self.hidden, self.classes)

    @property
    def param_count(self) -> int:
        sizes = self.layer_sizes
        return sum(sizes[i] * sizes[i + 1] + sizes[i + 1] for i in range(len(sizes) - 1))


def logistic(in_dim: int, classes: int) -> Architecture:
    return Architecture(in_dim, (), classes)


def mlp(in_dim: int, hidden: tuple[int, ...], classes: int) -> Architecture:
    return Architecture(in_dim, tuple(hidden), classes)


@dataclass(frozen=True)
class ServerModel:
    arch: Architecture
    params: np.ndarray

    def __post_init__(self):
        if self.params.shape != (self.arch.param_count,):
            raise ShapeMismatchError(
                f"params length {self.params.shape} != architecture count {self.arch.param_count}"
            )

    @property
    def d(self) -> int:
        return self.arch.param_count


@dataclass(frozen=True)
class LabeledBatch:
    inputs: np.ndarray  # (batch_size, in_dim)
    labels: np.ndarray  # (batch_size,) class indices

    def __post_init__(self):
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise ShapeMismatchError(f"bad inputs shape {self.inputs.shape}")
        if self.labels.shape != (self.inputs.shape[0],):
            raise ShapeMismatchError("labels must match batch size")


def init_params(arch: Architecture, rng: np.random.Generator) -> np.ndarray:
    """Uniform fan-in initialization: W ~ U(±1/sqrt(fan_in)), biases zero."""
    sizes = arch.layer_sizes
    parts = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        parts.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
        parts.append(np.zeros(fan_out))
    return param_vector(np.concatenate(parts))


def unflatten(params: np.ndarray, layer_sizes: tuple[int, ...]):
    """Split a flat vector into [(W, b), ...] views in canonical order."""
    expected = sum(
        fan_in * fan_out + fan_out for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:])
    )
    if params.shape != (expected,):
        raise ShapeMismatchError(f"flat vector length {params.shape} != expected {expected}")
    layers = []
    off = 0
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        w = params[off : off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += fan_in * fan_out
        b = params[off : off + fan_out]
        off += fan_out
        layers.append((w, b))
    return layers


def mlp_forward(params: np.ndarray, layer_sizes: tuple[int, ...], x: np.ndarray):
    """ReLU net forward pass. Returns (logits, activations per layer input)."""
    layers = unflatten(params, layer_sizes)
    acts = [x]
    a = x
    for i, (w, b) in enumerate(layers):
        z = a @ w + b
        if i < len(layers) - 1:
            a = np.maximum(z, 0.0)
            acts.append(a)
        else:
            return z, acts
    raise AssertionError("unreachable")


def mlp_backward(
    params: np.ndarray, layer_sizes: tuple[int, ...], acts: list[np.ndarray], dlogits: np.ndarray
) -> np.ndarray:
    """Backprop dLoss/dlogits through the net; returns the flat gradient."""
    layers = unflatten(params, layer_sizes)
    grads: list[np.ndarray] = [None] * len(layers)  # type: ignore[list-item]
    delta = dlogits
    for i in range(len(layers) - 1, -1, -1):
        w, _b = layers[i]
        a = acts[i]
        gw = a.T @ delta
        gb = delta.sum(axis=0)
        grads[i] = np.concatenate([gw.ravel(), gb])
        if i > 0:
            delta = (delta @ w.T) * (acts[i] > 0.0)
    return np.concatenate(grads)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy of integer class labels under the logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1))
    return float(np.mean(logsumexp - z[np.arange(len(labels)), labels]))


def _check_batch(model: ServerModel, batch: LabeledBatch) -> None:
    if batch.inputs.shape[1] != model.arch.in_dim:
        raise ShapeMismatchError(
            f"batch input dim {batch.inputs.shape[1]} != model {model.arch.in_dim}"
        )


def forward_loss(model: ServerModel, batch: LabeledBatch) -> float:
    """Mean softmax cross-entropy of the batch."""
    _check_batch(model, batch)
    logits, _ = mlp_forward(model.params, model.arch.layer_sizes, batch.inputs)
    return cross_entropy(logits, batch.labels)


def backward(model: ServerModel, batch: LabeledBatch) -> GradientReport:
    """Gradient of the mean batch loss w.r.t. the flat parameters."""
    _check_batch(model, batch)
    logits, acts = mlp_forward(model.params, model.arch.layer_sizes, batch.inputs)
    n = batch.inputs.shape[0]
    loss = cross_entropy(logits, batch.labels)
    dlogits = _softmax(logits)
    dlogits[np.arange(n), batch.labels] -= 1.0
    dlogits /= n
    grad = mlp_backward(model.params, model.arch.layer_sizes, acts, dlogits)
    return GradientReport(gradient=param_vector(grad), loss=loss)


def finite_diff_gradient(model: ServerModel, batch: LabeledBatch, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle: (L(w+h e_j) - L(w-h e_j)) / 2h."""
    if h <= 0:
        raise ValueError("h must be positive")
    base = np.array(model.params)
    grad = np.empty_like(base)
    for j in range(base.shape[0]):
        wp = base.copy()
        wp[j] += h
        wm = base.copy()
        wm[j] -= h
        lp = forward_loss(ServerModel(model.arch, param_vector(wp)), batch)
        lm = forward_loss(ServerModel(model.arch, param_vector(wm)), batch)
        grad[j] = (lp - lm) / (2.0 * h)
    return grad


def apply_update(params: np.ndarray, grad: np.ndarray, alpha: float, b: int) -> np.ndarray:
    """Masked SGD step: rejected gradients (b=1) leave the parameters bit-identical."""
    if params.shape != grad.shape:
        raise LengthMismatchError(params.shape[0], grad.shape[0])
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if b not in (0, 1):
        raise ValueError("b must be 0 or 1")
    if b == 1:
        return params
    return params - alpha * grad


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(dim: int, lr: float = 0.001) -> AdamState:
    return AdamState(m=np.zeros(dim), v=np.zeros(dim), lr=lr)


def adam_step(
    state: AdamState, params: np.ndarray, grad: np.ndarray
) -> tuple[AdamState, np.ndarray]:
    """One Adam update with bias correction."""
    if state.m.shape != params.shape or params.shape != grad.shape:
        raise LengthMismatchError(params.shape[0], grad.shape[0])
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    mhat = m / (1.0 - state.beta1**t)
    vhat = v / (1.0 - state.beta2**t)
    new_params = params - state.lr * mhat / (np.sqrt(vhat) + state.eps)
    return replace(state, m=m, v=v, t=t), new_params
