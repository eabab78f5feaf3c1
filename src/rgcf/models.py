"""From-scratch differentiable models for the parameter server.

Fully-connected nets with ReLU hidden layers and a softmax cross-entropy
head, manual backprop, the masked SGD update, and an in-place Adam.

Canonical parameter flattening order (public contract, shared by gradients,
attacks and the filter): layer by layer from the input, weight matrix of
shape (fan_in, fan_out) in row-major order, then its bias vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import LengthMismatchError, NonFiniteValueError, param_vector

# Elements per block of `adam_step`: the block's slices of params, m and v,
# three scratch rows and a tiled row (7 x 256 KB) fit in a 2 MB L2 cache.
ADAM_BLOCK = 1 << 15


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
    """Split a flat vector, or each row of a stack of them, into
    [(W, b), ...] views in canonical order."""
    expected = sum(
        fan_in * fan_out + fan_out for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:])
    )
    if params.shape[-1:] != (expected,):
        raise ShapeMismatchError(f"flat vector length {params.shape} != expected {expected}")
    lead = params.shape[:-1]
    layers = []
    off = 0
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        w = params[..., off : off + fan_in * fan_out].reshape(lead + (fan_in, fan_out))
        off += fan_in * fan_out
        b = params[..., off : off + fan_out]
        off += fan_out
        layers.append((w, b))
    return layers


def mlp_forward(params: np.ndarray, layer_sizes: tuple[int, ...], x: np.ndarray):
    """ReLU net forward pass over one input row or a batch of rows.
    Returns (logits, activations per layer input)."""
    if x.shape[-1] != layer_sizes[0]:
        raise ShapeMismatchError(f"input dim {x.shape[-1]} != model {layer_sizes[0]}")
    layers = unflatten(params, layer_sizes)
    acts = [x]
    a = x
    for i, (w, b) in enumerate(layers):
        z = a @ w
        z += b
        if i < len(layers) - 1:
            a = np.maximum(z, 0.0, out=z)
            acts.append(a)
        else:
            return z, acts
    raise AssertionError("unreachable")


def mlp_backward(
    params: np.ndarray,
    layer_sizes: tuple[int, ...],
    acts: list[np.ndarray],
    dlogits: np.ndarray,
    rest: np.ndarray,
) -> np.ndarray:
    """Backprop dLoss/dlogits through the net, for one batch or a
    (k, b, classes) stack of them. Each hidden layer's delta is written
    over its activations in acts, which are spent once their weight
    gradient is formed: one buffer fewer per layer to allocate and fault in.

    Writes into `rest` the gradient of every parameter after the first
    weight matrix, flat in canonical order (a (k, ...) stack for a stack),
    and returns delta, dLoss/d(first layer's output) of shape (..., b, h1):
    the first weight matrix's gradient is acts[0]^T @ delta, which the
    caller forms, or for one example keeps as its two factors."""
    layers = unflatten(params, layer_sizes)
    h1 = layer_sizes[1]
    grad_layers = unflatten(rest[..., h1:], layer_sizes[1:])
    delta = dlogits
    for i in range(len(layers) - 1, 0, -1):
        # written in place, with no per-layer temporary or concatenation
        gw, gb = grad_layers[i - 1]
        np.matmul(np.swapaxes(acts[i], -1, -2), delta, out=gw)
        delta.sum(axis=-2, out=gb)
        mask = acts[i] > 0.0
        delta = np.matmul(delta, layers[i][0].T, out=acts[i])
        delta *= mask
    delta.sum(axis=-2, out=rest[..., :h1])
    return delta


def _shifted_exp(logits: np.ndarray, labels: np.ndarray):
    """For (rows, C) logits: exp of the row-max-shifted logits, its row
    sums (rows, 1), each row's cross-entropy under its integer label, and
    the flat index of each row's label entry. The row max is C-1 column
    maxima: the bits of max(axis=1), up to a NaN's sign, at a fraction of
    its cost for a few columns."""
    rows, classes = logits.shape
    top = logits[:, 0].copy()
    for c in range(1, classes):
        np.maximum(top, logits[:, c], out=top)
    z = logits - top[:, None]
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    at = np.arange(0, rows * classes, classes) + labels
    return e, total, np.log(total[:, 0]) - z.reshape(-1)[at], at


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy of integer class labels under the logits."""
    return float(np.mean(_shifted_exp(logits, labels)[2]))


def backward(
    arch: Architecture, params: np.ndarray, inputs: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, float | np.ndarray]:
    """Gradient of the mean batch loss w.r.t. the flat parameters, and that
    loss. Neither is checked here: the caller checks what it sends.

    Inputs (b, in_dim) with labels (b,) give a (d,) gradient and a float.
    A stack of k batches, inputs (k, b, in_dim) with labels (k, b), gives a
    (k, d) gradient array and k losses from one pass; row j and loss j are
    bit-identical to the 2-D call on batch j.
    """
    logits, acts = mlp_forward(params, arch.layer_sizes, inputs)
    b = inputs.shape[-2]
    rows = logits.reshape(-1, logits.shape[-1])
    flat_labels = labels.reshape(-1)
    dlogits, total, nll, at = _shifted_exp(rows, flat_labels)
    dlogits /= total
    dlogits.reshape(-1)[at] -= 1.0
    dlogits /= b
    grad = np.empty(logits.shape[:-2] + params.shape)
    first_w = unflatten(grad, arch.layer_sizes)[0][0]
    rest = grad[..., arch.in_dim * arch.layer_sizes[1] :]
    delta = mlp_backward(params, arch.layer_sizes, acts, dlogits.reshape(logits.shape), rest)
    np.matmul(np.swapaxes(inputs, -1, -2), delta, out=first_w)
    if inputs.ndim == 2:
        return grad, float(np.mean(nll))
    return grad, nll.reshape(-1, b).mean(axis=1)


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


@dataclass
class AdamState:
    """Adam's moment estimates and step count, updated in place by
    `adam_step`."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(dim: int, lr: float = 0.001) -> AdamState:
    return AdamState(m=np.zeros(dim), v=np.zeros(dim), lr=lr)


class FactoredGradient(NamedTuple):
    """A flat gradient whose first len(x)*len(delta) entries are the outer
    product outer(x, delta) in row-major order, followed by `rest`. For one
    example, a first weight matrix's gradient is such an outer product of
    the input row and the layer's delta; empty x and delta leave `rest`."""

    x: np.ndarray
    delta: np.ndarray
    rest: np.ndarray


def adam_step(state: AdamState, params: np.ndarray, grad: FactoredGradient) -> None:
    """One Adam update with bias correction, in place on params, m and v.

    It runs block by block in the textbook operation order, so every bit
    equals the whole-array expressions, for g the flat gradient,
        m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g*g
        params -= lr*mhat / (sqrt(vhat) + eps).
    An outer-product block of g is formed in a scratch row just before its
    update, so the outer product is never written out whole. The sign of a
    zero in g never reaches params, m or v: m starts at +0, beta1*m (beta1
    above 1/2) is zero only when m is, and a sum is -0 only when both terms
    are, so m is never -0; and ((1-beta2)*g)*g is +0 for either zero.
    An update that leaves a parameter non-finite raises NonFiniteValueError
    at the first such coordinate; the blocks before it are already updated.
    """
    x, delta, rest = grad
    width = delta.shape[0]
    head = x.shape[0] * width
    if state.m.shape != params.shape or params.shape != (head + rest.shape[0],):
        raise LengthMismatchError(params.shape[0], head + rest.shape[0])
    state.t += 1
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
    c1, c2 = 1.0 - b1**state.t, 1.0 - b2**state.t
    # whole rows of the outer product per block, at least one; then the rest
    step = width * max(1, ADAM_BLOCK // width) if width else ADAM_BLOCK
    size = params.shape[0]
    blocks = [(lo, min(lo + step, head)) for lo in range(0, head, step)]
    blocks += [(lo, min(lo + ADAM_BLOCK, size)) for lo in range(head, size, ADAM_BLOCK)]
    scratch = np.empty((3, max((hi - lo for lo, hi in blocks), default=0)))
    # an outer-product block is each of its rows' x entry copied across the
    # row, times delta tiled once per row: two contiguous passes, half the
    # time of one broadcasting multiply
    tiled = np.tile(delta, step // width) if width else delta
    for lo, hi in blocks:
        p, m, v = params[lo:hi], state.m[lo:hi], state.v[lo:hi]
        s0, s1, s2 = scratch[:, : hi - lo]
        if lo < head:
            g = s0
            np.copyto(g.reshape(-1, width), x[lo // width : hi // width, None])
            np.multiply(g, tiled[: hi - lo], out=g)
        else:
            g = rest[lo - head : hi - head]
        np.multiply(m, b1, out=m)
        np.multiply(g, 1.0 - b1, out=s1)
        np.add(m, s1, out=m)
        np.multiply(v, b2, out=v)
        np.multiply(g, 1.0 - b2, out=s1)
        np.multiply(s1, g, out=s1)
        np.add(v, s1, out=v)
        np.divide(v, c2, out=s1)
        np.sqrt(s1, out=s1)
        np.add(s1, eps, out=s1)
        np.divide(m, c1, out=s2)
        np.multiply(s2, lr, out=s2)
        np.divide(s2, s1, out=s2)
        np.subtract(p, s2, out=p)
        finite = np.isfinite(p)
        if not finite.all():
            raise NonFiniteValueError(lo + int(np.argmin(finite)))
