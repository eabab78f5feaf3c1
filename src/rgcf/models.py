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

from . import core, kernels
from .core import NonFiniteValueError, param_vector

# A large Adam step is split into parts of at least this many coordinates
# (about 1.8 ms of the kernel's divides and square roots on a 2-vCPU Xeon),
# at most one per CPU the process may use.
ADAM_PART = 1 << 19
# Adam's decay rates and denominator offset (Kingma & Ba, ICLR 2015).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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
        raise ValueError(f"flat vector length {params.shape} != expected {expected}")
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
        raise ValueError(f"input dim {x.shape[-1]} != model {layer_sizes[0]}")
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
    arch: Architecture,
    params: np.ndarray,
    inputs: np.ndarray,
    labels: np.ndarray,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, float | np.ndarray]:
    """Gradient of the mean batch loss w.r.t. the flat parameters, and that
    loss. Neither is checked here: the caller checks what it sends.

    Inputs (b, in_dim) with labels (b,) give a (d,) gradient and a float.
    A stack of k batches, inputs (k, b, in_dim) with labels (k, b), gives a
    (k, d) gradient array and k losses from one pass; row j and loss j are
    bit-identical to the 2-D call on batch j. out=(grads, losses) of those
    shapes, say rows of a caller's larger arrays, receives a stack's
    result, which is then returned in them.
    """
    lead = inputs.shape[:-2]
    grad, losses = (np.empty(lead + params.shape), np.empty(lead)) if out is None else out
    backward_into(arch, params, inputs, labels, (grad, losses))
    return grad, (losses if lead else float(losses))


def backward_into(
    arch: Architecture,
    params: np.ndarray,
    inputs: np.ndarray,
    labels: np.ndarray,
    out: tuple[np.ndarray, np.ndarray],
) -> None:
    """`backward`'s pass, written into out=(grad, losses). perfbench's
    tracer does not wrap this name, so a helper thread may call it."""
    grad, losses = out
    logits, acts = mlp_forward(params, arch.layer_sizes, inputs)
    b = inputs.shape[-2]
    rows = logits.reshape(-1, logits.shape[-1])
    flat_labels = labels.reshape(-1)
    dlogits, total, nll, at = _shifted_exp(rows, flat_labels)
    dlogits /= total
    dlogits.reshape(-1)[at] -= 1.0
    dlogits /= b
    first_w = unflatten(grad, arch.layer_sizes)[0][0]
    rest = grad[..., arch.in_dim * arch.layer_sizes[1] :]
    delta = mlp_backward(params, arch.layer_sizes, acts, dlogits.reshape(logits.shape), rest)
    np.matmul(np.swapaxes(inputs, -1, -2), delta, out=first_w)
    np.mean(nll.reshape(inputs.shape[:-2] + (b,)), axis=-1, out=losses)


def apply_update(params: np.ndarray, grad: np.ndarray, alpha: float, b: int) -> np.ndarray:
    """Masked SGD step: rejected gradients (b=1) leave the parameters bit-identical.
    Unchecked: the spec checked alpha > 0, b is 0 or 1, grad has params' shape."""
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

    One pass of a compiled kernel (_kernels.c) runs the textbook operation
    order on each coordinate, so every bit equals the whole-array
    expressions, for g the flat gradient and beta1, beta2, eps the
    ADAM_ constants,
        m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g*g
        params -= lr*mhat / (sqrt(vhat) + eps).
    An outer-product entry of g is formed just before its update, so the
    outer product is never written out. The sign of a zero in g never
    reaches params, m or v: m starts at +0, beta1*m (beta1 = 0.9 > 1/2) is
    zero only when m is, and a sum is -0 only when both terms are, so m is
    never -0; and ((1-beta2)*g)*g is +0 for either zero.

    A step of an outer product is split into `core.cpu_parts(size,
    ADAM_PART)` parts of whole outer-product rows, `rest` in the last, run
    by `core.run_parts`: this thread runs the last part while helper
    threads, joined before the step returns, run the others, each one
    kernel call on its own coordinates. Each coordinate gets the same
    operations either way, so the bits do not depend on the number of
    parts.

    params, m and v must be writable, C-contiguous float64 arrays; any
    other is refused with ValueError, untouched, never copied. An update
    that leaves a parameter non-finite raises NonFiniteValueError at the
    first such coordinate; the coordinates before it are already updated,
    as may be the rest of its outer-product row and, in a split step, the
    parts after its own.
    """
    x, delta, rest = (np.ascontiguousarray(a, dtype=np.float64) for a in grad)
    rows, width = x.shape[0], delta.shape[0]
    head = rows * width
    if not state.m.shape == state.v.shape == params.shape == (head + rest.shape[0],):
        raise ValueError(f"length mismatch: expected {params.shape[0]}, got {head + rest.shape[0]}")
    for name, a in (("params", params), ("m", state.m), ("v", state.v)):
        if a.dtype != np.float64 or not a.flags.c_contiguous or not a.flags.writeable:
            raise ValueError(f"adam_step: {name} must be a writable, C-contiguous float64 array")
    kernel = kernels.library().rgcf_adam_step
    state.t += 1
    c1, c2 = 1.0 - ADAM_BETA1**state.t, 1.0 - ADAM_BETA2**state.t
    parts = core.cpu_parts(params.shape[0], ADAM_PART) if head else 1
    # part i updates rows bounds[i]:bounds[i+1], split by coordinate count
    bounds = [0, *(min(rows, i * params.shape[0] // (parts * width)) for i in range(1, parts)), rows]

    def update(i: int) -> int:
        lo, off = bounds[i], bounds[i] * width
        bad = kernel(
            params.ctypes.data + 8 * off, state.m.ctypes.data + 8 * off, state.v.ctypes.data + 8 * off,
            x.ctypes.data + 8 * lo, bounds[i + 1] - lo, delta.ctypes.data, width,
            rest.ctypes.data, rest.shape[0] if i == parts - 1 else 0,
            ADAM_BETA1, ADAM_BETA2, c1, c2, state.lr, ADAM_EPS,
        )
        return off + bad if bad >= 0 else -1

    # the lowest part's first non-finite coordinate is the first of all
    bad = [b for b in core.run_parts(parts, update) if b >= 0]
    if bad:
        raise NonFiniteValueError(bad[0])
