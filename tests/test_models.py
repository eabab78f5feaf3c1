import os
import re
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgcf import kernels, models
from rgcf.core import NonFiniteValueError, param_vector
from rgcf.models import (
    ADAM_PART,
    Architecture,
    FactoredGradient,
    _shifted_exp,
    adam_init,
    adam_parts,
    adam_step,
    apply_update,
    backward,
    cross_entropy,
    init_params,
    logistic,
    mlp,
    mlp_forward,
    unflatten,
)
from tests.conftest import rng

# A step of the wide filter's shape, 21830 rows of 48 plus 784: one row
# above the two-part split size 2 * ADAM_PART, and 48 does not divide it.
# On two CPUs the helper updates rows 0:10923, coordinates 0:524304.
SPLIT = (21830, 48, 784)
HELPER_END = 10923 * 48


def pin_cpus(monkeypatch, count: int) -> None:
    """Make the process see `count` CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def wrap_kernel(monkeypatch, before) -> None:
    """Make every Adam kernel call run before(args) first, in the calling
    thread."""
    real = kernels.library

    def wrapped():
        lib = real()

        def call(*args):
            before(args)
            return lib.rgcf_adam_step(*args)

        return SimpleNamespace(rgcf_adam_step=call)

    monkeypatch.setattr(kernels, "library", wrapped)


def kernel_threads(monkeypatch) -> list[int]:
    """A list that gets the calling thread's id at each Adam kernel call."""
    calls = []
    wrap_kernel(monkeypatch, lambda args: calls.append(threading.get_ident()))
    return calls


def forward_loss(
    arch: Architecture, params: np.ndarray, inputs: np.ndarray, labels: np.ndarray
) -> float:
    """Mean softmax cross-entropy of the batch."""
    logits, _ = mlp_forward(params, arch.layer_sizes, inputs)
    return cross_entropy(logits, labels)


def finite_diff_gradient(
    arch: Architecture, params: np.ndarray, inputs: np.ndarray, labels: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient oracle: (L(w+h e_j) - L(w-h e_j)) / 2h."""
    if h <= 0:
        raise ValueError("h must be positive")
    base = np.array(params)
    grad = np.empty_like(base)
    for j in range(base.shape[0]):
        wp = base.copy()
        wp[j] += h
        wm = base.copy()
        wm[j] -= h
        lp = forward_loss(arch, wp, inputs, labels)
        lm = forward_loss(arch, wm, inputs, labels)
        grad[j] = (lp - lm) / (2.0 * h)
    return grad


def textbook_backprop(params, layer_sizes, acts, dlogits):
    """The flat gradient of one batch, backpropagated as whole-array
    expressions: each layer's weight gradient is one matmul of its input
    activations and delta, then the parts are concatenated."""
    layers = unflatten(params, layer_sizes)
    parts = []
    delta = dlogits
    for i in range(len(layers) - 1, -1, -1):
        parts[:0] = [(acts[i].T @ delta).ravel(), delta.sum(axis=0)]
        if i > 0:
            delta = (delta @ layers[i][0].T) * (acts[i] > 0.0)
    return np.concatenate(parts)


def dense(grad):
    """A dense gradient as adam_step takes it: no outer-product part."""
    return FactoredGradient(np.empty(0), np.empty(0), grad)


def textbook_adam(m, v, t, params, grad, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Kingma & Ba's bias-corrected update as whole-array expressions;
    returns new (m, v, params) and leaves its arguments alone."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    mhat = m / (1.0 - beta1**t)
    vhat = v / (1.0 - beta2**t)
    return m, v, params - lr * mhat / (np.sqrt(vhat) + eps)


class TestArchitecture:
    def test_param_counts(self):
        assert logistic(20, 5).param_count == 20 * 5 + 5
        assert mlp(20, (32,), 5).param_count == 20 * 32 + 32 + 32 * 5 + 5
        assert mlp(4, (3, 2), 2).param_count == (4 * 3 + 3) + (3 * 2 + 2) + (2 * 2 + 2)

    def test_layer_sizes(self):
        assert mlp(4, (3, 2), 2).layer_sizes == (4, 3, 2, 2)
        assert logistic(4, 2).layer_sizes == (4, 2)


def test_init_params_bounds_and_zero_biases():
    arch = mlp(10, (8,), 3)
    p = init_params(arch, rng(0))
    layers = unflatten(p, arch.layer_sizes)
    for (w, b), fan_in in zip(layers, arch.layer_sizes):
        assert np.all(np.abs(w) <= 1.0 / np.sqrt(fan_in))
        assert np.all(b == 0.0)


def test_unflatten_canonical_order():
    # Layer by layer: weight matrix (fan_in, fan_out) row-major, then bias.
    sizes = (2, 3, 1)
    flat = param_vector(np.arange(13, dtype=float))
    (w1, b1), (w2, b2) = unflatten(flat, sizes)
    assert np.array_equal(w1, [[0, 1, 2], [3, 4, 5]])
    assert np.array_equal(b1, [6, 7, 8])
    assert np.array_equal(w2, [[9], [10], [11]])
    assert np.array_equal(b2, [12])
    # a stack of flat vectors splits row by row, into views
    stack = np.stack([np.arange(13.0), -np.arange(13.0)])
    (sw1, sb1), (sw2, sb2) = unflatten(stack, sizes)
    assert np.array_equal(sw1[1], -w1) and np.array_equal(sb2[1], -b2)
    assert np.shares_memory(sw1, stack)


def test_unflatten_rejects_wrong_length():
    with pytest.raises(ValueError, match=re.escape("flat vector length (5,) != expected 9")):
        unflatten(np.zeros(5), (2, 3))


class TestForwardLoss:
    def test_uniform_logits_give_log_classes(self):
        arch = logistic(4, 3)
        params = param_vector(np.zeros(arch.param_count))
        labels = np.array([0, 1, 2, 0, 1, 2])
        loss = forward_loss(arch, params, rng(1).random((6, 4)), labels)
        assert loss == pytest.approx(np.log(3.0), abs=1e-12)

    def test_hand_computed_binary_example(self):
        # in_dim=1, 2 classes: logits = [w0 x, w1 x] + [b0, b1]
        arch = logistic(1, 2)
        params = param_vector([2.0, -1.0, 0.5, 0.0])  # W=[[2,-1]], b=[0.5,0]
        x, y = 1.5, 0
        logits = np.array([2.0 * x + 0.5, -1.0 * x])
        expected = -np.log(np.exp(logits[y]) / np.exp(logits).sum())
        loss = forward_loss(arch, params, np.array([[x]]), np.array([y]))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_large_logits_stay_finite(self):
        arch = logistic(1, 2)
        params = param_vector([500.0, -500.0, 0.0, 0.0])
        assert np.isfinite(forward_loss(arch, params, np.array([[2.0]]), np.array([1])))

    @pytest.mark.parametrize("classes", [1, 2, 5, 8, 10, 12])
    def test_shifted_exp_equals_textbook(self, classes):
        # the column-wise row max and the flat label index give the bytes of
        # the textbook max(axis=1) and z[arange, labels], on rows holding
        # NaN, +-inf, tied maxima and zeros of both signs
        def textbook(logits, labels):
            z = logits - logits.max(axis=1, keepdims=True)
            e = np.exp(z)
            total = e.sum(axis=1, keepdims=True)
            return e, total, np.log(total[:, 0]) - z[np.arange(len(labels)), labels]

        r = rng(9)
        special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 1.0, -3.0, 1e308, -1e308])
        for rows in (1, 7, 640):
            logits = r.standard_normal((rows, classes))
            mask = r.random((rows, classes)) < 0.4
            logits[mask] = r.choice(special, size=int(mask.sum()))
            logits[: rows // 2] = r.choice(special, size=(rows // 2, classes))
            labels = r.integers(0, classes, size=rows)
            with np.errstate(over="ignore", invalid="ignore"):
                want = textbook(logits, labels)
                got = _shifted_exp(logits, labels)
            for a, b in zip(want, got):
                assert a.tobytes() == b.tobytes()
            assert np.array_equal(got[3], np.ravel_multi_index((np.arange(rows), labels), logits.shape))

    def test_shifted_exp_nan_sign(self):
        # inf - inf gives a NaN with its sign bit set on x86; max(axis=1) may
        # drop that bit, by a path that depends on the SIMD width, where the
        # column maxima keep it. Only a NaN's sign may differ, and no output
        # shows one: a NaN gradient or loss ends a run, and both print "nan".
        def canonical(a):
            return np.where(np.isnan(a), np.nan, a).tobytes()

        logits = np.array([[np.inf, 1.0, 2.0], [2.0, 1.0, np.inf], [2.0, -0.0, 0.0]])
        with np.errstate(invalid="ignore"):
            logits[:2] -= np.inf
            z = logits - logits.max(axis=1, keepdims=True)
            got = _shifted_exp(logits, np.array([1, 2, 0]))
        e = np.exp(z)
        total = e.sum(axis=1, keepdims=True)
        want = (e, total, np.log(total[:, 0]) - z[[0, 1, 2], [1, 2, 0]])
        for a, b in zip(want, got):
            assert canonical(a) == canonical(b)
        assert np.isnan(got[2][:2]).all() and np.isfinite(got[2][2])

    def test_dim_mismatch(self):
        params = param_vector(np.zeros(8))
        with pytest.raises(ValueError, match="input dim 4 != model 3"):
            forward_loss(logistic(3, 2), params, np.zeros((2, 4)), np.zeros(2, dtype=int))


class TestBackward:
    @pytest.mark.parametrize(
        "arch", [logistic(5, 3), mlp(5, (4,), 3), mlp(3, (4, 3), 2)], ids=str
    )
    def test_matches_finite_differences(self, arch):
        r = rng(2)
        for _ in range(5):
            params = init_params(arch, r)
            inputs = r.random((7, arch.in_dim))
            labels = r.integers(0, arch.classes, size=7)
            grad, loss = backward(arch, params, inputs, labels)
            fd = finite_diff_gradient(arch, params, inputs, labels)
            denom = max(1.0, float(np.abs(fd).max()))
            assert np.abs(grad - fd).max() / denom < 1e-6
            assert loss == pytest.approx(forward_loss(arch, params, inputs, labels), rel=1e-12)

    @pytest.mark.parametrize(
        "arch", [logistic(5, 3), mlp(5, (4,), 3), mlp(3, (4, 3), 2), mlp(20, (32,), 10)], ids=str
    )
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_stacked_equals_separate_calls(self, arch, k):
        # k stacked batches give, bit for bit, the gradients and losses of
        # k separate 2-D calls
        r = rng(3)
        for batch in (1, 9, 128):
            params = init_params(arch, r)
            inputs = r.random((k, batch, arch.in_dim))
            labels = r.integers(0, arch.classes, size=(k, batch))
            grads, losses = backward(arch, params, inputs, labels)
            assert grads.shape == (k, arch.param_count)
            assert len(losses) == k
            for j in range(k):
                grad, loss = backward(arch, params, inputs[j], labels[j])
                assert np.array_equal(grads[j], grad)
                assert losses[j] == loss

    @pytest.mark.parametrize(
        "arch, k",
        [(arch, k) for arch in (logistic(20, 5), mlp(20, (32,), 5), mlp(20, (64, 32), 5))
         for k in (1, 10, 40)]
        # one (40*128, 784) product over the merged batches gives other bits
        # than these per-batch products here, though not at every shape
        + [(mlp(784, (64, 32), 10), 40)],
        ids=str,
    )
    def test_stacked_bytes_equal_per_batch_calls(self, arch, k):
        # every product stays per batch, so each row of a stack of 128-row
        # batches has the bytes of its own 2-D call
        r = rng(8)
        params = init_params(arch, r)
        inputs = r.random((k, 128, arch.in_dim))
        labels = r.integers(0, arch.classes, size=(k, 128))
        grads, losses = backward(arch, params, inputs, labels)
        for j in range(k):
            grad, loss = backward(arch, params, inputs[j], labels[j])
            assert grads[j].tobytes() == grad.tobytes()
            assert losses[j:j + 1].tobytes() == np.float64(loss).tobytes()

    @pytest.mark.parametrize(
        "arch", [logistic(5, 3), mlp(5, (4,), 3), mlp(3, (4, 3), 2), mlp(20, (32,), 10)], ids=str
    )
    def test_equals_textbook_backprop(self, arch):
        r = rng(4)
        for batch in (1, 9):
            params = init_params(arch, r)
            inputs = r.random((batch, arch.in_dim))
            labels = r.integers(0, arch.classes, size=batch)
            logits, acts = mlp_forward(params, arch.layer_sizes, inputs)
            e, total, _, _ = _shifted_exp(logits, labels)
            dlogits = e / total
            dlogits[np.arange(batch), labels] -= 1.0
            dlogits /= batch
            ref = textbook_backprop(params, arch.layer_sizes, acts, dlogits)
            assert backward(arch, params, inputs, labels)[0].tobytes() == ref.tobytes()


def test_mlp_forward_relu():
    # 1 -> 1 -> 1 with W=1, b per layer: hidden = relu(x + b1)
    sizes = (1, 1, 1)
    params = param_vector([1.0, -2.0, 1.0, 0.0])  # W1=1 b1=-2 W2=1 b2=0
    out, acts = mlp_forward(params, sizes, np.array([[1.0], [5.0]]))
    assert np.array_equal(out, [[0.0], [3.0]])
    assert np.array_equal(acts[1], [[0.0], [3.0]])


class TestApplyUpdate:
    def test_accept_applies_sgd(self):
        w = param_vector([1.0, 2.0])
        g = param_vector([0.5, -0.5])
        assert np.array_equal(apply_update(w, g, 0.1, 0), [0.95, 2.05])

    def test_reject_is_bit_identical(self):
        w = param_vector([1.0, np.pi, 1e-300])
        out = apply_update(w, param_vector([1e9, -1e9, 5.0]), 0.7, 1)
        assert out is w

    def test_validation(self):
        w = param_vector([1.0])
        with pytest.raises(ValueError, match="length mismatch: expected 1, got 2"):
            apply_update(w, param_vector([1.0, 2.0]), 0.1, 0)
        with pytest.raises(ValueError):
            apply_update(w, w, 0.0, 0)
        with pytest.raises(ValueError):
            apply_update(w, w, 0.1, 2)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_mask_property(self, seed):
        r = rng(seed, 77)
        w = param_vector(r.standard_normal(4))
        g = param_vector(r.standard_normal(4))
        alpha = float(r.uniform(1e-6, 10.0))
        assert apply_update(w, g, alpha, 1) is w
        assert np.array_equal(apply_update(w, g, alpha, 0), w - alpha * g)


class TestAdam:
    def test_first_step_hand_recurrence(self):
        s = adam_init(2, lr=0.1)
        p = np.array([1.0, -1.0])
        before = p.copy()
        g = param_vector([0.5, 0.2])
        adam_step(s, p, dense(g))
        # t=1: mhat = g, vhat = g^2, step = lr * g / (|g| + eps)
        expected = before - 0.1 * g / (np.abs(g) + 1e-8)
        assert np.allclose(p, expected, atol=1e-12)
        assert s.t == 1

    def test_two_steps_match_reference(self):
        # independent reimplementation of the bias-corrected recurrence
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        p = np.array([0.3, -0.7, 2.0])
        grads = [np.array([1.0, -2.0, 0.5]), np.array([-0.5, 0.25, 3.0])]
        m = np.zeros(3)
        v = np.zeros(3)
        ref = p.copy()
        for t, g in enumerate(grads, 1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        state = adam_init(3, lr=lr)
        cur = p.copy()
        for g in grads:
            adam_step(state, cur, dense(param_vector(g)))
        assert np.allclose(cur, ref, atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch: expected 2, got 1"):
            adam_step(adam_init(2), np.array([1.0, 2.0]), dense(param_vector([1.0])))
        with pytest.raises(ValueError, match="length mismatch: expected 8, got 7"):
            factored = FactoredGradient(np.ones(2), np.ones(3), np.ones(1))
            adam_step(adam_init(8), np.zeros(8), factored)

    @pytest.mark.parametrize("size", [1, 4097, 2 * ADAM_PART + 7])
    def test_dense_in_place_equals_textbook(self, size, monkeypatch):
        # every bit of params, m and v after 25 steps; a dense gradient has
        # no outer-product rows to split, so it is one part on any CPU count
        pin_cpus(monkeypatch, 2)
        calls = kernel_threads(monkeypatch)
        r = rng(4, size)
        lr = 0.003
        params = r.standard_normal(size)
        ref_m, ref_v, ref_p = np.zeros(size), np.zeros(size), params.copy()
        state = adam_init(size, lr=lr)
        for t in range(1, 26):
            grad = r.standard_normal(size) * np.exp(r.uniform(-20.0, 5.0, size))
            ref_m, ref_v, ref_p = textbook_adam(ref_m, ref_v, t, ref_p, grad, lr)
            adam_step(state, params, dense(grad))
        assert calls == [threading.get_ident()] * 25
        assert state.t == 25
        assert np.array_equal(params, ref_p)
        assert np.array_equal(state.m, ref_m)
        assert np.array_equal(state.v, ref_v)

    @pytest.mark.parametrize("bad", [1, 4099])
    def test_non_finite_weight_raises_at_its_coordinate(self, bad):
        # 1.7e308 moved by lr=1e308 in its gradient's descent direction
        # overflows to -inf; every other coordinate stays finite
        params = np.zeros(4101)
        params[bad] = -1.7e308
        grad = np.zeros_like(params)
        grad[bad] = 1.0
        with pytest.raises(NonFiniteValueError) as err, np.errstate(over="ignore"):
            adam_step(adam_init(params.shape[0], lr=1e308), params, dense(grad))
        assert err.value.index == bad

    @pytest.mark.parametrize(
        "rows, width, rest, cpus, parts",
        [
            (1, 64, 5, 2, 1),  # one row
            (1605, 48, 801, 2, 1),  # 48 does not divide the 1605-row layer's size
            (3, 1 << 16, 7, 2, 1),  # a few wide rows
            (21828, 48, 784, 2, 1),  # one row below 2 * ADAM_PART
            (21829, 48, 784, 2, 2),  # at it
            (21830, 48, 784, 2, 2),  # one row above
            (21830, 48, 784, 3, 2),  # a third CPU gets no part below 3 * ADAM_PART
            (32767, 48, 48, 3, 3),  # at 3 * ADAM_PART
            (25451, 64, 2177, 2, 2),  # the wide filter
            (2, 1 << 20, 3, 4, 4),  # four parts of two rows: two parts are empty
        ],
    )
    def test_fused_outer_product_equals_textbook(self, rows, width, rest, cpus, parts, monkeypatch):
        # every bit of params, m and v after 4 steps equals textbook Adam
        # on the written-out gradient [outer(x, delta), rest]; this thread
        # runs the last part, helper threads the others, and every helper
        # is joined when its step returns
        pin_cpus(monkeypatch, cpus)
        calls = kernel_threads(monkeypatch)
        size = rows * width + rest
        assert adam_parts(size) == parts
        r = rng(5, rows)
        lr = 0.003
        params = r.standard_normal(size)
        ref_m, ref_v, ref_p = np.zeros(size), np.zeros(size), params.copy()
        state = adam_init(size, lr=lr)
        threads = threading.active_count()
        for t in range(1, 5):
            x = r.standard_normal(rows) * np.exp(r.uniform(-10.0, 3.0, rows))
            delta = r.standard_normal(width)
            delta[::3] = 0.0  # a ReLU layer's delta has zeros
            grad = FactoredGradient(x, delta, r.standard_normal(rest))
            flat = np.concatenate([np.outer(x, delta).ravel(), grad.rest])
            ref_m, ref_v, ref_p = textbook_adam(ref_m, ref_v, t, ref_p, flat, lr)
            adam_step(state, params, grad)
            assert threading.active_count() == threads
            assert len(calls) == parts and calls.count(threading.get_ident()) == 1
            # a helper whose part is done may take the next one
            assert 1 + (parts > 1) <= len(set(calls)) <= parts
            calls.clear()
        assert params.tobytes() == ref_p.tobytes()
        assert state.m.tobytes() == ref_m.tobytes()
        assert state.v.tobytes() == ref_v.tobytes()

    @pytest.mark.parametrize(
        "bad",
        [
            [1000],  # in the helper's part
            [HELPER_END - 1],  # its last coordinate
            [HELPER_END],  # the last part's first coordinate
            [SPLIT[0] * SPLIT[1] + 5],  # in rest
            [HELPER_END, SPLIT[0] * SPLIT[1] + 5],  # twice in the last part
            [1000, SPLIT[0] * SPLIT[1] + 5],  # in both parts
            [HELPER_END - 1, HELPER_END],  # on both sides of the split
        ],
    )
    def test_split_non_finite_weight_raises_at_the_lowest_index(self, bad, monkeypatch):
        # a huge first moment sends each bad weight to -inf; the error
        # names the textbook's first non-finite coordinate, and every
        # coordinate before it is updated
        pin_cpus(monkeypatch, 2)
        rows, width, rest = SPLIT
        r = rng(10)
        params = r.standard_normal(rows * width + rest)
        state = adam_init(params.shape[0])
        state.m[bad] = 1e308
        grad = FactoredGradient(r.standard_normal(rows), r.standard_normal(width), r.standard_normal(rest))
        flat = np.concatenate([np.outer(grad.x, grad.delta).ravel(), grad.rest])
        with np.errstate(over="ignore"):
            _, _, ref = textbook_adam(state.m, state.v, 1, params, flat, state.lr)
            with pytest.raises(NonFiniteValueError) as err:
                adam_step(state, params, grad)
        assert err.value.index == int(np.argmin(np.isfinite(ref))) == min(bad)
        assert params[: min(bad)].tobytes() == ref[: min(bad)].tobytes()

    def test_a_helper_exception_reaches_the_caller(self, monkeypatch):
        # a kernel that fails in part 0, on the helper thread, fails the
        # step with its own exception, and the helper is joined
        pin_cpus(monkeypatch, 2)
        rows, width, rest = SPLIT
        params = np.zeros(rows * width + rest)

        def fail_in_part_0(args):
            if args[0] == params.ctypes.data:
                assert threading.current_thread() is not threading.main_thread()
                raise RuntimeError("part 0 failed")

        wrap_kernel(monkeypatch, fail_in_part_0)
        grad = FactoredGradient(np.ones(rows), np.ones(width), np.ones(rest))
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="part 0 failed"):
            adam_step(adam_init(params.shape[0]), params, grad)
        assert threading.active_count() == threads

    def test_one_cpu_keeps_the_bytes(self, monkeypatch):
        # the same steps on one CPU, in one part, and on two, where a helper
        # thread runs the first of two parts
        calls = kernel_threads(monkeypatch)
        rows, width, rest = SPLIT
        r = rng(11)
        start = r.standard_normal(rows * width + rest)
        grads = [
            FactoredGradient(r.standard_normal(rows), r.standard_normal(width), r.standard_normal(rest))
            for _ in range(3)
        ]
        results = []
        for cpus in (1, 2):
            pin_cpus(monkeypatch, cpus)
            params, state = start.copy(), adam_init(start.shape[0])
            for grad in grads:
                adam_step(state, params, grad)
            assert len(calls) == 3 * cpus and calls.count(threading.get_ident()) == 3
            calls.clear()
            results.append(params.tobytes() + state.m.tobytes() + state.v.tobytes())
        assert results[0] == results[1]

    @pytest.mark.parametrize("which", ["params", "m", "v"])
    @pytest.mark.parametrize("how", ["read-only", "non-contiguous"])
    def test_refuses_an_array_it_cannot_update_in_place(self, which, how):
        # the kernel writes params, m and v where they lie: it refuses a
        # read-only or strided one, never copies it, and changes nothing
        r = rng(8)
        arrays = {name: r.standard_normal(9) for name in ("params", "m", "v")}
        if how == "read-only":
            arrays[which].flags.writeable = False
        else:
            arrays[which] = np.repeat(arrays[which], 2)[::2]
        before = {name: a.tobytes() for name, a in arrays.items()}
        state = adam_init(9)
        state.m, state.v = arrays["m"], arrays["v"]
        with pytest.raises(ValueError, match=f"adam_step: {which} must"):
            adam_step(state, arrays["params"], dense(r.standard_normal(9)))
        assert {name: a.tobytes() for name, a in arrays.items()} == before
        assert state.t == 0

    def test_kernel_is_built_in_a_private_directory_when_the_cache_is_read_only(
        self, tmp_path, monkeypatch
    ):
        # a command of its own misses every cached build; the cache gains
        # no file, and the private directory is gone once the library is
        # loaded
        monkeypatch.setattr(kernels, "CC", (*kernels.CC, "-O2"))
        monkeypatch.setattr(kernels.os, "access", lambda path, mode: False)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        cache = kernels.SOURCE.parent / "__pycache__"
        cached = set(cache.iterdir())
        r = rng(9)
        params, grad = r.standard_normal(40), r.standard_normal(40)
        _, _, ref = textbook_adam(np.zeros(40), np.zeros(40), 1, params, grad, 0.001)
        adam_step(adam_init(40), params, dense(grad))
        assert params.tobytes() == ref.tobytes()
        assert set(cache.iterdir()) == cached
        assert list(tmp_path.iterdir()) == []

    def test_two_threads_build_a_fresh_kernel_at_once(self, tmp_path, monkeypatch):
        # both threads miss every cached build and compile the same library
        # into one directory at once; each builds under a name of its own,
        # so both load a whole library, and both steps equal textbook Adam
        source = tmp_path / "_kernels.c"
        source.write_bytes(kernels.SOURCE.read_bytes())
        monkeypatch.setattr(kernels, "SOURCE", source)
        monkeypatch.setattr(kernels, "CC", (*kernels.CC, "-DRGCF_TWO_THREAD_BUILD"))
        r = rng(12)
        params, grad = r.standard_normal(40), r.standard_normal(40)
        _, _, ref = textbook_adam(np.zeros(40), np.zeros(40), 1, params, grad, 0.001)
        barrier = threading.Barrier(2)

        def first_step():
            own = params.copy()
            barrier.wait()
            adam_step(adam_init(40), own, dense(grad))
            return own.tobytes()

        with ThreadPoolExecutor(2) as pool:
            steps = [pool.submit(first_step) for _ in range(2)]
            assert [f.result() for f in steps] == [ref.tobytes()] * 2
        assert [f.suffix for f in (tmp_path / "__pycache__").iterdir()] == [".so"]

    def test_sign_of_a_zero_gradient_never_reaches_the_weights(self):
        # np.multiply keeps a zero's sign where a BLAS product gives +0: the
        # same gradient with every zero's sign flipped leaves the same bytes
        r = rng(7)
        size = 8201
        params = r.standard_normal(size)
        params[::7] = -0.0
        flipped = params.copy()
        a, b = adam_init(size, lr=0.01), adam_init(size, lr=0.01)
        for t in range(6):
            grad = r.standard_normal(size)
            grad[r.random(size) < 0.5] = 0.0
            grad[: 100 * t] = 0.0  # zeros where m is already non-zero
            adam_step(a, params, dense(grad))
            adam_step(b, flipped, dense(np.where(grad == 0.0, -grad, grad)))
        assert params.tobytes() == flipped.tobytes()
        assert a.m.tobytes() == b.m.tobytes() and a.v.tobytes() == b.v.tobytes()


def test_server_model_validates_length():
    # logistic(3, 2) has 8 parameters; the length is checked on every pass
    with pytest.raises(ValueError, match=re.escape("flat vector length (7,) != expected 8")):
        backward(logistic(3, 2), param_vector(np.zeros(7)), np.zeros((2, 3)), np.zeros(2, dtype=int))
