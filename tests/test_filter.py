import ast
import os
import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rgcf import core, simulation
from rgcf.attacks import AttackSpec, apply_attack
from rgcf.core import NonFiniteValueError, param_vector, stream
from rgcf.data import synth_gaussian_blobs
from rgcf.filter import (
    HIDDEN,
    NO_START,
    PRED_CLAMP,
    FilterNet,
    _filter_input,
    filter_arch,
    filter_forward,
    filter_gradient,
    filter_init,
    filter_loss,
    filter_train_step,
    load_filter,
    save_filter,
    start_digest,
)
from rgcf.models import (
    ADAM_PART,
    adam_init,
    apply_update,
    init_params,
    logistic,
    mlp_forward,
)
from rgcf.simulation import server_start, train_filter, worker_step
from tests.conftest import DEFAULT_SPECS, backward_stack, minibatch, rng
from tests.test_data import spy_reads
from tests.test_models import textbook_adam, textbook_backprop


def writable(filt: FilterNet) -> FilterNet:
    """The filter with a writable copy of its weights, as training holds it."""
    return replace(filt, params=np.array(filt.params))


def dense_filter_gradient(filt, grad, loss, label, p):
    """filter_gradient's value with the gradient as one written-out vector,
    backpropagated by textbook whole-array expressions (the first weight
    gradient a K=1 matmul of the input row and delta), run as a batch of one."""
    x = _filter_input(filt, grad, loss)[None]
    z, acts = mlp_forward(filt.params, filt.layer_sizes, x)
    pred = 1.0 / (1.0 + np.exp(-z[0, 0]))
    q = min(max(pred, PRED_CLAMP), 1.0 - PRED_CLAMP)
    dq = -p / q if label == 1 else 1.0 / (1.0 - q)
    dz = np.array([[dq * pred * (1.0 - pred)]])
    grad = textbook_backprop(filt.params, filt.layer_sizes, acts, dz)
    return grad, filter_loss(pred, label, p), pred


def assembled(grad):
    """The flat gradient a FactoredGradient stands for."""
    return np.concatenate([np.outer(grad.x, grad.delta).ravel(), grad.rest])


def zero_filter(d):
    return FilterNet(d=d, params=param_vector(np.zeros(filter_arch(d).param_count)))


class TestForward:
    def test_zero_weights_give_half(self):
        filt = zero_filter(5)
        assert filter_forward(filt, np.ones(5), 1.0) == 0.5

    def test_matches_batched_training_forward(self):
        # a decision and a training step run one forward pass on the input
        # row, with the bits of the net run on a batch of one
        r = rng(11)
        for d in (8, 837):
            filt = filter_init(d, r)
            g = r.standard_normal(d)
            z, _ = mlp_forward(filt.params, filt.layer_sizes, _filter_input(filt, g, 0.3)[None])
            ref = float(1.0 / (1.0 + np.exp(-z[0, 0])))
            assert filter_forward(filt, g, 0.3) == ref
            assert filter_gradient(filt, g, 0.3, 1, 10.0)[2] == ref

    def test_a_training_step_runs_no_decision(self, monkeypatch):
        # filter_forward is the decision the tracer counts, so the training
        # path reaches the net through its own forward, with the same bits
        r = rng(13)
        filt = filter_init(8, r)
        g = r.standard_normal(8)
        ref = filter_forward(filt, g, 0.3)

        def no_decision(*args):
            raise AssertionError("a training step called filter_forward")

        monkeypatch.setattr("rgcf.filter.filter_forward", no_decision)
        assert filter_gradient(filt, g, 0.3, 1, 10.0)[2] == ref

    def test_normalized_input_is_direction_only(self):
        r = rng(12)
        filt = filter_init(8, r)
        g = r.standard_normal(8)
        assert filter_forward(filt, g, 0.3) == filter_forward(filt, 100.0 * g, 0.3)
        x = _filter_input(filt, 100.0 * g, 0.3)
        assert np.linalg.norm(x[:8]) == pytest.approx(np.sqrt(8))
        assert x[8] == 0.3

    def test_zero_gradient_passes_through(self):
        filt = filter_init(4, rng(13))
        assert 0.0 < filter_forward(filt, np.zeros(4), 0.1) < 1.0

    def test_rejects_wrong_dim_and_nonfinite_loss(self):
        filt = zero_filter(5)
        with pytest.raises(ValueError):
            filter_forward(filt, np.ones(4), 1.0)
        with pytest.raises(ValueError):
            filter_forward(filt, np.ones(5), float("inf"))


class TestLoss:
    def test_values_at_half(self):
        assert filter_loss(0.5, 1, 10.0) == pytest.approx(10.0 * np.log(2.0))
        assert filter_loss(0.5, 0, 10.0) == pytest.approx(np.log(2.0))

    def test_clamp_keeps_loss_finite(self):
        assert filter_loss(0.0, 1, 10.0) == pytest.approx(-10.0 * np.log(PRED_CLAMP))
        assert filter_loss(1.0, 0, 10.0) == pytest.approx(-np.log(PRED_CLAMP))

    def test_positive_weight_scales_byzantine_class(self):
        assert filter_loss(0.3, 1, 10.0) == pytest.approx(10.0 * filter_loss(0.3, 1, 1.0))


class TestTrainStep:
    def _example(self, r, d):
        """A (gradient, loss) pair as a worker sends it."""
        return param_vector(r.standard_normal(d)), 0.4

    def test_backprop_matches_finite_differences(self):
        r = rng(20)
        d = 6
        filt = filter_init(d, r)
        example = self._example(r, d)
        for label in (0, 1):
            x = _filter_input(filt, *example)[None]

            def loss_of(params):
                z, _ = mlp_forward(param_vector(params), filt.layer_sizes, x)
                pred = 1.0 / (1.0 + np.exp(-z[0, 0]))
                return filter_loss(pred, label, 10.0)

            # recover the analytic gradient from the Adam t=1 update direction:
            # step = lr * g / (|g| + eps), so sign and support must match FD
            adam = adam_init(filt.params.shape[0], lr=0.001)
            updated = writable(filt)
            filter_train_step(updated, adam, *example, label, 10.0)
            h = 1e-6
            base = np.array(filt.params)
            fd = np.empty_like(base)
            for j in range(base.shape[0]):
                wp, wm = base.copy(), base.copy()
                wp[j] += h
                wm[j] -= h
                fd[j] = (loss_of(wp) - loss_of(wm)) / (2 * h)
            step = np.array(filt.params) - np.array(updated.params)
            moved = np.abs(fd) > 1e-9
            assert np.all(np.sign(step[moved]) == np.sign(fd[moved]))

    def test_repeated_steps_reduce_loss(self):
        r = rng(21)
        filt = writable(filter_init(4, r))
        adam = adam_init(filt.params.shape[0], lr=0.01)
        example = self._example(r, 4)
        first, _ = filter_train_step(filt, adam, *example, 1, 10.0)
        for _ in range(49):
            last, _ = filter_train_step(filt, adam, *example, 1, 10.0)
        assert last < first

    def test_factored_gradient_equals_dense_textbook(self):
        # [outer(x, delta), rest] is the textbook gradient: byte-equal,
        # except that a BLAS product writes +0 where np.outer keeps a
        # zero's sign (which adam_step never lets reach the weights)
        r = rng(23)
        for d in (4, 300):
            filt = filter_init(d, r)
            jitter = 0.1 * r.standard_normal(filt.params.shape)
            filt = replace(filt, params=param_vector(filt.params + jitter))
            example = self._example(r, d)
            for label in (0, 1):
                grad, loss, pred = filter_gradient(filt, *example, label, 10.0)
                assert grad.x.shape == (d + 1,) and grad.delta.shape == (HIDDEN[0],)
                ref, ref_loss, ref_pred = dense_filter_gradient(filt, *example, label, 10.0)
                assert (assembled(grad) + 0.0).tobytes() == (ref + 0.0).tobytes()
                assert (loss, pred) == (ref_loss, ref_pred)

    @pytest.mark.parametrize("bad", [341, 40_000, 77_540, 1605 * 64 + 500])
    def test_non_finite_weight_raises_at_textbook_coordinate(self, bad):
        # a huge first moment sends one weight to -inf, in an early, a
        # middle or a late row of the 1605 x 64 first layer or in the
        # weights after it
        r = rng(24)
        filt = writable(filter_init(1604, r))
        example = self._example(r, 1604)
        adam = adam_init(filt.params.shape[0], lr=0.001)
        adam.m[bad] = 1e308
        grad, _, _ = dense_filter_gradient(filt, *example, 1, 10.0)
        with np.errstate(over="ignore"):
            _, _, ref = textbook_adam(adam.m, adam.v, 1, filt.params, grad, adam.lr)
            with pytest.raises(NonFiniteValueError) as err:
                filter_train_step(filt, adam, *example, 1, 10.0)
        assert err.value.index == int(np.argmin(np.isfinite(ref))) == bad

    def test_returns_pre_update_loss(self):
        r = rng(22)
        filt = filter_init(4, r)
        example = self._example(r, 4)
        pred = filter_forward(filt, *example)
        adam = adam_init(filt.params.shape[0], lr=0.001)
        loss, prob = filter_train_step(writable(filt), adam, *example, 0, 10.0)
        assert loss == pytest.approx(filter_loss(pred, 0, 10.0), abs=1e-9)
        assert prob == pytest.approx(pred, abs=1e-12)


class TestTrainFilter:
    def test_learns_on_blobs(self, blobs):
        arch = logistic(blobs.in_dim, blobs.classes)
        cfg = replace(DEFAULT_SPECS.filter_train, steps=300)
        filt, log = train_filter(cfg, blobs, arch, seed=5)
        assert len(log.losses) == 300
        assert log.running_accuracy[-1] > 0.8
        assert filt.d == arch.param_count

    def test_deterministic(self, blobs):
        arch = logistic(blobs.in_dim, blobs.classes)
        cfg = replace(DEFAULT_SPECS.filter_train, steps=50)
        a, la = train_filter(cfg, blobs, arch, seed=6)
        b, lb = train_filter(cfg, blobs, arch, seed=6)
        assert np.array_equal(a.params, b.params)
        assert la.losses == lb.losses

    def test_zero_steps_returns_init(self, blobs):
        arch = logistic(blobs.in_dim, blobs.classes)
        filt, log = train_filter(replace(DEFAULT_SPECS.filter_train, steps=0), blobs, arch, seed=6)
        ref = filter_init(arch.param_count, rng(6, 10))
        assert np.array_equal(filt.params, ref.params)
        assert log.losses == []

    def test_server_trajectory_ignores_filter_quality(self, blobs, monkeypatch):
        # Algorithm invariant: the simulated server is updated with the
        # ground-truth label, so the filter's own state (here: its lr) must
        # not change the worker picks and server losses it observes.
        arch = logistic(blobs.in_dim, blobs.classes)
        seen = []

        def recording(workers, *args):
            grads, losses = worker_step(workers, *args)
            seen[-1].append((workers[0].attack is not None, losses.tolist()))
            return grads, losses

        monkeypatch.setattr(simulation, "worker_step", recording)
        for lr in (0.002, 0.05):
            seen.append([])
            train_filter(replace(DEFAULT_SPECS.filter_train, steps=80, filter_lr=lr), blobs, arch, seed=7)
        assert len(seen[0]) == 80
        assert seen[0] == seen[1]

    def test_equals_textbook_reference_loop(self, monkeypatch):
        # a wide filter, 16405 x 64 first-layer weights, is above the
        # two-part split size: on two CPUs, the in-place training that
        # splits each Adam step must give the reference's bytes
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        data = synth_gaussian_blobs(4, 30, 4100, 8.0, rng(7, 42))
        arch = logistic(data.in_dim, data.classes)
        assert core.cpu_parts(filter_init(arch.param_count, rng(0)).params.shape[0], ADAM_PART) == 2
        cfg = replace(DEFAULT_SPECS.filter_train, steps=40, batch_size=16)
        filt, log = train_filter(cfg, data, arch, seed=3)
        ref, ref_losses = reference_train_filter(cfg, data, arch, seed=3)
        assert filt.params.tobytes() == ref.params.tobytes()
        assert log.losses == ref_losses
        assert not filt.params.flags.writeable

    def test_custom_attack_used(self, blobs, monkeypatch):
        # each Byzantine pick of stream SID_FILTER_PICK is one attack, the
        # configured one
        arch = logistic(blobs.in_dim, blobs.classes)
        cfg = replace(DEFAULT_SPECS.filter_train, steps=60, attack=AttackSpec("all_ones"))
        specs = []

        def recording(spec, *args):
            specs.append(spec)
            return apply_attack(spec, *args)

        monkeypatch.setattr(simulation, "apply_attack", recording)
        train_filter(cfg, blobs, arch, seed=8)
        pick_rng = stream(8, core.SID_FILTER_PICK)
        byzantine = sum(int(pick_rng.integers(0, 2)) for _ in range(60))
        assert 0 < byzantine < 60
        assert specs == [cfg.attack] * byzantine


def reference_train_filter(cfg, data, server_arch, seed):
    """train_filter's loop with a fresh frozen filter per step and the
    textbook whole-array Adam; returns the filter and the filter losses."""
    filt = filter_init(server_arch.param_count, stream(seed, core.SID_FILTER_INIT))
    m = v = np.zeros(filt.params.shape)
    params = init_params(server_arch, stream(seed, core.SID_SERVER_INIT))
    pick_rng = stream(seed, core.SID_FILTER_PICK)
    batch_rng = stream(seed, core.SID_FILTER_BATCH)
    attack_rng = stream(seed, core.SID_FILTER_ATTACK)
    losses = []
    for t in range(1, cfg.steps + 1):
        byz = int(pick_rng.integers(0, 2))
        inputs, labels = minibatch(data, np.arange(data.size), cfg.batch_size, batch_rng)
        (grad,), (server_loss,) = backward_stack(server_arch, params, inputs[None], labels[None])
        if byz:
            grad = apply_attack(cfg.attack, grad, attack_rng)
        grad = param_vector(grad)
        params = apply_update(params, grad, cfg.server_lr, byz)
        filter_grad, loss, _ = dense_filter_gradient(filt, grad, server_loss, byz, cfg.positive_weight)
        m, v, new = textbook_adam(m, v, t, filt.params, filter_grad, cfg.filter_lr)
        filt = replace(filt, params=param_vector(new))
        losses.append(loss)
    return filt, losses


class TestSerialization:
    def test_round_trip(self, tmp_path, blobs):
        arch = logistic(blobs.in_dim, blobs.classes)
        filt, _ = train_filter(replace(DEFAULT_SPECS.filter_train, steps=30), blobs, arch, seed=9)
        path = str(tmp_path / "f.rgcf")
        save_filter(filt, path)
        loaded = load_filter(path)
        assert np.array_equal(loaded.params, filt.params)
        assert loaded.d == filt.d
        # the file keeps the start the filter's training run started from
        assert loaded.start == filt.start == start_digest(server_start(arch, 9))
        assert loaded.start != NO_START
        g = rng(1).standard_normal(filt.d)
        assert filter_forward(loaded, g, 0.2) == filter_forward(filt, g, 0.2)

    def test_header_length(self, tmp_path):
        # magic, version and d (12 bytes), the 32-byte start digest, then
        # the weights of filter_arch(d)
        path = tmp_path / "f.rgcf"
        filt = replace(zero_filter(4), start=bytes(range(32)))
        save_filter(filt, str(path))
        blob = path.read_bytes()
        assert len(blob) == 44 + 8 * filter_arch(4).param_count
        assert struct.unpack_from("<4sII", blob) == (b"RGCF", 3, 4)
        assert blob[12:44] == filt.start
        assert load_filter(str(path)).start == filt.start

    def test_writes_the_weights_without_a_copy(self, tmp_path):
        # a 10 MB weight block goes to the file from the array's own
        # buffer: saving allocates far less than the block, and the file
        # holds the weights' little-endian bytes
        import tracemalloc

        filt = filter_init(20000, rng(3))
        path = str(tmp_path / "f.rgcf")
        tracemalloc.start()
        try:
            save_filter(filt, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert filt.params.nbytes > 10**7 and peak < 10**6
        assert Path(path).read_bytes()[44:] == filt.params.astype("<f8").tobytes()

    def test_other_format_versions(self, tmp_path):
        # version 1, which stored a threshold and a normalize byte, version
        # 2, which stored the layer sizes, and any later version are
        # refused: the message names the version and says to retrain
        path = tmp_path / "f.rgcf"
        save_filter(zero_filter(4), str(path))
        for version in (1, 2, 4):
            blob = bytearray(path.read_bytes())
            struct.pack_into("<I", blob, 4, version)  # the version follows the magic
            path.write_bytes(bytes(blob))
            message = f"{path}: unsupported format version {version}; retrain the filter"
            with pytest.raises(ValueError, match=re.escape(message)):
                load_filter(str(path))

    def test_cut_inside_the_start_digest(self, tmp_path):
        path = tmp_path / "f.rgcf"
        save_filter(zero_filter(4), str(path))
        # magic, version and d: 12 bytes, then the digest
        path.write_bytes(path.read_bytes()[: 12 + 20])
        with pytest.raises(ValueError, match=re.escape(f"{path}: truncated, expected 32 more bytes, got 20")):
            load_filter(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rgcf"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_filter(str(path))

    def test_truncated(self, tmp_path, blobs):
        arch = logistic(blobs.in_dim, blobs.classes)
        filt, _ = train_filter(replace(DEFAULT_SPECS.filter_train, steps=10), blobs, arch, seed=9)
        path = tmp_path / "f.rgcf"
        save_filter(filt, str(path))
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_filter(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "f.rgcf"
        save_filter(zero_filter(4), str(path))
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ValueError, match="truncated"):
            load_filter(str(path))

    def test_header_lengths_beyond_the_file_are_not_read(self, tmp_path, monkeypatch):
        # in a 77-byte file, d = 2**32 - 1 claims a 2.2 TB weight block: the
        # length is refused against the file's, so no read asks for more
        # than the file holds
        path = tmp_path / "f.rgcf"
        path.write_bytes(struct.pack("<4sII", b"RGCF", 3, 2**32 - 1) + bytes(65))
        sizes = spy_reads(monkeypatch, "rgcf.filter")
        message = f"{path}: truncated, expected {8 * filter_arch(2**32 - 1).param_count} more bytes, got 33"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_filter(str(path))
        assert 0 < max(sizes) <= 77

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "f.rgcf"
        save_filter(zero_filter(4), str(path))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_filter(str(path))


def test_config_validation():
    with pytest.raises(ValueError):
        replace(DEFAULT_SPECS.filter_train, positive_weight=0.0)
    with pytest.raises(ValueError):
        replace(DEFAULT_SPECS.filter_train, filter_lr=-1.0)
    with pytest.raises(ValueError):
        replace(DEFAULT_SPECS.filter_train, steps=-1)
    with pytest.raises(ValueError):
        replace(DEFAULT_SPECS.filter_train, batch_size=0)
    with pytest.raises(ValueError):
        FilterNet(d=3, params=param_vector(np.zeros(10)))


def test_decide_reference_checks_the_filter_widths():
    # perfbench's decide-1e5 checks each filter decision against a dense
    # reference net whose hidden widths it writes out; read, never edited
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    calls = [
        node
        for node in ast.walk(ast.parse(workloads.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "filter_probability"
    ]
    assert [ast.literal_eval(call.args[2]) for call in calls] == [HIDDEN]
