import struct
from dataclasses import replace

import numpy as np
import pytest

from rgcf import core
from rgcf.attacks import AttackSpec, apply_attack
from rgcf.core import GradientReport, NonFiniteValueError, param_vector, stream
from rgcf.data import sample_minibatch, synth_gaussian_blobs
from rgcf.filter import (
    PRED_CLAMP,
    FilterNet,
    _filter_input,
    classify,
    filter_forward,
    filter_gradient,
    filter_init,
    filter_loss,
    filter_train_step,
    load_filter,
    save_filter,
)
from rgcf.models import (
    ADAM_BLOCK,
    Architecture,
    adam_init,
    apply_update,
    backward,
    init_params,
    logistic,
    mlp_forward,
)
from rgcf.simulation import FilterTrainConfig, train_filter
from tests.conftest import rng
from tests.test_models import textbook_adam, textbook_backprop


def writable(filt: FilterNet) -> FilterNet:
    """The filter with a writable copy of its weights, as training holds it."""
    return replace(filt, params=np.array(filt.params))


def dense_filter_gradient(filt, report, label, p):
    """filter_gradient's value with the gradient as one written-out vector,
    backpropagated by textbook whole-array expressions (the first weight
    gradient a K=1 matmul of the input row and delta)."""
    x = _filter_input(filt, report.gradient, report.loss)
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


def zero_filter(d, hidden=(4, 3), threshold=0.5):
    count = Architecture(d + 1, hidden, 1).param_count
    return FilterNet(d=d, params=param_vector(np.zeros(count)), hidden=hidden, threshold=threshold)


class TestForward:
    def test_zero_weights_give_half(self):
        filt = zero_filter(5)
        assert filter_forward(filt, np.ones(5), 1.0) == 0.5

    def test_boundary_rejects(self):
        # B=1 at exactly the threshold: prefer dropping a borderline gradient.
        filt = zero_filter(5)
        assert classify(filt, np.ones(5), 1.0) == 1

    def test_matches_batched_training_forward(self):
        r = rng(11)
        filt = filter_init(8, r, hidden=(6, 4))
        g = r.standard_normal(8)
        z, _ = mlp_forward(filt.params, filt.layer_sizes, _filter_input(filt, g, 0.3))
        ref = float(1.0 / (1.0 + np.exp(-z[0, 0])))
        assert filter_forward(filt, g, 0.3) == pytest.approx(ref, abs=1e-12)

    def test_normalized_input_is_direction_only(self):
        r = rng(12)
        filt = filter_init(8, r)
        g = r.standard_normal(8)
        assert filter_forward(filt, g, 0.3) == filter_forward(filt, 100.0 * g, 0.3)
        x = _filter_input(filt, 100.0 * g, 0.3)[0]
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

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            filter_loss(0.5, 1, 0.0)


class TestTrainStep:
    def _report(self, r, d):
        return GradientReport(gradient=param_vector(r.standard_normal(d)), loss=0.4)

    def test_backprop_matches_finite_differences(self):
        r = rng(20)
        d = 6
        filt = filter_init(d, r, hidden=(5, 3))
        report = self._report(r, d)
        for label in (0, 1):
            x = _filter_input(filt, report.gradient, report.loss)

            def loss_of(params):
                z, _ = mlp_forward(param_vector(params), filt.layer_sizes, x)
                pred = 1.0 / (1.0 + np.exp(-z[0, 0]))
                return filter_loss(pred, label, 10.0)

            # recover the analytic gradient from the Adam t=1 update direction:
            # step = lr * g / (|g| + eps), so sign and support must match FD
            adam = adam_init(filt.params.shape[0])
            updated = writable(filt)
            filter_train_step(updated, adam, report.gradient, report.loss, label, 10.0)
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
        report = self._report(r, 4)
        first, _ = filter_train_step(filt, adam, report.gradient, report.loss, 1, 10.0)
        for _ in range(49):
            last, _ = filter_train_step(filt, adam, report.gradient, report.loss, 1, 10.0)
        assert last < first

    @pytest.mark.parametrize("hidden", [(64, 32), (48, 16), (5, 3)])
    def test_factored_gradient_equals_dense_textbook(self, hidden):
        # [outer(x, delta), rest] is the textbook gradient: byte-equal,
        # except that a BLAS product writes +0 where np.outer keeps a
        # zero's sign (which adam_step never lets reach the weights)
        r = rng(23)
        for d in (4, 300):
            filt = filter_init(d, r, hidden=hidden)
            jitter = 0.1 * r.standard_normal(filt.params.shape)
            filt = replace(filt, params=param_vector(filt.params + jitter))
            report = self._report(r, d)
            for label in (0, 1):
                grad, loss, pred = filter_gradient(filt, report.gradient, report.loss, label, 10.0)
                assert grad.x.shape == (d + 1,) and grad.delta.shape == (hidden[0],)
                ref, ref_loss, ref_pred = dense_filter_gradient(filt, report, label, 10.0)
                assert (assembled(grad) + 0.0).tobytes() == (ref + 0.0).tobytes()
                assert (loss, pred) == (ref_loss, ref_pred)

    @pytest.mark.parametrize("bad", [341, 40_000, 1605 * 48 + 500])
    def test_non_finite_weight_raises_at_textbook_coordinate(self, bad):
        # hidden width 48 does not divide ADAM_BLOCK (682 rows per block),
        # and the 1605 x 48 first layer ends partway through its third
        # block; a huge first moment sends one weight to -inf, in the first
        # or second block of the first layer or in the weights after it
        r = rng(24)
        filt = writable(filter_init(1604, r, hidden=(48, 16)))
        report = self._report(r, 1604)
        adam = adam_init(filt.params.shape[0])
        adam.m[bad] = 1e308
        grad, _, _ = dense_filter_gradient(filt, report, 1, 10.0)
        with np.errstate(over="ignore"):
            _, _, ref = textbook_adam(adam.m, adam.v, 1, filt.params, grad, adam.lr)
            with pytest.raises(NonFiniteValueError) as err:
                filter_train_step(filt, adam, report.gradient, report.loss, 1, 10.0)
        assert err.value.index == int(np.argmin(np.isfinite(ref))) == bad

    def test_returns_pre_update_loss(self):
        r = rng(22)
        filt = filter_init(4, r)
        report = self._report(r, 4)
        pred = filter_forward(filt, report.gradient, report.loss)
        adam = adam_init(filt.params.shape[0])
        loss, prob = filter_train_step(writable(filt), adam, report.gradient, report.loss, 0, 10.0)
        assert loss == pytest.approx(filter_loss(pred, 0, 10.0), abs=1e-9)
        assert prob == pytest.approx(pred, abs=1e-12)


class TestTrainFilter:
    def test_learns_on_blobs(self, blobs):
        arch = logistic(blobs.in_dim, blobs.classes)
        cfg = FilterTrainConfig(steps_per_episode=300)
        filt, log = train_filter(cfg, blobs, arch, seed=5)
        assert len(log.steps) == 300
        assert log.running_accuracy[-1] > 0.8
        assert filt.d == arch.param_count

    def test_deterministic(self, blobs):
        arch = logistic(blobs.in_dim, blobs.classes)
        cfg = FilterTrainConfig(steps_per_episode=50)
        a, la = train_filter(cfg, blobs, arch, seed=6)
        b, lb = train_filter(cfg, blobs, arch, seed=6)
        assert np.array_equal(a.params, b.params)
        assert la.losses == lb.losses

    def test_zero_steps_returns_init(self, blobs):
        arch = logistic(blobs.in_dim, blobs.classes)
        filt, log = train_filter(FilterTrainConfig(steps_per_episode=0), blobs, arch, seed=6)
        ref = filter_init(arch.param_count, rng(6, 10))
        assert np.array_equal(filt.params, ref.params)
        assert log.steps == []

    def test_server_trajectory_ignores_filter_quality(self, blobs):
        # Algorithm invariant: the simulated server is updated with the
        # ground-truth label, so the filter's own state (here: its lr) must
        # not change the server losses it observes.
        arch = logistic(blobs.in_dim, blobs.classes)
        _, la = train_filter(FilterTrainConfig(steps_per_episode=80, filter_lr=0.002), blobs, arch, seed=7)
        _, lb = train_filter(FilterTrainConfig(steps_per_episode=80, filter_lr=0.05), blobs, arch, seed=7)
        assert la.server_losses == lb.server_losses
        assert la.labels == lb.labels

    def test_equals_textbook_reference_loop(self):
        # a first filter layer of 64 x 1605 weights spans four Adam blocks;
        # the in-place, blocked training must give the reference's bytes
        data = synth_gaussian_blobs(4, 30, 400, 8.0, rng(7, 42))
        arch = logistic(data.in_dim, data.classes)
        assert 64 * (arch.param_count + 1) > 3 * ADAM_BLOCK
        cfg = FilterTrainConfig(episodes=2, steps_per_episode=20, batch_size=16)
        filt, log = train_filter(cfg, data, arch, seed=3)
        ref, ref_losses = reference_train_filter(cfg, data, arch, seed=3)
        assert filt.params.tobytes() == ref.params.tobytes()
        assert log.losses == ref_losses
        assert not filt.params.flags.writeable

    def test_custom_attack_used(self, blobs):
        arch = logistic(blobs.in_dim, blobs.classes)
        cfg = FilterTrainConfig(steps_per_episode=60, attack=AttackSpec("all_ones"))
        _, log = train_filter(cfg, blobs, arch, seed=8)
        assert 0 < sum(log.labels) < 60


def reference_train_filter(cfg, data, server_arch, seed):
    """train_filter's loop with a fresh frozen filter per step and the
    textbook whole-array Adam; returns the filter and the filter losses."""
    filt = filter_init(server_arch.param_count, stream(seed, core.SID_FILTER_INIT), threshold=cfg.threshold)
    m = v = np.zeros(filt.params.shape)
    t = 0
    init_rng = stream(seed, core.SID_SERVER_INIT)
    pick_rng = stream(seed, core.SID_FILTER_PICK)
    batch_rng = stream(seed, core.SID_FILTER_BATCH)
    attack_rng = stream(seed, core.SID_FILTER_ATTACK)
    losses = []
    for _episode in range(cfg.episodes):
        params = init_params(server_arch, init_rng)
        for _t in range(cfg.steps_per_episode):
            byz = int(pick_rng.integers(0, 2))
            inputs, labels = sample_minibatch(data, np.arange(data.size), cfg.batch_size, batch_rng)
            grad, server_loss = backward(server_arch, params, inputs, labels)
            if byz:
                grad = apply_attack(cfg.attack, grad, attack_rng)
            report = GradientReport(param_vector(grad), server_loss)
            params = apply_update(params, report.gradient, cfg.server_lr, byz)
            filter_grad, loss, _ = dense_filter_gradient(filt, report, byz, cfg.positive_weight)
            t += 1
            m, v, new = textbook_adam(m, v, t, filt.params, filter_grad, cfg.filter_lr)
            filt = replace(filt, params=param_vector(new))
            losses.append(loss)
    return filt, losses


class TestSerialization:
    def test_round_trip(self, tmp_path, blobs):
        arch = logistic(blobs.in_dim, blobs.classes)
        filt, _ = train_filter(FilterTrainConfig(steps_per_episode=30), blobs, arch, seed=9)
        path = str(tmp_path / "f.rgcf")
        save_filter(filt, path)
        loaded = load_filter(path)
        assert np.array_equal(loaded.params, filt.params)
        assert loaded.d == filt.d
        assert loaded.hidden == filt.hidden
        assert loaded.threshold == filt.threshold
        g = rng(1).standard_normal(filt.d)
        assert filter_forward(loaded, g, 0.2) == filter_forward(filt, g, 0.2)

    def test_normalize_byte_must_be_one(self, tmp_path):
        # the byte after the threshold is always 1 (direction-only input);
        # a file with 0 there asks for a raw input mode that does not exist
        path = tmp_path / "f.rgcf"
        save_filter(zero_filter(4), str(path))
        blob = bytearray(path.read_bytes())
        # magic, version, d, size count, four sizes, threshold: 40 bytes
        assert blob[40] == 1
        blob[40] = 0
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="normalize byte 0"):
            load_filter(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rgcf"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_filter(str(path))

    def test_truncated(self, tmp_path, blobs):
        arch = logistic(blobs.in_dim, blobs.classes)
        filt, _ = train_filter(FilterTrainConfig(steps_per_episode=10), blobs, arch, seed=9)
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

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "f.rgcf"
        save_filter(zero_filter(4), str(path))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_filter(str(path))

    def test_layer_sizes_must_fit_d(self, tmp_path):
        path = tmp_path / "f.rgcf"
        save_filter(zero_filter(4), str(path))
        blob = bytearray(path.read_bytes())
        # sizes start after magic, version, d and the size count: (5, 4, 3, 1)
        for index, wrong in ((0, 6), (3, 2)):
            bad = bytearray(blob)
            struct.pack_into("<I", bad, 16 + 4 * index, wrong)
            path.write_bytes(bytes(bad))
            with pytest.raises(ValueError, match="layer sizes"):
                load_filter(str(path))
        # a zero-width hidden layer: sizes (5, 0, 1) hold one weight, an
        # output bias, so the net would score every gradient alike
        header = struct.pack("<4sIII3Id", b"RGCF", 1, 4, 3, 5, 0, 1, 0.5)
        path.write_bytes(header + struct.pack("<Bd", 1, 3.0))
        with pytest.raises(ValueError, match="layer sizes"):
            load_filter(str(path))


def test_config_validation():
    with pytest.raises(ValueError):
        FilterTrainConfig(positive_weight=0.0)
    with pytest.raises(ValueError):
        FilterTrainConfig(filter_lr=-1.0)
    with pytest.raises(ValueError):
        FilterTrainConfig(episodes=-1)
    with pytest.raises(ValueError):
        FilterTrainConfig(batch_size=0)
    for threshold in (0.0, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="threshold"):
            FilterTrainConfig(threshold=threshold)
    with pytest.raises(ValueError):
        FilterNet(d=3, params=param_vector(np.zeros(10)))
