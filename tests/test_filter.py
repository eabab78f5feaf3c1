import struct

import numpy as np
import pytest

from rgcf.attacks import AttackSpec
from rgcf.core import GradientReport, param_vector
from rgcf.filter import (
    PRED_CLAMP,
    FilterNet,
    FilterTrainConfig,
    classify,
    filter_forward,
    filter_init,
    filter_loss,
    filter_train_step,
    load_filter,
    save_filter,
    train_filter,
)
from rgcf.models import Architecture, adam_init, logistic, mlp_forward
from tests.conftest import rng


def zero_filter(d, hidden=(4, 3), threshold=0.5, normalize=True):
    count = Architecture(d + 1, hidden, 1).param_count
    return FilterNet(
        d=d,
        params=param_vector(np.zeros(count)),
        hidden=hidden,
        threshold=threshold,
        normalize=normalize,
    )


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
        from rgcf.filter import _filter_input

        z, _ = mlp_forward(filt.params, filt.layer_sizes, _filter_input(filt, g, 0.3))
        ref = float(1.0 / (1.0 + np.exp(-z[0, 0])))
        assert filter_forward(filt, g, 0.3) == pytest.approx(ref, abs=1e-12)

    def test_normalized_input_is_direction_only(self):
        r = rng(12)
        filt = filter_init(8, r)
        g = r.standard_normal(8)
        assert filter_forward(filt, g, 0.3) == filter_forward(filt, 100.0 * g, 0.3)
        raw = filter_init(8, rng(12), normalize=False)
        assert filter_forward(raw, g, 0.3) != filter_forward(raw, 100.0 * g, 0.3)

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
        from rgcf.filter import _filter_input

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
            updated, _, _ = filter_train_step(filt, adam, report, label, 10.0)
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
        filt = filter_init(4, r)
        adam = adam_init(filt.params.shape[0], lr=0.01)
        report = self._report(r, 4)
        _, _, first = filter_train_step(filt, adam, report, 1, 10.0)
        for _ in range(50):
            filt, adam, last = filter_train_step(filt, adam, report, 1, 10.0)
        assert last < first

    def test_returns_pre_update_loss(self):
        r = rng(22)
        filt = filter_init(4, r)
        report = self._report(r, 4)
        pred = filter_forward(filt, report.gradient, report.loss)
        adam = adam_init(filt.params.shape[0])
        _, _, loss = filter_train_step(filt, adam, report, 0, 10.0)
        assert loss == pytest.approx(filter_loss(pred, 0, 10.0), abs=1e-9)


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

    def test_custom_attack_used(self, blobs):
        arch = logistic(blobs.in_dim, blobs.classes)
        cfg = FilterTrainConfig(steps_per_episode=60, attack=AttackSpec("all_ones"))
        _, log = train_filter(cfg, blobs, arch, seed=8)
        assert 0 < sum(log.labels) < 60


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
        assert loaded.normalize == filt.normalize
        g = rng(1).standard_normal(filt.d)
        assert filter_forward(loaded, g, 0.2) == filter_forward(filt, g, 0.2)

    def test_normalize_flag_round_trips_off(self, tmp_path):
        filt = zero_filter(4, normalize=False)
        path = str(tmp_path / "f.rgcf")
        save_filter(filt, path)
        assert load_filter(path).normalize is False

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


def test_config_validation():
    with pytest.raises(ValueError):
        FilterTrainConfig(positive_weight=0.0)
    with pytest.raises(ValueError):
        FilterTrainConfig(filter_lr=-1.0)
    with pytest.raises(ValueError):
        FilterTrainConfig(episodes=-1)
    with pytest.raises(ValueError):
        FilterNet(d=3, params=param_vector(np.zeros(10)))
