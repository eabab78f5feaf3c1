import numpy as np
import pytest

from rgcf import core, simulation
from rgcf.aggregators import AggregatorSpec
from rgcf.attacks import AttackSpec, apply_attack
from rgcf.core import param_vector, stream
from rgcf.data import sample_minibatch, shard
from rgcf.filter import FilterNet
from rgcf.models import (
    Architecture,
    apply_update,
    backward,
    init_params,
    logistic,
    mlp,
)
from rgcf.simulation import (
    RunConfig,
    WorkerSpec,
    bench_filtering,
    build_workers,
    evaluate,
    run_aggregated,
    run_rgcf,
    worker_step,
)
from tests.conftest import rng


def accept_all_filter(d):
    # zero weights except a strongly negative output bias: prediction ~0,
    # so every gradient is accepted
    count = Architecture(d + 1, (64, 32), 1).param_count
    params = np.zeros(count)
    params[-1] = -50.0
    return FilterNet(d=d, params=param_vector(params))


def reject_all_filter(d):
    count = Architecture(d + 1, (64, 32), 1).param_count
    params = np.zeros(count)
    params[-1] = 50.0
    return FilterNet(d=d, params=param_vector(params))


def run_config(**kw):
    defaults = dict(
        n_workers=4,
        byzantine_fraction=0.5,
        attack=AttackSpec("inverse"),
        steps=30,
        seed=3,
        eval_every=10,
        batch_size=16,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestRunConfig:
    def test_byzantine_count_rounds(self):
        assert run_config(n_workers=10, byzantine_fraction=0.33).byzantine_count == 3
        assert run_config(n_workers=10, byzantine_fraction=0.9).byzantine_count == 9
        assert run_config(n_workers=3, byzantine_fraction=0.5).byzantine_count == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            run_config(byzantine_fraction=1.5)
        with pytest.raises(ValueError):
            run_config(steps=0)
        with pytest.raises(ValueError):
            run_config(batch_size=0)
        for lr in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="server_lr"):
                run_config(server_lr=lr)


class TestWorkers:
    def test_build_workers_fixes_byzantine_subset(self, blobs):
        cfg = run_config(n_workers=4, byzantine_fraction=0.5)
        workers = build_workers(cfg, blobs)
        assert sum(w.byzantine for w in workers) == 2
        again = build_workers(cfg, blobs)
        assert [w.byzantine for w in workers] == [w.byzantine for w in again]

    def test_shards_cover_data(self, blobs):
        workers = build_workers(run_config(), blobs)
        assert sum(w.shard.size for w in workers) == blobs.size

    def test_worker_step_keeps_loss_honest(self, blobs):
        arch = logistic(blobs.in_dim, blobs.classes)
        params = init_params(arch, rng(1))
        honest = WorkerSpec(blobs, None, rng(2), rng(3))
        byz = WorkerSpec(blobs, AttackSpec("inverse"), rng(2), rng(3))
        [rh] = worker_step([honest], params, arch, 8)
        [rb] = worker_step([byz], params, arch, 8)
        assert rb.loss == rh.loss
        assert np.array_equal(rb.gradient, -rh.gradient)

    def test_gradient_is_frozen(self, blobs):
        # the report's gradient is the one frozen copy, honest or attacked
        arch = logistic(blobs.in_dim, blobs.classes)
        params = init_params(arch, rng(3))
        for attack in (None, AttackSpec("inverse")):
            w = WorkerSpec(blobs, attack, rng(2), rng(3))
            assert not worker_step([w], params, arch, 8)[0].gradient.flags.writeable

    @pytest.mark.parametrize("hidden", [(), (8,)], ids=["logistic", "mlp"])
    def test_worker_step_equals_per_worker_replay(self, blobs, hidden):
        # one stacked turn of a mixed pool (honest workers plus all four
        # attacks, shards of unequal size) sends, bit for bit, what each
        # worker sends on its own: its batch from its stream, a 2-D
        # backward, then its attack from its own attack stream, in order
        arch = mlp(blobs.in_dim, hidden, blobs.classes)
        shards = shard(blobs, 7, rng(4))
        assert len({s.size for s in shards}) == 2
        attacks = [None, AttackSpec("random_gaussian"), AttackSpec("inverse"), None,
                   AttackSpec("all_ones"), AttackSpec("gradient_shift"), None]

        def streams(i):
            return rng(6, core.SID_WORKER_BATCH + i), rng(6, core.SID_WORKER_ATTACK + i)

        workers = [WorkerSpec(s, a, *streams(i)) for i, (s, a) in enumerate(zip(shards, attacks))]
        replays = [streams(i) for i in range(7)]
        params = init_params(arch, rng(5))
        for picked in (range(7), range(2, 6), [5], range(7)):
            reports = worker_step([workers[i] for i in picked], params, arch, 16)
            assert len(reports) == len(picked)
            for i, report in zip(picked, reports):
                w, (batch_rng, attack_rng) = workers[i], replays[i]
                inputs, labels = sample_minibatch(w.shard, 16, batch_rng)
                grad, loss = backward(arch, params, inputs, labels)
                if w.attack is not None:
                    grad = apply_attack(w.attack, grad, attack_rng)
                assert np.array_equal(report.gradient, grad)
                assert report.loss == loss

    def test_worker_spec_validation(self, blobs):
        # every worker owns its two streams from the table in core, and the
        # RunConfig refuses an empty batch and a worker count whose stream
        # ranges would meet
        workers = build_workers(run_config(seed=3), blobs)
        for i, w in enumerate(workers):
            assert np.array_equal(w.batch_rng.random(4), rng(3, core.SID_WORKER_BATCH + i).random(4))
            assert np.array_equal(w.attack_rng.random(4), rng(3, core.SID_WORKER_ATTACK + i).random(4))
        with pytest.raises(ValueError, match="batch_size"):
            build_workers(run_config(batch_size=0), blobs)
        run_config(n_workers=core.MAX_WORKERS)
        with pytest.raises(ValueError, match="n_workers"):
            run_config(n_workers=core.MAX_WORKERS + 1)


class TestRunRgcf:
    def test_transfer_counter_one_per_step(self, blobs, blobs_val):
        arch = logistic(blobs.in_dim, blobs.classes)
        m = run_rgcf(run_config(), blobs, blobs_val, arch, accept_all_filter(arch.param_count))
        assert m.transferred_gradients == 30
        assert len(m.steps) == 30

    def test_deterministic(self, blobs, blobs_val):
        arch = logistic(blobs.in_dim, blobs.classes)
        filt = accept_all_filter(arch.param_count)
        a = run_rgcf(run_config(), blobs, blobs_val, arch, filt)
        b = run_rgcf(run_config(), blobs, blobs_val, arch, filt)
        assert np.array_equal(a.final_params, b.final_params)
        assert a.val_accuracies == b.val_accuracies

    def test_reject_all_leaves_params_untouched(self, blobs, blobs_val):
        arch = logistic(blobs.in_dim, blobs.classes)
        m = run_rgcf(run_config(), blobs, blobs_val, arch, reject_all_filter(arch.param_count))
        assert m.accepted_updates == 0
        assert np.array_equal(m.final_params, m.initial_params)

    def test_ground_truth_mode_is_error_free(self, blobs, blobs_val):
        arch = logistic(blobs.in_dim, blobs.classes)
        m = run_rgcf(
            run_config(), blobs, blobs_val, arch, reject_all_filter(arch.param_count),
            ground_truth=True,
        )
        assert m.rejected_honest == 0
        assert m.accepted_byz == 0
        assert m.accepted_honest + m.rejected_byz == 30

    def test_accept_all_single_worker_equals_plain_sgd(self, blobs, blobs_val):
        # white-box stream replay: one honest worker plus an accept-all
        # filter must reduce to an unfiltered SGD loop
        arch = logistic(blobs.in_dim, blobs.classes)
        cfg = run_config(n_workers=1, byzantine_fraction=0.0, steps=20)
        m = run_rgcf(cfg, blobs, blobs_val, arch, accept_all_filter(arch.param_count))
        local = shard(blobs, 1, stream(cfg.seed, core.SID_SHARD))[0]
        batch_rng = stream(cfg.seed, core.SID_WORKER_BATCH)
        params = init_params(arch, stream(cfg.seed, core.SID_SERVER_INIT))
        for _ in range(20):
            inputs, labels = sample_minibatch(local, cfg.batch_size, batch_rng)
            grad, _ = backward(arch, params, inputs, labels)
            params = apply_update(params, grad, cfg.server_lr, 0)
        assert np.array_equal(m.final_params, params)

    def test_ground_truth_is_the_picked_workers_role(self, blobs, blobs_val):
        # white-box stream replay: each step's ground truth is whether the
        # worker picked from its stream is one of the fixed Byzantine workers
        arch = logistic(blobs.in_dim, blobs.classes)
        cfg = run_config()
        m = run_rgcf(cfg, blobs, blobs_val, arch, reject_all_filter(arch.param_count))
        workers = build_workers(cfg, blobs)
        pick_rng = stream(cfg.seed, core.SID_WORKER_PICK)
        picks = [int(pick_rng.integers(0, cfg.n_workers)) for _ in range(cfg.steps)]
        assert m.ground_truths == [int(workers[i].byzantine) for i in picks]
        assert 0 < sum(m.ground_truths) < cfg.steps

    def test_confusion_counts_sum_to_steps(self, blobs, blobs_val):
        arch = logistic(blobs.in_dim, blobs.classes)
        m = run_rgcf(run_config(), blobs, blobs_val, arch, accept_all_filter(arch.param_count))
        total = m.accepted_honest + m.rejected_honest + m.accepted_byz + m.rejected_byz
        assert total == 30

    def test_filter_dim_mismatch(self, blobs, blobs_val):
        arch = logistic(blobs.in_dim, blobs.classes)
        with pytest.raises(ValueError):
            run_rgcf(run_config(), blobs, blobs_val, arch, accept_all_filter(7))


class TestRunAggregated:
    def agg_config(self, **kw):
        return run_config(aggregator=AggregatorSpec("mean"), **kw)

    def test_transfer_counter_n_per_step(self, blobs, blobs_val):
        arch = logistic(blobs.in_dim, blobs.classes)
        m = run_aggregated(self.agg_config(), blobs, blobs_val, arch)
        assert m.transferred_gradients == 30 * 4

    def test_clean_mean_learns(self, blobs, blobs_val):
        arch = logistic(blobs.in_dim, blobs.classes)
        m = run_aggregated(self.agg_config(byzantine_fraction=0.0, steps=200), blobs, blobs_val, arch)
        assert m.val_accuracies[-1] > 0.9
        assert not m.diverged

    def test_deterministic(self, blobs, blobs_val):
        arch = logistic(blobs.in_dim, blobs.classes)
        a = run_aggregated(self.agg_config(), blobs, blobs_val, arch)
        b = run_aggregated(self.agg_config(), blobs, blobs_val, arch)
        assert np.array_equal(a.final_params, b.final_params)

    def test_clean_mean_equals_plain_sgd(self, blobs, blobs_val):
        # white-box stream replay: three honest workers under the mean rule
        # must reduce to SGD on the mean of their gradients
        arch = logistic(blobs.in_dim, blobs.classes)
        cfg = self.agg_config(n_workers=3, byzantine_fraction=0.0, steps=20)
        m = run_aggregated(cfg, blobs, blobs_val, arch)
        shards = shard(blobs, 3, stream(cfg.seed, core.SID_SHARD))
        batch_rngs = [stream(cfg.seed, core.SID_WORKER_BATCH + i) for i in range(3)]
        params = init_params(arch, stream(cfg.seed, core.SID_SERVER_INIT))
        for _ in range(20):
            grads = [
                backward(arch, params, *sample_minibatch(s, cfg.batch_size, r))[0]
                for s, r in zip(shards, batch_rngs)
            ]
            params = params - cfg.server_lr * np.stack(grads).mean(axis=0)
        assert np.array_equal(m.final_params, params)

    def test_divergence_sets_flag_instead_of_raising(self, blobs, blobs_val):
        arch = mlp(blobs.in_dim, (8,), blobs.classes)
        cfg = self.agg_config(
            byzantine_fraction=1.0, attack=AttackSpec("gradient_shift", 1e200), steps=10
        )
        m = run_aggregated(cfg, blobs, blobs_val, arch)
        assert m.diverged
        assert len(m.steps) < 10

    def test_overflowing_loss_sets_diverged(self, blobs, blobs_val):
        # once the parameters overflow, a worker can report a finite
        # gradient with an infinite loss: that is divergence too
        arch = mlp(blobs.in_dim, (32,), blobs.classes)
        for kind in ("gradient_shift", "random_gaussian"):
            cfg = self.agg_config(attack=AttackSpec(kind, 1e156), steps=60)
            m = run_aggregated(cfg, blobs, blobs_val, arch)
            assert m.diverged
            assert len(m.steps) < 60

    def test_other_errors_propagate(self, blobs, blobs_val, monkeypatch):
        # only a non-finite value means divergence; any other ValueError
        # inside a step (a shape bug, say) is a failure, not a diverged run
        def broken_step(*args):
            raise ValueError("shape bug")

        monkeypatch.setattr(simulation, "worker_step", broken_step)
        arch = logistic(blobs.in_dim, blobs.classes)
        with pytest.raises(ValueError, match="shape bug"):
            run_aggregated(self.agg_config(), blobs, blobs_val, arch)


class TestEvaluate:
    def test_uniform_model(self, blobs_val):
        arch = logistic(blobs_val.in_dim, blobs_val.classes)
        acc, loss = evaluate(arch, param_vector(np.zeros(arch.param_count)), blobs_val)
        # all-zero logits: argmax picks class 0 everywhere
        assert acc == pytest.approx(np.mean(blobs_val.labels == 0))
        assert loss == pytest.approx(np.log(blobs_val.classes))

    def test_dim_mismatch(self, blobs_val):
        arch = logistic(blobs_val.in_dim + 1, blobs_val.classes)
        with pytest.raises(ValueError):
            evaluate(arch, param_vector(np.zeros(arch.param_count)), blobs_val)


class TestBench:
    def test_returns_positive_times(self):
        mean, std = bench_filtering("rgcf", 10, 50, 10)
        assert mean > 0.0 and std >= 0.0
        mean, _ = bench_filtering("krum", 6, 50, 10, f_count=1)
        assert mean > 0.0

    def test_reps_floor(self):
        with pytest.raises(ValueError):
            bench_filtering("rgcf", 10, 50, 5)

    def test_infeasible_aggregator(self):
        with pytest.raises(ValueError):
            bench_filtering("bulyan", 5, 10, 10, f_count=1)
