import itertools
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rgcf import core, filter, models, simulation
from rgcf.aggregators import AggregatorSpec
from rgcf.attacks import ATTACK_KINDS, AttackSpec, apply_attack
from rgcf.cli import build_arch, load_train, load_val
from rgcf.core import NonFiniteValueError, param_vector, stream
from rgcf.data import Dataset, shard, synth_gaussian_blobs
from rgcf.filter import FilterNet, filter_arch, filter_init, start_digest
from rgcf.models import (
    apply_update,
    init_params,
    logistic,
    mlp,
)
from rgcf.simulation import (
    WorkerSpec,
    bench_filtering,
    build_workers,
    evaluate,
    run_aggregated,
    run_rgcf,
    server_start,
    train_filter,
    worker_step,
)
from tests.conftest import DEFAULT_CONFIG, DEFAULT_SPECS, backward_stack, minibatch, rng
from tests.test_models import pin_cpus


def constant_filter(d, bias):
    # zero weights except the output bias: every gradient scores
    # sigmoid(bias), so -50 accepts all, 50 rejects all and 0 scores
    # exactly the 0.5 threshold
    params = np.zeros(filter_arch(d).param_count)
    params[-1] = bias
    return FilterNet(d=d, params=param_vector(params))


def accept_all_filter(d):
    return constant_filter(d, -50.0)


def reject_all_filter(d):
    return constant_filter(d, 50.0)


def run_config(**kw):
    defaults = dict(
        n_workers=4,
        byzantine_fraction=0.5,
        attack=AttackSpec("inverse"),
        steps=30,
        seed=3,
        batch_size=16,
    )
    defaults.update(kw)
    return replace(DEFAULT_SPECS.run, **defaults)


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

    def test_aggregator_must_accept_the_worker_count(self):
        # a RunConfig that exists can run, so its aggregator's bound is
        # checked when it is built, and again when replace builds another
        cfg = run_config(n_workers=7, aggregator=AggregatorSpec("bulyan", 1))
        with pytest.raises(ValueError, match=r"bulyan at n=6 accepts f_count <= 0, got 1"):
            replace(cfg, n_workers=6)
        with pytest.raises(ValueError, match=r"krum at n=4 accepts f_count <= 1, got 2"):
            run_config(aggregator=AggregatorSpec("krum", 2))


class TestWorkers:
    def test_build_workers_fixes_byzantine_subset(self, blobs):
        cfg = run_config(n_workers=4, byzantine_fraction=0.5)
        workers = build_workers(cfg, blobs)
        assert sum(w.byzantine for w in workers) == 2
        again = build_workers(cfg, blobs)
        assert [w.byzantine for w in workers] == [w.byzantine for w in again]

    def test_shards_cover_data(self, blobs):
        # the workers' rows cover the one training set exactly once
        workers = build_workers(run_config(), blobs)
        rows = np.concatenate([w.rows for w in workers])
        assert np.array_equal(np.sort(rows), np.arange(blobs.size))

    def test_worker_step_keeps_loss_honest(self, blobs):
        arch = logistic(blobs.in_dim, blobs.classes)
        params = init_params(arch, rng(1))
        rows = np.arange(blobs.size)
        honest = WorkerSpec(rows, None, rng(2), rng(3))
        byz = WorkerSpec(rows, AttackSpec("inverse"), rng(2), rng(3))
        [gh], [lh] = worker_step([honest], blobs, params, arch, 8)
        [gb], [lb] = worker_step([byz], blobs, params, arch, 8)
        assert lb == lh
        assert np.array_equal(gb, -gh)

    def test_gradient_is_frozen(self, blobs):
        # the sent gradients are the one frozen array, honest or attacked
        arch = logistic(blobs.in_dim, blobs.classes)
        params = init_params(arch, rng(3))
        for attack in (None, AttackSpec("inverse")):
            w = WorkerSpec(np.arange(blobs.size), attack, rng(2), rng(3))
            grads, _ = worker_step([w], blobs, params, arch, 8)
            assert not grads.flags.writeable
            assert not grads[0].flags.writeable

    @pytest.mark.parametrize("hidden", [(), (8,)], ids=["logistic", "mlp"])
    def test_worker_step_equals_per_worker_replay(self, blobs, hidden):
        # one stacked turn of a mixed pool (honest workers plus all four
        # attacks, shards of unequal size) sends, bit for bit, what each
        # worker sends on its own: its batch from its stream, drawn from a
        # copy of its shard, a 2-D backward, then its attack from its own
        # attack stream, in order
        arch = mlp(blobs.in_dim, hidden, blobs.classes)
        shards = shard(blobs.size, 7, rng(4))
        assert len({len(s) for s in shards}) == 2
        copies = [Dataset(blobs.inputs[rows], blobs.labels[rows], blobs.classes) for rows in shards]
        attacks = [None, AttackSpec("random_gaussian"), AttackSpec("inverse"), None,
                   AttackSpec("all_ones"), AttackSpec("gradient_shift"), None]

        def streams(i):
            return rng(6, core.SID_WORKER_BATCH + i), rng(6, core.SID_WORKER_ATTACK + i)

        workers = [WorkerSpec(s, a, *streams(i)) for i, (s, a) in enumerate(zip(shards, attacks))]
        replays = [streams(i) for i in range(7)]
        params = init_params(arch, rng(5))
        for picked in (range(7), range(2, 6), [5], range(7)):
            grads, losses = worker_step([workers[i] for i in picked], blobs, params, arch, 16)
            assert grads.shape == (len(picked), arch.param_count)
            assert losses.shape == (len(picked),)
            for i, sent, sent_loss in zip(picked, grads, losses.tolist()):
                w, (batch_rng, attack_rng) = workers[i], replays[i]
                copy = copies[i]
                inputs, labels = minibatch(copy, np.arange(copy.size), 16, batch_rng)
                (grad,), (loss,) = backward_stack(arch, params, inputs[None], labels[None])
                if w.attack is not None:
                    grad = apply_attack(w.attack, grad, attack_rng)
                assert sent.tobytes() == grad.tobytes()
                assert sent_loss == loss

    def test_worker_step_error_order(self):
        # a turn raises where the first bad worker's own report would: its
        # gradient's first non-finite coordinate, else its loss at index d.
        # Logistic, 2 inputs, 2 classes, d=6. Row 0, x=(1, 0) with label 1
        # under W[0]=(1e308, -1e308): a finite gradient and an infinite
        # loss. Row 1, x=(0, 1e150) with label 0 under W[1]=0: a finite
        # honest gradient whose W[1] entries, inverted at scale 1e200,
        # overflow from coordinate 2 on.
        data = Dataset(np.array([[1.0, 0.0], [0.0, 1e150]]), np.array([1, 0]), 2)
        arch = logistic(2, 2)
        params = param_vector([1e308, -1e308, 0.0, 0.0, 0.0, 0.0])
        inverse = AttackSpec("inverse", 1e200)

        def turn(*workers):
            picked = [WorkerSpec(np.array([row]), attack, rng(2), rng(3)) for row, attack in workers]
            with np.errstate(over="ignore", invalid="ignore"):
                return worker_step(picked, data, params, arch, 4)

        for workers, index in [
            (((0, None), (1, inverse)), 6),  # the earlier loss wins
            (((1, inverse), (0, None)), 2),
            (((1, None), (1, inverse)), 2),
        ]:
            with pytest.raises(NonFiniteValueError) as err:
                turn(*workers)
            assert err.value.index == index
        grads, losses = turn((1, None), (1, None))
        assert not grads.flags.writeable
        assert grads[:, 2:4].tolist() == [[-5e149, 5e149]] * 2
        assert losses.tolist() == [np.log(2.0)] * 2

    def test_worker_step_rejects_a_negative_loss(self, blobs, blobs_val, monkeypatch):
        # a negative loss is a bad message, not divergence: the turn raises
        # a plain ValueError, and a run fails with it instead of stopping
        real = models.backward

        def negative(*args):
            real(*args)
            _, losses = args[-1]
            losses[-1] = -0.5

        monkeypatch.setattr(models, "backward", negative)
        arch = logistic(blobs.in_dim, blobs.classes)
        params = init_params(arch, rng(1))
        workers = [WorkerSpec(np.arange(blobs.size), None, rng(2, i), rng(3, i)) for i in range(3)]
        with pytest.raises(ValueError, match="loss must be non-negative, got -0.5") as err:
            worker_step(workers, blobs, params, arch, 8)
        assert not isinstance(err.value, NonFiniteValueError)
        with pytest.raises(ValueError, match="non-negative"):
            run_aggregated(run_config(aggregator=AggregatorSpec("mean")), blobs, blobs_val, arch)

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


def record_parts(monkeypatch) -> list[tuple[bool, int]]:
    """Record each part of a turn as (on this thread, worker count): this
    thread's part calls models.backward, a helper's models.backward_into."""
    calls, real = [], models.backward

    def recording(arch, params, inputs, *rest):
        calls.append((threading.get_ident() == threading.main_thread().ident, len(inputs)))
        real(arch, params, inputs, *rest)

    monkeypatch.setattr(models, "backward", recording)
    monkeypatch.setattr(models, "backward_into", recording)
    return calls


class TestSplitTurn:
    @pytest.mark.parametrize(
        "cpus, turn_part, parts",
        [
            (2, simulation.TURN_PART, [(False, 3), (True, 4)]),
            # one worker per part: more threads than cores, switching often
            (7, 1, [(False, 1)] * 6 + [(True, 1)]),
        ],
    )
    def test_split_turn_has_the_one_part_bytes(self, cpus, turn_part, parts, monkeypatch):
        # the mixed pool of the replay test (honest workers, all four
        # attacks, shards of unequal size) at a model above two parts: split
        # across helper threads, three turns send the bytes they send on one
        # CPU, in one part, and every helper is joined when its turn returns
        data = synth_gaussian_blobs(3, 40, 600, 8.0, rng(7, 40))
        arch = mlp(data.in_dim, (32,), data.classes)
        assert 7 * arch.param_count >= 2 * simulation.TURN_PART
        shards = shard(data.size, 7, rng(4))
        assert len({len(s) for s in shards}) == 2
        attacks = [None, AttackSpec("random_gaussian"), AttackSpec("inverse"), None,
                   AttackSpec("all_ones"), AttackSpec("gradient_shift"), None]
        params = init_params(arch, rng(5))
        calls = record_parts(monkeypatch)
        sent = []
        for n_cpus, expected in ((1, [(True, 7)]), (cpus, parts)):
            pin_cpus(monkeypatch, n_cpus)
            monkeypatch.setattr(simulation, "TURN_PART", turn_part)
            workers = [
                WorkerSpec(s, a, rng(6, core.SID_WORKER_BATCH + i), rng(6, core.SID_WORKER_ATTACK + i))
                for i, (s, a) in enumerate(zip(shards, attacks))
            ]
            threads, interval = threading.active_count(), sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                turns = [worker_step(workers, data, params, arch, 16) for _ in range(3)]
            finally:
                sys.setswitchinterval(interval)
            assert threading.active_count() == threads
            assert sorted(calls) == sorted(expected * 3)
            calls.clear()
            sent.append([(g.tobytes(), losses.tobytes()) for g, losses in turns])
        assert sent[0] == sent[1]

    def test_one_part_for_the_default_grid_and_for_one_worker(self, monkeypatch):
        # the default grid's turn (d=837, k=10) is below two parts, and a
        # turn of one worker is one part at any size
        pin_cpus(monkeypatch, 2)
        calls = record_parts(monkeypatch)
        data = synth_gaussian_blobs(5, 40, 20, 8.0, rng(7, 40))
        arch = mlp(data.in_dim, (32,), data.classes)
        assert arch.param_count == 837
        params = init_params(arch, rng(5))
        workers = [WorkerSpec(np.arange(data.size), None, rng(2, i), rng(3, i)) for i in range(10)]
        worker_step(workers, data, params, arch, 16)
        monkeypatch.setattr(simulation, "TURN_PART", 1)
        worker_step(workers[:1], data, params, arch, 16)
        assert calls == [(True, 10), (True, 1)]

    def test_error_order_across_parts(self, monkeypatch):
        # the data of test_worker_step_error_order, one worker per part: a
        # bad worker in the helper's part beats a later one in this
        # thread's, a bad worker only in the last part raises at its own
        # coordinate, and no RuntimeWarning escapes a helper, which runs
        # under the caller's errstate
        pin_cpus(monkeypatch, 2)
        monkeypatch.setattr(simulation, "TURN_PART", 1)
        calls = record_parts(monkeypatch)
        data = Dataset(np.array([[1.0, 0.0], [0.0, 1e150]]), np.array([1, 0]), 2)
        arch = logistic(2, 2)
        params = param_vector([1e308, -1e308, 0.0, 0.0, 0.0, 0.0])
        inverse = AttackSpec("inverse", 1e200)
        for workers, index in [
            (((0, None), (1, inverse)), 6),  # the helper's bad loss
            (((1, inverse), (0, None)), 2),  # the helper's bad gradient
            (((1, None), (1, inverse)), 2),  # the last part's bad gradient
            (((1, None), (0, None)), 6),  # the last part's bad loss
        ]:
            picked = [WorkerSpec(np.array([row]), attack, rng(2), rng(3)) for row, attack in workers]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(NonFiniteValueError) as err, np.errstate(over="ignore", invalid="ignore"):
                    worker_step(picked, data, params, arch, 4)
            assert err.value.index == index
            assert sorted(calls) == [(False, 1), (True, 1)]
            calls.clear()

    def test_a_diverging_split_run_ends_as_diverged(self, blobs, blobs_val, monkeypatch):
        # the helpers' overflows stay silent under the run's errstate, so
        # the run stops as diverged rather than failing with a warning
        pin_cpus(monkeypatch, 2)
        monkeypatch.setattr(simulation, "TURN_PART", 1)
        calls = record_parts(monkeypatch)
        arch = mlp(blobs.in_dim, (8,), blobs.classes)
        cfg = run_config(aggregator=AggregatorSpec("mean"), byzantine_fraction=1.0,
                         attack=AttackSpec("gradient_shift", 1e200), steps=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            m = run_aggregated(cfg, blobs, blobs_val, arch)
        assert m.diverged and len(m.train_losses) < 10
        assert (False, 2) in calls


class TestRunRgcf:
    def test_transfer_counter_one_per_step(self, blobs, blobs_val):
        arch = logistic(blobs.in_dim, blobs.classes)
        m = run_rgcf(run_config(), blobs, blobs_val, arch, accept_all_filter(arch.param_count))
        assert m.transferred_gradients == 30
        assert len(m.train_losses) == 30

    def test_deterministic(self, blobs, blobs_val):
        arch = logistic(blobs.in_dim, blobs.classes)
        filt = accept_all_filter(arch.param_count)
        a = run_rgcf(run_config(), blobs, blobs_val, arch, filt)
        b = run_rgcf(run_config(), blobs, blobs_val, arch, filt)
        assert np.array_equal(a.final_params, b.final_params)
        assert a.val_accuracies == b.val_accuracies

    @pytest.mark.parametrize("steps,evals", [(50, [25, 50]), (51, [25, 50, 51])])
    def test_evaluates_every_25_steps_and_at_the_last(self, blobs, blobs_val, steps, evals):
        arch = logistic(blobs.in_dim, blobs.classes)
        m = run_rgcf(run_config(steps=steps), blobs, blobs_val, arch, accept_all_filter(arch.param_count))
        assert simulation.EVAL_EVERY == 25
        assert m.eval_steps == evals
        assert len(m.val_accuracies) == len(m.val_losses) == len(evals)

    def test_reject_all_leaves_params_untouched(self, blobs, blobs_val):
        arch = logistic(blobs.in_dim, blobs.classes)
        cfg = run_config()
        m = run_rgcf(cfg, blobs, blobs_val, arch, reject_all_filter(arch.param_count))
        assert m.accepted_updates == 0
        assert np.array_equal(m.final_params, init_params(arch, stream(cfg.seed, core.SID_SERVER_INIT)))

    def test_threshold_boundary_rejects(self, blobs, blobs_val):
        # a gradient scored exactly at the threshold is dropped
        arch = logistic(blobs.in_dim, blobs.classes)
        cfg = run_config()
        m = run_rgcf(cfg, blobs, blobs_val, arch, constant_filter(arch.param_count, 0.0))
        assert m.decisions == [0.5] * 30
        assert m.predictions == [1] * 30
        assert m.accepted_updates == 0
        assert np.array_equal(m.final_params, init_params(arch, stream(cfg.seed, core.SID_SERVER_INIT)))

    @pytest.mark.parametrize("ground_truth", [False, True], ids=["filtered", "twin"])
    def test_decisions_are_the_filter_probabilities(self, blobs, blobs_val, monkeypatch, ground_truth):
        # the server asks the filter once per step and records its score;
        # a filtered run rejects at p >= threshold, its oracle twin by the
        # worker's role
        arch = mlp(blobs.in_dim, (8,), blobs.classes)
        filt = filter_init(arch.param_count, rng(12))
        real, scores = filter.filter_forward, []

        def recording(*args):
            scores.append(real(*args))
            return scores[-1]

        monkeypatch.setattr(filter, "filter_forward", recording)
        m = run_rgcf(run_config(), blobs, blobs_val, arch, filt, ground_truth=ground_truth)
        assert m.decisions == scores
        assert len(scores) == 30
        if ground_truth:
            assert m.predictions == m.ground_truths
        else:
            assert m.predictions == [int(p >= filt.threshold) for p in m.decisions]
            assert 0 < sum(m.predictions) < 30

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
        [local] = shard(blobs.size, 1, stream(cfg.seed, core.SID_SHARD))
        batch_rng = stream(cfg.seed, core.SID_WORKER_BATCH)
        params = init_params(arch, stream(cfg.seed, core.SID_SERVER_INIT))
        for _ in range(20):
            inputs, labels = minibatch(blobs, local, cfg.batch_size, batch_rng)
            (grad,), _ = backward_stack(arch, params, inputs[None], labels[None])
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

    def test_the_oracle_twin_is_one_run_per_fraction(self, blobs, blobs_val, monkeypatch):
        # what compare's reference table rests on: the twin drops every
        # Byzantine gradient, so at one fraction it is the same run under
        # each attack; and a filtered run that makes no wrong decision is
        # its twin, bit for bit
        arch = mlp(blobs.in_dim, (8,), blobs.classes)
        filt = accept_all_filter(arch.param_count)

        def twin(kind):
            m = run_rgcf(run_config(attack=AttackSpec(kind)), blobs, blobs_val, arch, filt, ground_truth=True)
            return m.final_params.tobytes(), np.array(m.val_accuracies).tobytes(), m.rejected_byz

        twins = {kind: twin(kind) for kind in ATTACK_KINDS}
        assert len(set(twins.values())) == 1
        assert twins["inverse"][2] > 0

        # a filter that rejects exactly the all-ones gradients
        monkeypatch.setattr(filter, "filter_forward", lambda filt, grad, loss: float((grad == 1.0).all()))
        m = run_rgcf(run_config(attack=AttackSpec("all_ones")), blobs, blobs_val, arch, filt)
        assert m.rejected_honest == m.accepted_byz == 0 < m.rejected_byz
        assert (m.final_params.tobytes(), np.array(m.val_accuracies).tobytes()) == twins["all_ones"][:2]

    def test_confusion_counts_sum_to_steps(self, blobs, blobs_val, monkeypatch):
        # each count is the tally of its (ground_truth, predicted) pair over
        # the decided steps: filtered, oracle twin, aggregator (blank pairs,
        # all counts 0) and a filtered run that diverges
        def counts(m):
            return [m.accepted_honest, m.rejected_honest, m.accepted_byz, m.rejected_byz]

        def tally(m):
            pairs = list(zip(m.ground_truths, m.predictions))
            assert len(pairs) == len(m.train_losses) == len(m.decisions)
            return [pairs.count(pair) for pair in ((0, 0), (0, 1), (1, 0), (1, 1))]

        arch = logistic(blobs.in_dim, blobs.classes)
        m = run_rgcf(run_config(), blobs, blobs_val, arch, accept_all_filter(arch.param_count))
        assert counts(m) == tally(m)
        assert sum(counts(m)) == 30

        # a filter that rejects every other gradient, whatever its role,
        # makes both kinds of wrong decision
        flips = itertools.cycle([1.0, 0.0])
        with monkeypatch.context() as patch:
            patch.setattr(filter, "filter_forward", lambda filt, grad, loss: next(flips))
            m = run_rgcf(run_config(), blobs, blobs_val, arch, accept_all_filter(arch.param_count))
        assert counts(m) == tally(m)
        assert min(counts(m)) > 0 and sum(counts(m)) == 30

        twin = run_rgcf(run_config(), blobs, blobs_val, arch, accept_all_filter(arch.param_count),
                        ground_truth=True)
        assert counts(twin) == tally(twin)
        assert twin.rejected_honest == twin.accepted_byz == 0 < twin.accepted_honest
        assert sum(counts(twin)) == 30

        agg = run_aggregated(run_config(aggregator=AggregatorSpec("mean")), blobs, blobs_val, arch)
        assert counts(agg) == tally(agg) == [0, 0, 0, 0]
        assert agg.ground_truths == agg.predictions == [None] * 30

        # the accepted Byzantine gradients overflow the parameters, so a
        # later turn is non-finite and the run stops before deciding it
        arch = mlp(blobs.in_dim, (8,), blobs.classes)
        cfg = run_config(attack=AttackSpec("gradient_shift", 1e200), steps=100)
        m = run_rgcf(cfg, blobs, blobs_val, arch, accept_all_filter(arch.param_count))
        assert m.diverged
        assert counts(m) == tally(m)
        assert 0 < sum(counts(m)) == len(m.train_losses) < 100

    def test_filter_dim_mismatch(self, blobs, blobs_val):
        arch = logistic(blobs.in_dim, blobs.classes)
        with pytest.raises(ValueError):
            run_rgcf(run_config(), blobs, blobs_val, arch, accept_all_filter(7))

    def test_mlp_filter_guards_only_its_training_start(self):
        # On the CLI's default blobs data at seed 0, a filter trained at
        # seed 0 saw the server start from the first draw of
        # SID_SERVER_INIT at seed 0. A Byzantine-free run at seed 0
        # starts there too; one at seed 1 starts elsewhere, on the same
        # data. The MLP filter accepts the first run's honest gradients and
        # rejects nearly all of the second's; the logistic one transfers.
        train, val = load_train(DEFAULT_CONFIG), load_val(DEFAULT_CONFIG)

        def honest_rejections(arch, *run_seeds):
            filt, _ = train_filter(DEFAULT_SPECS.filter_train, train, arch, seed=0)
            counts = []
            for run_seed in run_seeds:
                # the CLI refuses the filter at every seed but its own
                assert (filt.start == start_digest(server_start(arch, run_seed))) == (run_seed == 0)
                cfg = replace(DEFAULT_SPECS.run, steps=300, seed=run_seed)
                m = run_rgcf(cfg, train, val, arch, filt)
                assert m.accepted_honest + m.rejected_honest == 300
                counts.append(m.rejected_honest)
            return counts

        at_start, elsewhere = honest_rejections(build_arch(replace(DEFAULT_CONFIG, arch="mlp"), train), 0, 1)
        assert at_start <= 3
        assert elsewhere >= 270
        (transferred,) = honest_rejections(build_arch(DEFAULT_CONFIG, train), 1)
        assert transferred <= 30


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
        shards = shard(blobs.size, 3, stream(cfg.seed, core.SID_SHARD))
        batch_rngs = [stream(cfg.seed, core.SID_WORKER_BATCH + i) for i in range(3)]
        params = init_params(arch, stream(cfg.seed, core.SID_SERVER_INIT))
        for _ in range(20):
            grads = []
            for s, r in zip(shards, batch_rngs):
                inputs, labels = minibatch(blobs, s, cfg.batch_size, r)
                grads.append(backward_stack(arch, params, inputs[None], labels[None])[0][0])
            params = params - cfg.server_lr * np.stack(grads).mean(axis=0)
        assert np.array_equal(m.final_params, params)

    def test_divergence_sets_flag_instead_of_raising(self, blobs, blobs_val):
        arch = mlp(blobs.in_dim, (8,), blobs.classes)
        cfg = self.agg_config(
            byzantine_fraction=1.0, attack=AttackSpec("gradient_shift", 1e200), steps=10
        )
        m = run_aggregated(cfg, blobs, blobs_val, arch)
        assert m.diverged
        assert len(m.train_losses) < 10

    def test_overflowing_loss_sets_diverged(self, blobs, blobs_val):
        # once the parameters overflow, a worker can report a finite
        # gradient with an infinite loss: that is divergence too
        arch = mlp(blobs.in_dim, (32,), blobs.classes)
        for kind in ("gradient_shift", "random_gaussian"):
            cfg = self.agg_config(attack=AttackSpec(kind, 1e156), steps=60)
            m = run_aggregated(cfg, blobs, blobs_val, arch)
            assert m.diverged
            assert len(m.train_losses) < 60

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
        for method, n in (("rgcf", 10), ("krum", 6)):
            times = bench_filtering(method, n, 50, 12, seed=0)
            assert times.shape == (12,) and (times > 0.0).all()

    def test_decisions_read_fresh_copies_of_a_rotating_window(self, monkeypatch):
        seen = []
        monkeypatch.setattr(simulation, "aggregate", lambda spec, rows: seen.append(rows))
        bench_filtering("krum", 4, 6, 10, seed=0)
        pool = 4 + simulation.BENCH_SPARE_ROWS
        assert len(seen) >= pool + 1 and all(len(rows) == 4 for rows in seen)
        # each call's window starts one pool row on, and wraps
        assert np.array_equal(seen[1][0], seen[0][1])
        assert np.array_equal(seen[pool - 1][1], seen[0][0])
        assert np.array_equal(seen[pool][0], seen[0][0])
        assert not np.array_equal(seen[0][0], seen[0][1])
        # no two calls share an array
        assert len({id(row) for rows in seen for row in rows}) == 4 * len(seen)

    def test_reps_floor(self):
        with pytest.raises(ValueError):
            bench_filtering("rgcf", 10, 50, 5, seed=0)

    def test_infeasible_aggregator(self):
        with pytest.raises(ValueError):
            bench_filtering("bulyan", 5, 10, 10, seed=0)


def test_import_loads_no_config():
    # every spec takes its values from its caller, so the simulation reads
    # no default of ExperimentConfig and a fresh import leaves it unloaded
    code = "import sys, rgcf.simulation; assert 'rgcf.config' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": str(Path(simulation.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
