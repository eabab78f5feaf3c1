"""Parameter-server training harness: both simulated servers, over one
worker turn (`worker_step`: sample, backpropagate, attack, check).

Filter training queries one honest and one Byzantine worker and updates its
server by the ground truth. Deployment is one server loop with two decision
rules: with a filter, each step queries one random worker and applies the
masked update; with an aggregator, each step queries all n workers and
applies the aggregated gradient. A transfer counter tracks the
communication cost (one gradient per step vs. n). Plus the decision bench.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import core, filter, models
from .aggregators import AggregatorSpec, aggregate
from .attacks import RANDOM_GAUSSIAN, AttackSpec, apply_attack
from .core import GradientReport, NonFiniteValueError, param_vector, stream
from .data import Dataset, sample_minibatch, shard
from .filter import FilterNet, classify, filter_forward, filter_init
from .models import Architecture, ShapeMismatchError, adam_init, apply_update, init_params


@dataclass(frozen=True)
class WorkerSpec:
    """One worker: its shard (row indices into the run's one training set),
    its attack (None = honest), and the two streams it owns, for its
    mini-batches and for its attack's noise."""

    rows: np.ndarray
    attack: AttackSpec | None
    batch_rng: np.random.Generator
    attack_rng: np.random.Generator

    @property
    def byzantine(self) -> bool:
        return self.attack is not None


@dataclass(frozen=True)
class RunConfig:
    n_workers: int
    byzantine_fraction: float
    attack: AttackSpec
    steps: int
    seed: int
    aggregator: AggregatorSpec | None = None
    server_lr: float = 0.01
    eval_every: int = 25
    batch_size: int = 128

    def __post_init__(self):
        if not 0.0 <= self.byzantine_fraction <= 1.0:
            raise ValueError("byzantine_fraction must lie in [0,1]")
        if min(self.steps, self.n_workers, self.eval_every, self.batch_size) < 1:
            raise ValueError("steps, n_workers, eval_every and batch_size must be >= 1")
        if self.n_workers > core.MAX_WORKERS:
            raise ValueError(f"n_workers must be <= {core.MAX_WORKERS}, so worker streams stay apart")
        if not self.server_lr > 0:
            raise ValueError("server_lr must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2**64)")

    @property
    def byzantine_count(self) -> int:
        return round(self.n_workers * self.byzantine_fraction)


@dataclass
class RunMetrics:
    # per step
    steps: list[int] = field(default_factory=list)
    train_losses: list[float] = field(default_factory=list)
    ground_truths: list[int | None] = field(default_factory=list)
    predictions: list[int | None] = field(default_factory=list)
    decisions: list[float] = field(default_factory=list)  # B in filter mode, |aggregate| otherwise
    # periodic validation
    eval_steps: list[int] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    # summary
    accepted_honest: int = 0
    rejected_honest: int = 0
    accepted_byz: int = 0
    rejected_byz: int = 0
    transferred_gradients: int = 0
    diverged: bool = False
    wall_time: float = 0.0
    # wall time by phase, summed over the steps: worker turns, decision
    # (classify / aggregate), update, eval
    worker_s: float = 0.0
    decision_s: float = 0.0
    update_s: float = 0.0
    eval_s: float = 0.0
    final_params: np.ndarray | None = None
    initial_params: np.ndarray | None = None

    @property
    def accepted_updates(self) -> int:
        return self.accepted_honest + self.accepted_byz

    @property
    def final_accuracy(self) -> float:
        """The last validation accuracy, NaN when no evaluation ran."""
        return self.val_accuracies[-1] if self.val_accuracies else float("nan")


BENCH_WARMUP_S = 2.0


def worker_step(
    workers: list[WorkerSpec],
    data: Dataset,
    params: np.ndarray,
    arch: Architecture,
    batch_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One turn of the queried workers, in order: each draws a fresh
    mini-batch of batch_size from its own rows of data with its own batch
    stream, into its row of one (k, batch_size, in_dim) array, one stacked
    backward pass computes every honest gradient, and each Byzantine worker
    then overwrites its row with its attack, from its own attack stream.

    Returns the (k, d) gradients the workers send, read-only, and their
    honest losses. A turn is checked once; only a failed check replays the
    per-worker checks in order, so the first bad worker raises as its own
    GradientReport would: NonFiniteValueError at its gradient's first
    non-finite coordinate or at d for its loss, ValueError for a negative
    loss."""
    inputs = np.empty((len(workers), batch_size, data.in_dim), data.inputs.dtype)
    labels = np.empty(inputs.shape[:2], data.labels.dtype)
    for w, x, y in zip(workers, inputs, labels):
        sample_minibatch(data, w.rows, batch_size, w.batch_rng, out=(x, y))
    grads, losses = models.backward(arch, params, inputs, labels)
    for i, w in enumerate(workers):
        if w.attack is not None:
            grads[i] = apply_attack(w.attack, grads[i], w.attack_rng)
    if not (np.isfinite(grads).all() and np.isfinite(losses).all() and (losses >= 0).all()):
        for grad, loss in zip(grads, losses.tolist()):
            GradientReport(param_vector(grad), loss)
    grads.flags.writeable = False
    return grads, losses


def build_workers(cfg: RunConfig, train_data: Dataset) -> list[WorkerSpec]:
    """Shard the training set's rows i.i.d., fix the Byzantine subset by
    seeded sampling (it does not change during the run), and give worker i
    its streams SID_WORKER_BATCH + i and SID_WORKER_ATTACK + i."""
    shards = shard(train_data.size, cfg.n_workers, stream(cfg.seed, core.SID_SHARD))
    byz_pick = stream(cfg.seed, core.SID_BYZ_PICK)
    byz_ids = set(byz_pick.choice(cfg.n_workers, size=cfg.byzantine_count, replace=False).tolist())
    return [
        WorkerSpec(
            shards[i],
            cfg.attack if i in byz_ids else None,
            stream(cfg.seed, core.SID_WORKER_BATCH + i),
            stream(cfg.seed, core.SID_WORKER_ATTACK + i),
        )
        for i in range(cfg.n_workers)
    ]


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
    """Simulation-based training: one honest and one Byzantine worker over
    the whole local set, sharing one batch and one attack stream, picked
    with equal probability for each worker_step turn. The simulated server
    is updated with the ground-truth label (drop every Byzantine gradient),
    not the filter's prediction, so filter quality cannot disturb the
    server trajectory it learns from."""
    filt = filter_init(server_arch.param_count, stream(seed, core.SID_FILTER_INIT), threshold=cfg.threshold)
    # the weights and the Adam moments are allocated once and updated in
    # place; the weights are frozen when training ends
    filt = replace(filt, params=np.array(filt.params))
    adam = adam_init(filt.params.shape[0], lr=cfg.filter_lr)
    init_rng = stream(seed, core.SID_SERVER_INIT)
    pick_rng = stream(seed, core.SID_FILTER_PICK)
    streams = stream(seed, core.SID_FILTER_BATCH), stream(seed, core.SID_FILTER_ATTACK)
    workers = [WorkerSpec(np.arange(local_data.size), a, *streams) for a in (None, cfg.attack)]

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
                grads, losses = worker_step([workers[byz]], local_data, params, server_arch, cfg.batch_size)
                grad, server_loss = grads[0], float(losses[0])
                params = apply_update(params, grad, cfg.server_lr, byz)
                loss, pred = filter.filter_train_step(filt, adam, grad, server_loss, byz, cfg.positive_weight)
                step += 1
                correct += int((pred >= filt.threshold) == byz)
                log.steps.append(step)
                log.losses.append(loss)
                log.running_accuracy.append(correct / step)
                log.labels.append(byz)
                log.server_losses.append(server_loss)
    return replace(filt, params=param_vector(filt.params)), log


def evaluate(arch: Architecture, params: np.ndarray, dataset: Dataset) -> tuple[float, float]:
    """Exact accuracy fraction and mean loss over the full dataset."""
    logits, _ = models.mlp_forward(params, arch.layer_sizes, dataset.inputs)
    accuracy = float(np.mean(np.argmax(logits, axis=1) == dataset.labels))
    return accuracy, models.cross_entropy(logits, dataset.labels)


def run_rgcf(
    cfg: RunConfig,
    train_data: Dataset,
    val_data: Dataset,
    arch: Architecture,
    filt: FilterNet,
    ground_truth: bool = False,
) -> RunMetrics:
    """Filter-in-the-loop training: one worker queried per step, the masked
    update drops every gradient the filter rejects.

    ground_truth=True replaces the filter's decision with whether the worker
    is Byzantine (oracle filtering); the result is the Byzantine-free twin of
    the same run — identical worker picks, batches and honest gradients —
    used as the clean convergence reference at equal accepted-update counts.
    """
    if filt.d != arch.param_count:
        raise ShapeMismatchError(f"filter d {filt.d} != model d {arch.param_count}")
    return _run(cfg, train_data, val_data, arch, filt, ground_truth)


def run_aggregated(
    cfg: RunConfig,
    train_data: Dataset,
    val_data: Dataset,
    arch: Architecture,
) -> RunMetrics:
    """Baseline training: all n workers queried per step, one aggregated
    update applied per step."""
    if cfg.aggregator is None:
        raise ValueError("an aggregated run needs an AggregatorSpec")
    cfg.aggregator.check_preconditions(cfg.n_workers)
    return _run(cfg, train_data, val_data, arch, None, False)


def _run(
    cfg: RunConfig,
    train_data: Dataset,
    val_data: Dataset,
    arch: Architecture,
    filt: FilterNet | None,
    ground_truth: bool,
) -> RunMetrics:
    """The server loop. With a filter, each step decides on one random
    worker's gradient; without one, it aggregates all n workers' gradients
    with cfg.aggregator. A non-finite gradient or loss from a worker ends
    the run as diverged."""
    workers = build_workers(cfg, train_data)
    pick_rng = stream(cfg.seed, core.SID_WORKER_PICK)
    params = init_params(arch, stream(cfg.seed, core.SID_SERVER_INIT))

    m = RunMetrics(initial_params=params)
    clock = time.perf_counter
    start = clock()
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, cfg.steps + 1):
            if filt is None:
                queried = workers
            else:
                queried = [workers[int(pick_rng.integers(0, cfg.n_workers))]]
            t0 = clock()
            try:
                grads, losses = worker_step(queried, train_data, params, arch, cfg.batch_size)
            except NonFiniteValueError:
                m.diverged = True
                break
            m.transferred_gradients += len(grads)
            t1 = clock()
            if filt is None:
                agg = aggregate(cfg.aggregator, grads)
                t2 = clock()
                params = params - cfg.server_lr * agg
                t3 = clock()
                loss = float(np.mean(losses))
                truth = b = None
                decision = float(np.linalg.norm(agg))
            else:
                grad, loss = grads[0], float(losses[0])
                truth = int(queried[0].byzantine)
                b = truth if ground_truth else classify(filt, grad, loss)
                t2 = clock()
                params = apply_update(params, grad, cfg.server_lr, b)
                t3 = clock()
                if truth == 0 and b == 0:
                    m.accepted_honest += 1
                elif truth == 0:
                    m.rejected_honest += 1
                elif b == 0:
                    m.accepted_byz += 1
                else:
                    m.rejected_byz += 1
                decision = float(b)
            m.worker_s += t1 - t0
            m.decision_s += t2 - t1
            m.update_s += t3 - t2
            m.steps.append(t)
            m.train_losses.append(loss)
            m.ground_truths.append(truth)
            m.predictions.append(b)
            m.decisions.append(decision)
            if t % cfg.eval_every == 0 or t == cfg.steps:
                t4 = clock()
                acc, val_loss = evaluate(arch, params, val_data)
                m.eval_s += clock() - t4
                m.eval_steps.append(t)
                m.val_accuracies.append(acc)
                m.val_losses.append(val_loss)
    m.wall_time = clock() - start
    m.final_params = params
    return m


def bench_spec(method: str, n: int, d: int, reps: int, f_count: int = 1) -> AggregatorSpec | None:
    """Check the arguments of a bench_filtering call and return the
    aggregator it times, or None for the filter ("rgcf")."""
    if reps < 10:
        raise ValueError("reps must be >= 10")
    if min(n, d) < 1:
        raise ValueError("bench n and d must be >= 1")
    if method == "rgcf":
        return None
    spec = AggregatorSpec(method, f_count=f_count)
    spec.check_preconditions(n)
    return spec


def bench_filtering(
    method: str, n: int, d: int, reps: int, seed: int = 0, f_count: int = 1
) -> tuple[float, float]:
    """Wall time per filtering/aggregation decision over synthetic random
    gradients, excluding gradient generation. Returns (mean, stddev) seconds.

    method: "rgcf" or an aggregator kind. Up to reps untimed decisions, at
    least one and BENCH_WARMUP_S at most, run first: they pay for the first
    touch of fresh memory and for a multi-threaded BLAS waking idle cores
    (on a 2-vCPU VM the first ~60 d=10^5 filter decisions took 15 ms, not 2).
    """
    spec = bench_spec(method, n, d, reps, f_count)
    rng = stream(seed, core.SID_BENCH)
    filt = filter_init(d, rng) if spec is None else None

    def decision() -> float:
        if spec is None:
            grad = rng.standard_normal(d)
            loss = float(abs(rng.standard_normal()))
            t0 = time.perf_counter()
            filter_forward(filt, grad, loss)
        else:
            grads = [rng.standard_normal(d) for _ in range(n)]
            t0 = time.perf_counter()
            aggregate(spec, grads)
        return time.perf_counter() - t0

    warmup = [decision()]
    while len(warmup) < reps and sum(warmup) < BENCH_WARMUP_S:
        warmup.append(decision())
    times = np.array([decision() for _ in range(reps)])
    return float(times.mean()), float(times.std())
