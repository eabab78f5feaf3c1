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

import itertools
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import attacks, core, filter, models
from . import data as datasets
from .aggregators import AggregatorSpec, aggregate
from .attacks import AttackSpec, apply_attack
from .core import NonFiniteValueError, assert_finite, param_vector, stream
from .data import Dataset, sample_minibatch, shard
from .filter import FilterNet, filter_init
from .models import Architecture, adam_init, apply_update, init_params


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
    server_lr: float
    batch_size: int
    aggregator: AggregatorSpec | None = None

    def __post_init__(self):
        if not 0.0 <= self.byzantine_fraction <= 1.0:
            raise ValueError("byzantine_fraction must lie in [0,1]")
        if min(self.steps, self.n_workers, self.batch_size) < 1:
            raise ValueError("steps, n_workers and batch_size must be >= 1")
        if self.n_workers > core.MAX_WORKERS:
            raise ValueError(f"n_workers must be <= {core.MAX_WORKERS}, so worker streams stay apart")
        if not self.server_lr > 0:
            raise ValueError("server_lr must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2**64)")
        # a RunConfig that exists can run: its aggregator accepts n_workers
        if self.aggregator is not None:
            self.aggregator.check_preconditions(self.n_workers)

    @property
    def byzantine_count(self) -> int:
        return round(self.n_workers * self.byzantine_fraction)


@dataclass
class RunMetrics:
    # per step, steps 1, 2, ...
    train_losses: list[float] = field(default_factory=list)
    ground_truths: list[int | None] = field(default_factory=list)
    predictions: list[int | None] = field(default_factory=list)
    decisions: list[float] = field(default_factory=list)  # p in filter mode, |aggregate| otherwise
    # periodic validation
    eval_steps: list[int] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    # summary; the four decision counts tally the per-step (ground_truth, predicted) pairs
    accepted_honest: int = 0
    rejected_honest: int = 0
    accepted_byz: int = 0
    rejected_byz: int = 0
    transferred_gradients: int = 0
    diverged: bool = False
    wall_time: float = 0.0
    # wall time by phase, summed over the steps: worker turns, decision
    # (the filter's probability / the aggregate), update, eval
    worker_s: float = 0.0
    decision_s: float = 0.0
    update_s: float = 0.0
    eval_s: float = 0.0
    final_params: np.ndarray | None = None

    @property
    def accepted_updates(self) -> int:
        return self.accepted_honest + self.accepted_byz

    @property
    def final_accuracy(self) -> float:
        """The last validation accuracy, NaN when no evaluation ran."""
        return self.val_accuracies[-1] if self.val_accuracies else float("nan")


# A worker turn is split into parts of at least this many gradient
# coordinates (k*d over the part count). Per turn on a 2-vCPU Xeon (MLP
# hidden 32, n=10, batch 128, one BLAS thread, second vCPU free), two
# parts took 1.79x one part's time at k*d=8,370 (the default grid), 1.05x
# at 65,970, 0.95x at 129,970 and 0.71x at 254,500 (784 inputs). So a
# turn splits from k*d = 2**17 on, and the default grid's turns and every
# one-worker turn of the wide model stay whole.
TURN_PART = 1 << 16
# a run evaluates its model every EVAL_EVERY steps and at its last step
EVAL_EVERY = 25
BENCH_WARMUP_S = 2.0
# pool rows beyond the k that one bench decision reads
BENCH_SPARE_ROWS = 8


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
    backward pass computes every honest gradient into one (k, d) array, and
    each Byzantine worker then overwrites its row with its attack, from its
    own attack stream.

    A turn of k workers at d parameters is cut into up to
    `core.cpu_parts(k * d, TURN_PART)` contiguous parts of workers, at most
    one per worker, run by `core.run_parts`: helper threads run the leading
    parts and this thread the last, each part the same work on its own rows.
    Each worker owns its streams and `models.backward` keeps every product
    per batch, so the bits do not depend on the number of parts.

    Returns the (k, d) gradients the workers send, read-only, and their
    honest losses. A turn is checked once; only a failed check replays the
    per-worker checks in order, so the first bad worker raises:
    NonFiniteValueError at its gradient's first non-finite coordinate, else
    at d (the loss's coordinate in the filter input) for a non-finite loss,
    and ValueError for a negative loss."""
    k, d = len(workers), params.shape[0]
    inputs = np.empty((k, batch_size, data.in_dim), data.inputs.dtype)
    labels = np.empty(inputs.shape[:2], data.labels.dtype)
    grads, losses = np.empty((k, d)), np.empty(k)
    parts = min(k, core.cpu_parts(k * d, TURN_PART))
    bounds = [i * k // parts for i in range(parts + 1)]

    def turn(part: int) -> None:
        # perfbench's tracer keeps one span stack for all threads, so a
        # helper calls none of the names it wraps; this thread's part does
        mine = part == parts - 1
        sample = sample_minibatch if mine else datasets.sample_minibatch
        gradient = models.backward if mine else models.backward_into
        attack = apply_attack if mine else attacks.apply_attack
        rows = slice(bounds[part], bounds[part + 1])
        for w, x, y in zip(workers[rows], inputs[rows], labels[rows]):
            sample(data, w.rows, batch_size, w.batch_rng, out=(x, y))
        gradient(arch, params, inputs[rows], labels[rows], (grads[rows], losses[rows]))
        for i in range(rows.start, rows.stop):
            w = workers[i]
            if w.attack is not None:
                grads[i] = attack(w.attack, grads[i], w.attack_rng)

    core.run_parts(parts, turn)
    if not (np.isfinite(grads).all() and np.isfinite(losses).all() and (losses >= 0).all()):
        for grad, loss in zip(grads, losses.tolist()):
            assert_finite(grad)
            if not np.isfinite(loss):
                raise NonFiniteValueError(d)
            if loss < 0:
                raise ValueError(f"loss must be non-negative, got {loss}")
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
    steps: int
    positive_weight: float
    filter_lr: float
    server_lr: float
    batch_size: int
    attack: AttackSpec

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not all(x > 0 for x in (self.positive_weight, self.filter_lr, self.server_lr)):
            raise ValueError("positive_weight and learning rates must be positive")


def server_start(arch: Architecture, seed: int) -> np.ndarray:
    """The server model's initial weights at a seed: where every deployed
    run starts, and where filter training starts its simulated server."""
    return init_params(arch, stream(seed, core.SID_SERVER_INIT))


@dataclass
class FilterTrainLog:
    # per step, steps 1, 2, ...
    losses: list[float] = field(default_factory=list)
    running_accuracy: list[float] = field(default_factory=list)


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
    server trajectory it learns from. The simulated server starts at
    server_start, where _run starts the deployed model at the same seed,
    and the filter records that start's digest."""
    params = server_start(server_arch, seed)
    filt = filter_init(server_arch.param_count, stream(seed, core.SID_FILTER_INIT))
    # the weights and the Adam moments are allocated once and updated in
    # place; the weights are frozen when training ends
    filt = replace(filt, params=np.array(filt.params), start=filter.start_digest(params))
    adam = adam_init(filt.params.shape[0], lr=cfg.filter_lr)
    pick_rng = stream(seed, core.SID_FILTER_PICK)
    streams = stream(seed, core.SID_FILTER_BATCH), stream(seed, core.SID_FILTER_ATTACK)
    workers = [WorkerSpec(np.arange(local_data.size), a, *streams) for a in (None, cfg.attack)]

    log = FilterTrainLog()
    correct = 0
    # a weight driven past the float range is reported by adam_step's own
    # check, not by numpy's overflow warnings on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, cfg.steps + 1):
            byz = int(pick_rng.integers(0, 2))
            grads, losses = worker_step([workers[byz]], local_data, params, server_arch, cfg.batch_size)
            grad, server_loss = grads[0], float(losses[0])
            params = apply_update(params, grad, cfg.server_lr, byz)
            loss, pred = filter.filter_train_step(filt, adam, grad, server_loss, byz, cfg.positive_weight)
            correct += int((pred >= filter.THRESHOLD) == byz)
            log.losses.append(loss)
            log.running_accuracy.append(correct / step)
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
    A filter sized for another model fails at its first decision.
    """
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
    params = server_start(arch, cfg.seed)

    m = RunMetrics()
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
            # the decision's time ends at t2, before an aggregator step's loss mean and norm
            if filt is None:
                update, drop = aggregate(cfg.aggregator, grads), 0
                t2 = clock()
                loss, truth, pred, decision = float(np.mean(losses)), None, None, float(np.linalg.norm(update))
            else:
                update, loss, truth = grads[0], float(losses[0]), int(queried[0].byzantine)
                decision = filter.filter_forward(filt, update, loss)
                pred = drop = truth if ground_truth else int(decision >= filter.THRESHOLD)
                t2 = clock()
            t3 = clock()
            params = apply_update(params, update, cfg.server_lr, drop)
            m.update_s += clock() - t3
            m.worker_s += t1 - t0
            m.decision_s += t2 - t1
            m.train_losses.append(loss)
            m.ground_truths.append(truth)
            m.predictions.append(pred)
            m.decisions.append(decision)
            if t % EVAL_EVERY == 0 or t == cfg.steps:
                t4 = clock()
                acc, val_loss = evaluate(arch, params, val_data)
                m.eval_s += clock() - t4
                m.eval_steps.append(t)
                m.val_accuracies.append(acc)
                m.val_losses.append(val_loss)
    m.wall_time = clock() - start
    m.final_params = params
    # each decided step's (ground_truth, predicted) pair; an aggregator step's is blank
    tally = Counter(zip(m.ground_truths, m.predictions))
    m.accepted_honest, m.rejected_honest = tally[0, 0], tally[0, 1]
    m.accepted_byz, m.rejected_byz = tally[1, 0], tally[1, 1]
    return m


def bench_spec(method: str, n: int, d: int, reps: int) -> AggregatorSpec | None:
    """Check the arguments of a bench_filtering call and return the
    aggregator it times, at f_count=1, or None for the filter ("rgcf")."""
    if reps < 10:
        raise ValueError("reps must be >= 10")
    if min(n, d) < 1:
        raise ValueError("bench n and d must be >= 1")
    if method == "rgcf":
        return None
    spec = AggregatorSpec(method, f_count=1)
    spec.check_preconditions(n)
    return spec


def bench_filtering(method: str, n: int, d: int, reps: int, seed: int) -> np.ndarray:
    """Wall seconds of each of `reps` filtering/aggregation decisions over
    synthetic random gradients, excluding their generation.

    method: "rgcf" or an aggregator kind. A decision gets fresh copies, as
    a list, of k rows (k = n for an aggregator, 1 for the filter): a window
    that moves one row per call through a pool of k + BENCH_SPARE_ROWS
    rows, each with a loss, drawn once. Up to reps untimed decisions, at
    least one and BENCH_WARMUP_S at most, run first: they pay for the first
    touch of fresh memory and for a multi-threaded BLAS waking idle cores
    (on a 2-vCPU VM the first ~60 d=10^5 filter decisions took 15 ms, not 2).
    """
    spec = bench_spec(method, n, d, reps)
    rng = stream(seed, core.SID_BENCH)
    filt = filter_init(d, rng) if spec is None else None
    k = 1 if spec is None else n
    pool = [rng.standard_normal(d) for _ in range(k + BENCH_SPARE_ROWS)]
    losses = np.abs(rng.standard_normal(len(pool)))
    starts = itertools.cycle(range(len(pool)))

    def decision() -> float:
        first = next(starts)
        rows = [pool[(first + i) % len(pool)].copy() for i in range(k)]
        t0 = time.perf_counter()
        if spec is None:
            filter.filter_forward(filt, rows[0], float(losses[first]))
        else:
            aggregate(spec, rows)
        return time.perf_counter() - t0

    warmup = [decision()]
    while len(warmup) < reps and sum(warmup) < BENCH_WARMUP_S:
        warmup.append(decision())
    return np.array([decision() for _ in range(reps)])
