"""Parameter-server training harness.

One server loop with two decision rules over the same worker pool: with a
filter, each step queries a single randomly chosen worker and applies the
masked update; with an aggregator, each step queries all n workers and
applies the aggregated gradient. A transfer counter tracks the
communication cost difference (one gradient per step vs. n per step).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import models
from .aggregators import AggregatorSpec, aggregate
from .attacks import AttackSpec, apply_attack
from .core import (
    SID_SERVER_INIT,
    GradientReport,
    NonFiniteValueError,
    Provenance,
    RngStream,
    param_vector,
)
from .data import Dataset, sample_minibatch, shard
from .filter import FilterNet, classify, filter_forward
from .models import Architecture, ServerModel, ShapeMismatchError, apply_update, init_params


@dataclass(frozen=True)
class WorkerSpec:
    id: int
    shard: Dataset
    attack: AttackSpec | None = None  # None = honest
    batch_size: int = 128

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.shard.size < 1:
            raise ValueError("shard must be nonempty")

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
        if self.steps < 1 or self.n_workers < 1 or self.eval_every < 1:
            raise ValueError("steps, n_workers and eval_every must be >= 1")

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
    final_params: np.ndarray | None = None
    initial_params: np.ndarray | None = None

    @property
    def accepted_updates(self) -> int:
        return self.accepted_honest + self.accepted_byz


# Stream ids; worker i owns 1000+i (batches) and 100000+i (attack noise).
# The server init stream is shared with filter training (see core).
_SID_BYZ_PICK = 21
_SID_SHARD = 22
_SID_WORKER_PICK = 23
_SID_BATCH_BASE = 1000
_SID_ATTACK_BASE = 100000


def worker_step(
    w: WorkerSpec,
    params: np.ndarray,
    arch: Architecture,
    batch_rng: np.random.Generator,
    attack_rng: np.random.Generator,
) -> GradientReport:
    """One worker turn: honest gradient on a fresh mini-batch, attacked if
    the worker is Byzantine. The reported scalar loss stays honest."""
    batch = sample_minibatch(w.shard, w.batch_size, batch_rng)
    report = models.backward(ServerModel(arch, params), batch)
    if w.attack is None:
        return report
    attacked = apply_attack(w.attack, report.gradient, attack_rng)
    return GradientReport(
        gradient=param_vector(attacked),
        loss=report.loss,
        provenance=Provenance(True, w.attack.kind),
    )


def build_workers(cfg: RunConfig, train_data: Dataset) -> list[WorkerSpec]:
    """Shard the training set i.i.d. and fix the Byzantine subset by seeded
    sampling; the subset does not change during the run."""
    shards = shard(train_data, cfg.n_workers, RngStream(cfg.seed, _SID_SHARD).generator())
    byz_ids = set(
        RngStream(cfg.seed, _SID_BYZ_PICK)
        .generator()
        .choice(cfg.n_workers, size=cfg.byzantine_count, replace=False)
        .tolist()
    )
    return [
        WorkerSpec(
            id=i,
            shard=shards[i],
            attack=cfg.attack if i in byz_ids else None,
            batch_size=cfg.batch_size,
        )
        for i in range(cfg.n_workers)
    ]


def _make_rngs(cfg: RunConfig):
    batch = [RngStream(cfg.seed, _SID_BATCH_BASE + i).generator() for i in range(cfg.n_workers)]
    attack = [RngStream(cfg.seed, _SID_ATTACK_BASE + i).generator() for i in range(cfg.n_workers)]
    return batch, attack


def evaluate(arch: Architecture, params: np.ndarray, dataset: Dataset) -> tuple[float, float]:
    """Exact accuracy fraction and mean loss over the full dataset."""
    if dataset.size < 1:
        raise ValueError("dataset must be nonempty")
    if dataset.in_dim != arch.in_dim:
        raise ShapeMismatchError(f"dataset dim {dataset.in_dim} != model {arch.in_dim}")
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

    ground_truth=True replaces the filter's decision with the worker's true
    provenance (oracle filtering); the result is the Byzantine-free twin of
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
    with cfg.aggregator. A non-finite gradient ends the run as diverged."""
    workers = build_workers(cfg, train_data)
    batch_rngs, attack_rngs = _make_rngs(cfg)
    pick_rng = RngStream(cfg.seed, _SID_WORKER_PICK).generator()
    params = init_params(arch, RngStream(cfg.seed, SID_SERVER_INIT).generator())

    m = RunMetrics(initial_params=params)
    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, cfg.steps + 1):
            if filt is None:
                queried = workers
            else:
                queried = [workers[int(pick_rng.integers(0, cfg.n_workers))]]
            try:
                reports = [
                    worker_step(w, params, arch, batch_rngs[w.id], attack_rngs[w.id])
                    for w in queried
                ]
            except (NonFiniteValueError, ValueError):
                m.diverged = True
                break
            m.transferred_gradients += len(reports)
            if filt is None:
                agg = aggregate(cfg.aggregator, [r.gradient for r in reports])
                params = params - cfg.server_lr * agg
                loss = float(np.mean([r.loss for r in reports]))
                truth = b = None
                decision = float(np.linalg.norm(agg))
            else:
                report = reports[0]
                truth = int(report.provenance.byzantine)
                b = truth if ground_truth else classify(filt, report.gradient, report.loss)
                params = apply_update(params, report.gradient, cfg.server_lr, b)
                if truth == 0 and b == 0:
                    m.accepted_honest += 1
                elif truth == 0:
                    m.rejected_honest += 1
                elif b == 0:
                    m.accepted_byz += 1
                else:
                    m.rejected_byz += 1
                loss = report.loss
                decision = float(b)
            m.steps.append(t)
            m.train_losses.append(loss)
            m.ground_truths.append(truth)
            m.predictions.append(b)
            m.decisions.append(decision)
            if t % cfg.eval_every == 0 or t == cfg.steps:
                acc, val_loss = evaluate(arch, params, val_data)
                m.eval_steps.append(t)
                m.val_accuracies.append(acc)
                m.val_losses.append(val_loss)
    m.wall_time = time.perf_counter() - start
    m.final_params = params
    return m


def bench_filtering(
    method: str,
    n: int,
    d: int,
    reps: int,
    seed: int = 0,
    f_count: int = 1,
) -> tuple[float, float]:
    """Wall time per filtering/aggregation decision over synthetic random
    gradients, excluding gradient generation. Returns (mean, stddev) seconds.

    method: "rgcf" or an aggregator kind.
    """
    if reps < 10:
        raise ValueError("reps must be >= 10")
    rng = RngStream(seed, 30).generator()
    times = np.empty(reps)
    if method == "rgcf":
        from .filter import filter_init

        filt = filter_init(d, rng)
        for r in range(reps):
            grad = rng.standard_normal(d)
            loss = float(abs(rng.standard_normal()))
            t0 = time.perf_counter()
            filter_forward(filt, grad, loss)
            times[r] = time.perf_counter() - t0
    else:
        spec = AggregatorSpec(method, f_count=f_count)
        spec.check_preconditions(n)
        for r in range(reps):
            grads = [rng.standard_normal(d) for _ in range(n)]
            t0 = time.perf_counter()
            aggregate(spec, grads)
            times[r] = time.perf_counter() - t0
    return float(times.mean()), float(times.std())
