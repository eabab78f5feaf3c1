"""Command-line entry point: train-filter, run, bench and compare.

Every command runs in three phases. It resolves its configuration (config
file plus --set overrides) into every spec the config describes, whichever
command runs, reads the data and filter files it needs and loads the
compiled kernels it needs; it writes a manifest.txt of the resolved config
into the output directory; then it computes, emitting CSV artifacts with
floats formatted to 9 significant digits for byte-stable reruns. Invalid
configuration is a ConfigError, raised before any output is written.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import core, kernels, models
from .aggregators import BULYAN, AggregatorSpec, max_f_count
from .attacks import INVERSE, AttackSpec
from .config import ConfigError, ExperimentConfig, build_config, write_manifest
from .core import stream
from .data import Dataset, load_idx, synth_gaussian_blobs
from .filter import FilterNet, load_filter, save_filter, start_digest
from .models import Architecture
from .simulation import FilterTrainConfig, RunConfig, RunMetrics, bench_filtering, bench_spec
from .simulation import run_aggregated, run_rgcf, server_start, train_filter

RGCF_MODE = "rgcf"
AGGREGATOR_MODE = "aggregator"
# the methods `bench` times, each over BENCH_REPS timed calls at every n
BENCH_METHODS = ("rgcf", "krum", "median", "trimmed_mean", "bulyan")
BENCH_REPS = 100
# the file train-filter writes under out; filter_file names the one run and compare read
FILTER_FILE = "filter.rgcf"


def fmt(x) -> str:
    """CSV cell formatting: 9 significant digits for floats, blank for None."""
    if x is None:
        return ""
    if isinstance(x, float) or isinstance(x, np.floating):
        return f"{x:.9g}"
    return str(x)


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(fmt(c) for c in row) + "\n")


def _head(data: Dataset, n: int) -> Dataset:
    """The first n examples; all of them when n is 0 or not below the size."""
    if not n or n >= data.size:
        return data
    return Dataset(inputs=data.inputs[:n], labels=data.labels[:n], classes=data.classes)


# the blobs task's distance of each class mean from the origin
BLOBS_SEPARATION = 10.0
# the blobs validation set's examples per class
BLOBS_VAL_PER_CLASS = 200


def _blobs(cfg: ExperimentConfig, per_class: int, sid: int) -> Dataset:
    try:
        return synth_gaussian_blobs(
            cfg.blobs_classes, per_class, cfg.blobs_in_dim, BLOBS_SEPARATION, stream(cfg.seed, sid)
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e


def load_train(cfg: ExperimentConfig) -> Dataset:
    """The training set. Settings the data cannot satisfy are a
    ConfigError; a corrupt IDX file is a runtime failure."""
    if cfg.task == "blobs":
        train = _blobs(cfg, cfg.blobs_per_class, core.SID_BLOBS_TRAIN)
    else:
        for path in (cfg.train_images, cfg.train_labels, cfg.val_images, cfg.val_labels):
            if not path:
                raise ConfigError("idx task requires train_images/train_labels/val_images/val_labels")
            if not os.path.exists(path):
                raise ConfigError(f"dataset file not found: {path}")
        train = load_idx(cfg.train_images, cfg.train_labels)
    if cfg.n_workers > train.size:
        raise ConfigError(f"n_workers={cfg.n_workers} exceeds the {train.size} training examples")
    return train


def load_val(cfg: ExperimentConfig) -> Dataset:
    """The validation set, for settings that resolve and load_train have checked."""
    if cfg.task == "blobs":
        return _blobs(cfg, BLOBS_VAL_PER_CLASS, core.SID_BLOBS_VAL)
    return _head(load_idx(cfg.val_images, cfg.val_labels), cfg.val_subset)


def build_arch(cfg: ExperimentConfig, data: Dataset) -> Architecture:
    if cfg.arch == "logistic":
        return models.logistic(data.in_dim, data.classes)
    return models.mlp(data.in_dim, cfg.hidden, data.classes)


@dataclass(frozen=True)
class Specs:
    """Every spec an ExperimentConfig describes."""

    run: RunConfig  # with the AggregatorSpec in aggregator mode
    filter_train: FilterTrainConfig
    # The compare grid in row order: (method, attack, fraction, cell), where
    # the cell is None when the method cannot run at that fraction.
    grid: tuple[tuple[str, str, float, RunConfig | None], ...]


def resolve(cfg: ExperimentConfig) -> Specs:
    """Build every spec the config describes, whichever command runs, so
    that invalid configuration is a ConfigError before any output."""
    try:
        if not cfg.out:
            raise ConfigError("out is empty: name an output directory")
        if cfg.task not in ("blobs", "idx"):
            raise ConfigError(f"unknown task {cfg.task!r}")
        if cfg.arch not in ("logistic", "mlp"):
            raise ConfigError(f"unknown arch {cfg.arch!r}")
        if cfg.arch == "mlp" and (not cfg.hidden or min(cfg.hidden) < 1):
            raise ConfigError("mlp arch requires nonempty, positive hidden dims")
        if min(cfg.train_subset, cfg.val_subset) < 0:
            raise ConfigError("train_subset and val_subset must be >= 0")
        run = RunConfig(
            n_workers=cfg.n_workers,
            byzantine_fraction=cfg.byzantine_fraction,
            attack=AttackSpec(cfg.attack, cfg.attack_scale),
            steps=cfg.steps,
            seed=cfg.seed,
            server_lr=cfg.server_lr,
            batch_size=cfg.batch_size,
        )
        f_count = run.byzantine_count if cfg.f_count == -1 else cfg.f_count
        aggregator = AggregatorSpec(cfg.aggregator, f_count)
        if cfg.mode == AGGREGATOR_MODE:
            run = replace(run, aggregator=aggregator)
        elif cfg.mode != RGCF_MODE:
            raise ConfigError(f"unknown mode {cfg.mode!r}")
        filter_train = FilterTrainConfig(
            steps=cfg.filter_steps,
            positive_weight=cfg.positive_weight,
            filter_lr=cfg.filter_lr,
            server_lr=cfg.server_lr,
            batch_size=cfg.batch_size,
            attack=AttackSpec(cfg.train_attack, cfg.train_attack_scale),
        )
        for method in BENCH_METHODS:
            for n in cfg.bench_n:
                bench_spec(method, n, cfg.bench_d, BENCH_REPS)
        for key in ("bench_n", "compare_methods", "compare_attacks", "compare_fractions"):
            values = getattr(cfg, key)
            if not values:
                raise ConfigError(f"{key} is empty")
            # a grid row is keyed by (method, attack, fraction), a bench row by (method, n)
            if len(set(values)) < len(values):
                raise ConfigError(f"{key} lists an entry twice: {','.join(map(str, values))}")
        attacks = [AttackSpec(kind, cfg.attack_scale) for kind in cfg.compare_attacks]
        bases = [replace(run, byzantine_fraction=x, aggregator=None) for x in cfg.compare_fractions]
        grid = []
        for attack in attacks:
            for base in bases:
                for method in cfg.compare_methods:
                    cell = replace(base, attack=attack)
                    if method != "rgcf":
                        fc = clamped_f_count(method, base.n_workers, base.byzantine_count)
                        cell = None if fc is None else replace(cell, aggregator=AggregatorSpec(method, fc))
                    grid.append((method, attack.kind, base.byzantine_fraction, cell))
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return Specs(run, filter_train, tuple(grid))


def _outpath(cfg: ExperimentConfig, name: str) -> str:
    return os.path.join(cfg.out, name)


def _write_run_outputs(cfg: ExperimentConfig, m: RunMetrics) -> None:
    write_csv(
        _outpath(cfg, "steps.csv"),
        ["step", "train_loss", "ground_truth", "predicted", "decision"],
        zip(itertools.count(1), m.train_losses, m.ground_truths, m.predictions, m.decisions),
    )
    write_csv(
        _outpath(cfg, "eval.csv"),
        ["step", "val_accuracy", "val_loss"],
        zip(m.eval_steps, m.val_accuracies, m.val_losses),
    )
    # each summary column is the RunMetrics field of its name, diverged as 0 or 1
    summary = ["accepted_honest", "rejected_honest", "accepted_byz", "rejected_byz",
               "transferred_gradients", "diverged"]
    write_csv(_outpath(cfg, "summary.csv"), summary, [[int(getattr(m, key)) for key in summary]])
    # Wall time, in total and by phase, is the one nondeterministic output;
    # kept out of the CSVs so a rerun from the manifest reproduces them
    # byte-identically.
    with open(_outpath(cfg, "timing.txt"), "w") as f:
        f.write(f"wall_time_seconds={m.wall_time:.6f}\n")
        for phase in ("worker_s", "decision_s", "update_s", "eval_s"):
            f.write(f"{phase}={getattr(m, phase):.6f}\n")


def cmd_train_filter(cfg: ExperimentConfig, specs: Specs) -> int:
    train_data = load_train(cfg)
    if cfg.task == "idx":
        train_data = _head(train_data, cfg.train_subset)
    arch = build_arch(cfg, train_data)
    _load_kernels()
    os.makedirs(cfg.out, exist_ok=True)
    write_manifest(cfg, _outpath(cfg, "manifest.txt"))
    filt, log = train_filter(specs.filter_train, train_data, arch, cfg.seed)
    save_filter(filt, _outpath(cfg, FILTER_FILE))
    write_csv(
        _outpath(cfg, "filter_train.csv"),
        ["step", "loss", "running_accuracy"],
        zip(itertools.count(1), log.losses, log.running_accuracy),
    )
    print(f"trained filter (d={filt.d}) -> {_outpath(cfg, FILTER_FILE)}")
    return 0


def _load_filter(cfg: ExperimentConfig, arch: Architecture) -> FilterNet:
    """The configured filter file, which must exist, fit the model and
    guard the run's start: its training run started the server where this
    run starts the model."""
    if not os.path.exists(cfg.filter_file):
        raise ConfigError(f"filter file not found: {cfg.filter_file}")
    filt = load_filter(cfg.filter_file)
    if filt.d != arch.param_count:
        raise ConfigError(
            f"filter dimension {filt.d} does not match model dimension {arch.param_count}"
        )
    if filt.start != start_digest(server_start(arch, cfg.seed)):
        raise ConfigError(
            f"{cfg.filter_file} was not trained from this run's model start: train it at seed={cfg.seed}"
        )
    return filt


def _load_kernels(cells: list[RunConfig] | None = None) -> None:
    """Build or load the compiled kernels now, so that without a compiler
    the command fails before any output: always (cells None) for Adam in
    train-filter and the sorted columns in bench, else if a cell's
    aggregator sorts with them. compare's forked workers inherit them."""
    if cells is None or any(cell.aggregator is not None and cell.aggregator.compiled for cell in cells):
        kernels.library()


def cmd_run(cfg: ExperimentConfig, specs: Specs) -> int:
    train_data, val_data = load_train(cfg), load_val(cfg)
    arch = build_arch(cfg, train_data)
    filt = _load_filter(cfg, arch) if cfg.mode == RGCF_MODE else None
    _load_kernels([specs.run])
    os.makedirs(cfg.out, exist_ok=True)
    write_manifest(cfg, _outpath(cfg, "manifest.txt"))
    if filt is not None:
        m = run_rgcf(specs.run, train_data, val_data, arch, filt)
    else:
        m = run_aggregated(specs.run, train_data, val_data, arch)
    _write_run_outputs(cfg, m)
    line = f"run finished: final val accuracy {m.final_accuracy:.4f}, diverged={m.diverged}"
    if filt is not None:
        line += f", precision {_share(m.rejected_byz, m.rejected_honest)}"
        line += f", recall {_share(m.rejected_byz, m.accepted_byz)}"
    print(line)
    return 0


def _share(hits: int, misses: int) -> str:
    """hits / (hits + misses) to 4 places, or - when both are 0."""
    return f"{hits / (hits + misses):.4f}" if hits + misses else "-"


def cmd_bench(cfg: ExperimentConfig, specs: Specs) -> int:
    load_train(cfg)  # judges the data settings, as every command does
    _load_kernels()
    os.makedirs(cfg.out, exist_ok=True)
    write_manifest(cfg, _outpath(cfg, "manifest.txt"))
    rows = []
    for method in BENCH_METHODS:
        for n in cfg.bench_n:
            times = bench_filtering(method, n, cfg.bench_d, BENCH_REPS, seed=cfg.seed)
            mean, std = float(times.mean()), float(times.std())
            rows.append((method, n, cfg.bench_d, BENCH_REPS, mean, std))
            print(f"bench {method} n={n}: {mean:.6f} +/- {std:.6f} s")
    write_csv(
        _outpath(cfg, "bench.csv"),
        ["method", "n", "d", "reps", "mean_seconds", "std_seconds"],
        rows,
    )
    return 0


CONVERGED = "✓"
FAILED = "✗"
SKIPPED = "–"
# a ✓ cell's final accuracy is at least its clean reference minus this
CONVERGENCE_TOLERANCE = 0.03


def clamped_f_count(kind: str, n: int, f_true: int) -> int | None:
    """The assumed-f an operator would hand a baseline, or None when the
    cell is skipped. Krum and trimmed mean cap at the largest f_count they
    accept; Bulyan has no sensible cap (its bound is structural), so
    infeasible cells are skipped."""
    bound = max_f_count(kind, n)
    if bound is None:
        return 0
    if kind == BULYAN:
        return f_true if f_true <= bound else None
    return min(f_true, bound) if bound >= 0 else None


def convergence_verdict(m: RunMetrics, ref: float) -> tuple[str, float, float | None]:
    """Verdict, final accuracy and margin of a cell against its clean
    reference accuracy: ✓ if the final validation accuracy is finite and at
    least ref - CONVERGENCE_TOLERANCE, ✗ otherwise. The margin is how far the
    accuracy is from flipping the verdict: acc - (ref - tolerance) for ✓, its
    negation for ✗, and None for a ✗ from divergence or a non-finite value.
    A compare cell's reference is the run of `reference(cell)`."""
    acc = m.final_accuracy
    loss = m.val_losses[-1] if m.val_losses else float("nan")
    if m.diverged or not np.isfinite([loss, acc, ref]).all():
        return FAILED, acc, None
    margin = acc - (ref - CONVERGENCE_TOLERANCE)
    return (CONVERGED, acc, margin) if margin >= 0 else (FAILED, acc, -margin)


# The loaded inputs of compare's cell jobs: (train, val, arch, filter), set
# by _init_cell_worker in each pool worker and never in the parent.
_cell_inputs: tuple[Dataset, Dataset, Architecture, FilterNet | None] | None = None


def _init_cell_worker(workers: int, *inputs) -> None:
    global _cell_inputs
    _cell_inputs = inputs
    core.share_cpus(workers)


def reference(cell: RunConfig) -> tuple[RunConfig, bool]:
    """The run a compare cell is scored against, as (config, ground_truth):
    for an aggregator cell the same aggregator and f_count with no Byzantine
    worker, for a filtered cell its oracle twin. Neither lets an attack reach
    the model, so both take one fixed attack: the filtered cells at one
    fraction share one twin, and the aggregator cells of one spec one run."""
    attack = AttackSpec(INVERSE, 1.0)
    if cell.aggregator is not None:
        return replace(cell, byzantine_fraction=0.0, attack=attack), False
    return replace(cell, attack=attack), True


def _cell_job(cell: RunConfig, ground_truth: bool = False) -> RunMetrics:
    """One run of a compare job, cut to what a verdict reads."""
    train_data, val_data, arch, filt = _cell_inputs
    if cell.aggregator is not None:
        m = run_aggregated(cell, train_data, val_data, arch)
    else:
        m = run_rgcf(cell, train_data, val_data, arch, filt, ground_truth=ground_truth)
    return RunMetrics(val_accuracies=m.val_accuracies[-1:], val_losses=m.val_losses[-1:], diverged=m.diverged)


def cmd_compare(cfg: ExperimentConfig, specs: Specs) -> int:
    import concurrent.futures
    import multiprocessing

    if cfg.f_count != -1:
        raise ConfigError(f"f_count={cfg.f_count}: each compare cell assumes its true Byzantine count")
    train_data, val_data = load_train(cfg), load_val(cfg)
    arch = build_arch(cfg, train_data)
    filt = _load_filter(cfg, arch) if "rgcf" in cfg.compare_methods else None
    cells = [cell for *_, cell in specs.grid if cell is not None]
    _load_kernels(cells)
    os.makedirs(cfg.out, exist_ok=True)
    write_manifest(cfg, _outpath(cfg, "manifest.txt"))

    # The cells and their references are independent runs, so they run as
    # jobs on a pool of forked workers that inherit the loaded inputs,
    # unpickled: first each distinct reference, then every runnable cell in
    # grid order. Rows are written in grid order as their results arrive.
    # With the fork context the executor forks all its workers at the first
    # submit, before it starts a thread of its own. Each worker splits its
    # own turns and Adam steps over its share of the CPUs only.
    keys = dict.fromkeys(reference(cell) for cell in cells)
    workers = core.cpu_parts(len(keys) + len(cells), 1)
    pool = concurrent.futures.ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_cell_worker,
        initargs=(workers, train_data, val_data, arch, filt),
    )
    try:
        refs = {key: pool.submit(_cell_job, *key) for key in keys}
        results = iter([pool.submit(_cell_job, cell) for cell in cells])
        path = _outpath(cfg, "convergence_matrix.csv")
        header = "method,attack,fraction,f_count,final_accuracy,clean_reference,verdict,margin"
        with open(path, "w") as f:
            f.write(header + "\n")
            f.flush()
            for method, attack_kind, fraction, cell in specs.grid:
                if cell is None:
                    row = (method, attack_kind, fraction, None, None, None, SKIPPED, None)
                else:
                    m, ref = next(results).result(), refs[reference(cell)].result().final_accuracy
                    f_count = None if cell.aggregator is None else cell.aggregator.f_count
                    verdict, acc, margin = convergence_verdict(m, ref)
                    row = (method, attack_kind, fraction, f_count, acc, ref, verdict, margin)
                f.write(",".join(fmt(c) for c in row) + "\n")
                f.flush()
                print(f"compare {attack_kind} f={fraction:.0%} {method}: {row[6]}")
    finally:
        pool.shutdown(cancel_futures=True)
    return 0


COMMANDS = {
    "train-filter": cmd_train_filter,
    "run": cmd_run,
    "bench": cmd_bench,
    "compare": cmd_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgcf",
        description="Byzantine fault tolerance lab: gradient-classification filtering vs. robust aggregation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--seed", type=int, default=None, help="experiment seed override")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config field (repeatable)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {}
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            overrides[key.strip()] = value.strip()
        if args.seed is not None:
            overrides["seed"] = str(args.seed)
        if args.out is not None:
            overrides["out"] = args.out.strip()
        cfg = build_config(args.config, overrides)
        return COMMANDS[args.command](cfg, resolve(cfg))
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
