"""Command-line entry point: train-filter, run, bench and compare.

Every command resolves its configuration (config file plus --set overrides),
validates it fully, writes a manifest.txt of the resolved config into the
output directory, and emits CSV artifacts with floats formatted to 9
significant digits for byte-stable reruns.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import models
from .aggregators import AGGREGATOR_KINDS, BULYAN, COORD_MEDIAN, KRUM, MEAN, TRIMMED_MEAN, AggregatorSpec
from .attacks import AttackSpec
from .config import ConfigError, ExperimentConfig, build_config, write_manifest
from .core import RngStream, TooFewWorkersError
from .data import Dataset, load_idx, synth_gaussian_blobs
from .filter import FilterNet, FilterTrainConfig, load_filter, save_filter, train_filter
from .models import Architecture
from .simulation import RunConfig, RunMetrics, bench_filtering, run_aggregated, run_rgcf

_SID_BLOBS_TRAIN = 40
_SID_BLOBS_VAL = 41

RGCF_MODE = "rgcf"
AGGREGATOR_MODE = "aggregator"


class ValidationError(ValueError):
    pass


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


def load_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Returns (train, val)."""
    if cfg.task == "blobs":
        train = synth_gaussian_blobs(
            cfg.blobs_classes,
            cfg.blobs_per_class,
            cfg.blobs_in_dim,
            cfg.blobs_separation,
            RngStream(cfg.seed, _SID_BLOBS_TRAIN).generator(),
        )
        val = synth_gaussian_blobs(
            cfg.blobs_classes,
            cfg.blobs_val_per_class,
            cfg.blobs_in_dim,
            cfg.blobs_separation,
            RngStream(cfg.seed, _SID_BLOBS_VAL).generator(),
        )
        return train, val
    if cfg.task == "idx":
        for path in (cfg.train_images, cfg.train_labels, cfg.val_images, cfg.val_labels):
            if not path:
                raise ValidationError("idx task requires train_images/train_labels/val_images/val_labels")
            if not os.path.exists(path):
                raise ValidationError(f"dataset file not found: {path}")
        train = load_idx(cfg.train_images, cfg.train_labels)
        val = load_idx(cfg.val_images, cfg.val_labels)
        if cfg.train_subset and cfg.train_subset < train.size:
            train = Dataset(
                inputs=train.inputs[: cfg.train_subset],
                labels=train.labels[: cfg.train_subset],
                classes=train.classes,
            )
        if cfg.val_subset and cfg.val_subset < val.size:
            val = Dataset(
                inputs=val.inputs[: cfg.val_subset],
                labels=val.labels[: cfg.val_subset],
                classes=val.classes,
            )
        return train, val
    raise ValidationError(f"unknown task {cfg.task!r}")


def build_arch(cfg: ExperimentConfig, data: Dataset) -> Architecture:
    if cfg.arch == "logistic":
        return models.logistic(data.in_dim, data.classes)
    if cfg.arch == "mlp":
        hidden = cfg.hidden_dims()
        if not hidden:
            raise ValidationError("mlp arch requires nonempty hidden dims")
        return models.mlp(data.in_dim, hidden, data.classes)
    raise ValidationError(f"unknown arch {cfg.arch!r}")


def _spec(constructor, *args, **kwargs):
    """Build a spec from config values; a value the spec rejects is invalid
    configuration, not a runtime failure."""
    try:
        return constructor(*args, **kwargs)
    except ValueError as e:
        raise ValidationError(str(e)) from e


def build_attack(kind: str, scale: float | None) -> AttackSpec:
    return _spec(AttackSpec, kind, scale)


def resolve_f_count(cfg: ExperimentConfig) -> int:
    if cfg.f_count >= 0:
        return cfg.f_count
    return round(cfg.n_workers * cfg.byzantine_fraction)


def _outpath(cfg: ExperimentConfig, name: str) -> str:
    return os.path.join(cfg.out, name)


def _write_run_outputs(cfg: ExperimentConfig, m: RunMetrics) -> None:
    write_csv(
        _outpath(cfg, "steps.csv"),
        ["step", "train_loss", "ground_truth", "predicted", "decision"],
        zip(m.steps, m.train_losses, m.ground_truths, m.predictions, m.decisions),
    )
    write_csv(
        _outpath(cfg, "eval.csv"),
        ["step", "val_accuracy", "val_loss"],
        zip(m.eval_steps, m.val_accuracies, m.val_losses),
    )
    write_csv(
        _outpath(cfg, "summary.csv"),
        [
            "accepted_honest",
            "rejected_honest",
            "accepted_byz",
            "rejected_byz",
            "transferred_gradients",
            "diverged",
        ],
        [
            (
                m.accepted_honest,
                m.rejected_honest,
                m.accepted_byz,
                m.rejected_byz,
                m.transferred_gradients,
                int(m.diverged),
            )
        ],
    )
    # Wall time is the one nondeterministic output; kept out of the CSVs so
    # a rerun from the manifest reproduces them byte-identically.
    with open(_outpath(cfg, "timing.txt"), "w") as f:
        f.write(f"wall_time_seconds={m.wall_time:.6f}\n")


def cmd_train_filter(cfg: ExperimentConfig) -> int:
    train_data, _val = load_datasets(cfg)
    arch = build_arch(cfg, train_data)
    ftc = FilterTrainConfig(
        episodes=cfg.episodes,
        steps_per_episode=cfg.filter_steps,
        positive_weight=cfg.positive_weight,
        filter_lr=cfg.filter_lr,
        server_lr=cfg.server_lr,
        batch_size=cfg.batch_size,
        attack=build_attack(cfg.train_attack, cfg.train_attack_scale_value()),
        threshold=cfg.threshold,
        normalize=cfg.normalize,
    )
    os.makedirs(cfg.out, exist_ok=True)
    write_manifest(cfg, _outpath(cfg, "manifest.txt"))
    filt, log = train_filter(ftc, train_data, arch, cfg.seed)
    save_filter(filt, _outpath(cfg, cfg.filter_file))
    write_csv(
        _outpath(cfg, "filter_train.csv"),
        ["step", "loss", "running_accuracy"],
        zip(log.steps, log.losses, log.running_accuracy),
    )
    print(f"trained filter (d={filt.d}) -> {_outpath(cfg, cfg.filter_file)}")
    return 0


def _build_run_config(cfg: ExperimentConfig, fraction=None, attack=None, aggregator=None) -> RunConfig:
    return _spec(
        RunConfig,
        n_workers=cfg.n_workers,
        byzantine_fraction=fraction if fraction is not None else cfg.byzantine_fraction,
        attack=attack or build_attack(cfg.attack, cfg.attack_scale_value()),
        steps=cfg.steps,
        seed=cfg.seed,
        aggregator=aggregator,
        server_lr=cfg.server_lr,
        eval_every=cfg.eval_every,
        batch_size=cfg.batch_size,
    )


def _load_filter(cfg: ExperimentConfig, arch: Architecture) -> FilterNet:
    """The configured filter file, which must exist and fit the model."""
    if not os.path.exists(cfg.filter_file):
        raise ValidationError(f"filter file not found: {cfg.filter_file}")
    filt = load_filter(cfg.filter_file)
    if filt.d != arch.param_count:
        raise ValidationError(
            f"filter dimension {filt.d} does not match model dimension {arch.param_count}"
        )
    return filt


def cmd_run(cfg: ExperimentConfig) -> int:
    if cfg.mode not in (RGCF_MODE, AGGREGATOR_MODE):
        raise ValidationError(f"unknown mode {cfg.mode!r}")
    train_data, val_data = load_datasets(cfg)
    arch = build_arch(cfg, train_data)
    run_cfg = _build_run_config(cfg)
    if cfg.mode == RGCF_MODE:
        filt = _load_filter(cfg, arch)
    else:
        aggregator = _spec(
            AggregatorSpec, cfg.aggregator, max(0, resolve_f_count(cfg)), cfg.krum_squared
        )
        aggregator.check_preconditions(run_cfg.n_workers)
        run_cfg = replace(run_cfg, aggregator=aggregator)
    os.makedirs(cfg.out, exist_ok=True)
    write_manifest(cfg, _outpath(cfg, "manifest.txt"))
    if cfg.mode == RGCF_MODE:
        m = run_rgcf(run_cfg, train_data, val_data, arch, filt)
    else:
        m = run_aggregated(run_cfg, train_data, val_data, arch)
    _write_run_outputs(cfg, m)
    acc = m.val_accuracies[-1] if m.val_accuracies else float("nan")
    print(f"run finished: final val accuracy {acc:.4f}, diverged={m.diverged}")
    return 0


def cmd_bench(cfg: ExperimentConfig) -> int:
    methods = [m.strip() for m in cfg.bench_methods.split(",") if m.strip()]
    ns = [int(x) for x in cfg.bench_n.split(",") if x.strip()]
    for method in methods:
        if method != "rgcf" and method not in AGGREGATOR_KINDS:
            raise ValidationError(f"unknown bench method {method!r}")
    os.makedirs(cfg.out, exist_ok=True)
    write_manifest(cfg, _outpath(cfg, "manifest.txt"))
    rows = []
    for method in methods:
        for n in ns:
            mean, std = bench_filtering(
                method, n, cfg.bench_d, cfg.bench_reps, seed=cfg.seed, f_count=cfg.bench_f_count
            )
            rows.append((method, n, cfg.bench_d, cfg.bench_reps, mean, std))
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


def clamped_f_count(kind: str, n: int, f_true: int) -> int | None:
    """The assumed-f an operator would hand a baseline. Krum and trimmed
    mean cap at their feasible maximum; Bulyan has no sensible cap (its
    n >= 4f+3 bound is structural), so infeasible cells are skipped."""
    if kind in (MEAN, COORD_MEDIAN):
        return 0
    if kind == KRUM:
        return min(f_true, n - 3) if n >= 3 else None
    if kind == TRIMMED_MEAN:
        return min(f_true, (n - 1) // 2)
    if kind == BULYAN:
        return f_true if n >= 4 * f_true + 3 else None
    raise ValidationError(f"unknown method {kind!r}")


def convergence_verdict(m: RunMetrics, ref: float) -> tuple[str, float]:
    """Binary verdict against the clean reference accuracy: ✓ if the final
    validation accuracy is finite and within 3 points of the reference, ✗
    otherwise. The reference is the Byzantine-free twin of the run, so both
    sides have spent the same accepted-update budget."""
    acc = m.val_accuracies[-1] if m.val_accuracies else float("nan")
    loss = m.val_losses[-1] if m.val_losses else float("nan")
    if m.diverged or not np.isfinite(loss) or not np.isfinite(acc):
        return FAILED, acc
    if acc >= ref - 0.03:
        return CONVERGED, acc
    return FAILED, acc


def cmd_compare(cfg: ExperimentConfig) -> int:
    methods = [m.strip() for m in cfg.compare_methods.split(",") if m.strip()]
    attacks = [a.strip() for a in cfg.compare_attacks.split(",") if a.strip()]
    fractions = [float(x) for x in cfg.compare_fractions.split(",") if x.strip()]
    attack_specs = [(a, build_attack(a, cfg.attack_scale_value())) for a in attacks]
    for meth in methods:
        if meth != "rgcf" and meth not in AGGREGATOR_KINDS:
            raise ValidationError(f"unknown method {meth!r}")
    for fraction in fractions:
        if not 0.0 <= fraction <= 1.0:
            raise ValidationError(f"compare fraction {fraction} must lie in [0,1]")
    train_data, val_data = load_datasets(cfg)
    arch = build_arch(cfg, train_data)
    filt = _load_filter(cfg, arch) if "rgcf" in methods else None
    os.makedirs(cfg.out, exist_ok=True)
    write_manifest(cfg, _outpath(cfg, "manifest.txt"))

    # Clean references, one per distinct configuration. For the filter mode
    # the reference is the oracle twin of each cell (same picks/batches,
    # ground-truth filtering); for an aggregator it is the same aggregator
    # and f_count with zero Byzantine workers, cached across cells.
    agg_refs: dict[tuple[str, int], float] = {}

    def aggregator_reference(spec: AggregatorSpec) -> float:
        key = (spec.kind, spec.f_count)
        if key not in agg_refs:
            run_cfg = _build_run_config(
                cfg, fraction=0.0, attack=AttackSpec("inverse", 1.0), aggregator=spec
            )
            m = run_aggregated(run_cfg, train_data, val_data, arch)
            agg_refs[key] = m.val_accuracies[-1] if m.val_accuracies else float("nan")
        return agg_refs[key]

    path = _outpath(cfg, "convergence_matrix.csv")
    header = ["method", "attack", "fraction", "f_count", "final_accuracy", "clean_reference", "verdict"]
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.flush()
        for attack_kind, attack in attack_specs:
            for fraction in fractions:
                f_true = round(cfg.n_workers * fraction)
                for method in methods:
                    if method == "rgcf":
                        run_cfg = _build_run_config(cfg, fraction=fraction, attack=attack)
                        oracle = run_rgcf(run_cfg, train_data, val_data, arch, filt, ground_truth=True)
                        ref = oracle.val_accuracies[-1] if oracle.val_accuracies else float("nan")
                        m = run_rgcf(run_cfg, train_data, val_data, arch, filt)
                        verdict, acc = convergence_verdict(m, ref)
                        row = (method, attack_kind, fraction, None, acc, ref, verdict)
                    else:
                        fc = clamped_f_count(method, cfg.n_workers, f_true)
                        if fc is None:
                            row = (method, attack_kind, fraction, None, None, None, SKIPPED)
                        else:
                            spec = AggregatorSpec(method, fc, cfg.krum_squared)
                            try:
                                spec.check_preconditions(cfg.n_workers)
                            except TooFewWorkersError:
                                row = (method, attack_kind, fraction, fc, None, None, SKIPPED)
                            else:
                                ref = aggregator_reference(spec)
                                run_cfg = _build_run_config(
                                    cfg, fraction=fraction, attack=attack, aggregator=spec
                                )
                                m = run_aggregated(run_cfg, train_data, val_data, arch)
                                verdict, acc = convergence_verdict(m, ref)
                                row = (method, attack_kind, fraction, fc, acc, ref, verdict)
                    f.write(",".join(fmt(c) for c in row) + "\n")
                    f.flush()
                    print(f"compare {attack_kind} f={fraction:.0%} {method}: {row[-1]}")
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
            overrides["out"] = args.out
        cfg = build_config(args.config, overrides)
        return COMMANDS[args.command](cfg)
    except (ConfigError, ValidationError, TooFewWorkersError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
