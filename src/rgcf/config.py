"""Flat key=value experiment configuration with CLI overrides.

The config format is deliberately plain: one `key=value` per line, `#`
comments. Every key is checked against the schema below and every value is
parsed into its field's type here: comma lists become tuples, and an empty
attack scale becomes None. The cli then builds every spec the config
describes before any output is written, so every key is validated before
computation starts. A resolved config written back out (the run manifest)
is itself a valid config file.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


class ConfigError(ValueError):
    pass


def _optional(parse):
    """An empty value is None (the consumer's default)."""
    return lambda s: parse(s) if s.strip() else None


def _tuple(parse):
    """A comma list; blank entries are dropped."""
    return lambda s: tuple(parse(x.strip()) for x in s.split(",") if x.strip())


@dataclass
class ExperimentConfig:
    seed: int = 0
    out: str = "out"

    # dataset
    task: str = "blobs"  # blobs | idx
    blobs_classes: int = 5
    blobs_per_class: int = 400
    blobs_in_dim: int = 20
    train_images: str = ""
    train_labels: str = ""
    val_images: str = ""
    val_labels: str = ""
    train_subset: int = 10000  # train-filter only: local subset for the idx task
    val_subset: int = 0  # 0 = full validation set

    # server model
    arch: str = "logistic"  # logistic | mlp
    hidden: tuple[int, ...] = (32,)
    batch_size: int = 128
    server_lr: float = 0.01

    # filter training
    filter_steps: int = 500
    positive_weight: float = 10.0
    filter_lr: float = 0.002
    train_attack: str = "random_gaussian"
    train_attack_scale: float | None = None  # empty = attack default
    filter_file: str = "filter.rgcf"  # the filter run and compare read

    # deployment run
    mode: str = "rgcf"  # rgcf | aggregator
    aggregator: str = "mean"
    f_count: int = -1  # -1 = round(n_workers * byzantine_fraction)
    n_workers: int = 10
    byzantine_fraction: float = 0.0
    attack: str = "inverse"
    attack_scale: float | None = None  # empty = attack default
    steps: int = 2000

    # bench
    bench_n: tuple[int, ...] = (10,)
    bench_d: int = 100000

    # compare grid
    compare_methods: tuple[str, ...] = ("rgcf", "krum", "median", "trimmed_mean", "bulyan")
    compare_attacks: tuple[str, ...] = ("inverse", "random_gaussian", "all_ones", "gradient_shift")
    compare_fractions: tuple[float, ...] = (0.2, 0.33, 0.5, 0.9)


_FIELDS = {f.name: f.type for f in fields(ExperimentConfig)}
_PARSERS = {"int": int, "float": float, "str": str}
_PARSERS |= {f"tuple[{t}, ...]": _tuple(_PARSERS[t]) for t in ("int", "float", "str")}
_PARSERS["float | None"] = _optional(float)


def parse_kv_lines(lines, source: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def build_config(
    config_path: str | None = None, overrides: dict[str, str] | None = None
) -> ExperimentConfig:
    raw: dict[str, str] = {}
    if config_path is not None:
        try:
            with open(config_path) as f:
                raw.update(parse_kv_lines(f, config_path))
        except OSError as e:
            raise ConfigError(f"cannot read config {config_path}: {e}") from e
    raw.update(overrides or {})
    cfg = ExperimentConfig()
    for key, value in raw.items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        # a manifest line could not hold it: '#' starts a comment there
        if any(c in value for c in "#\r\n"):
            raise ConfigError(f"bad value for {key}: {value!r} (holds '#' or a line break)")
        parser = _PARSERS[_FIELDS[key]]
        try:
            setattr(cfg, key, parser(value))
        except ValueError as e:
            raise ConfigError(f"bad value for {key}: {value!r} ({e})") from e
    return cfg


def write_manifest(cfg: ExperimentConfig, path: str) -> None:
    with open(path, "w") as f:
        f.write("# resolved experiment configuration; rerunnable via --config\n")
        for field in sorted(_FIELDS):
            value = getattr(cfg, field)
            if isinstance(value, tuple):
                value = ",".join(map(str, value))
            elif value is None:
                value = ""
            f.write(f"{field}={value}\n")
