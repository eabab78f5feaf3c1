"""Per-step cost of a training run, split by phase, for the filter and
three aggregators at n=10 workers, and of a filter-training step; the cost
of one aggregator call at d=100,000; and the wall time of a whole `compare`
grid.

    python3 scripts/step_cost.py OUT.json

Runs `run_rgcf` and `run_aggregated` in-process, on the default blobs MLP
(20 inputs, 5 classes, hidden 32: d=837) and on the wide one (784 inputs,
10 classes, hidden 32: d=25,450), with 30% gradient_shift workers and
f_count=3. Each run's phase times come from its RunMetrics (worker turns,
decision, update, eval), divided by its step count. The filter is freshly
initialised, not trained: a decision costs the same whatever its weights.
The `train_filter` row is the wall time of a `train_filter` run with the
default training config, less that of a zero-step run (the filter's set-up),
divided by its step count. The `compare` row is the wall time of
`rgcf compare` in-process over the 80-cell grid of perfbench's grid-wide
workload (all five methods, 4 attacks x 4 fractions, default MLP, n=10,
25 steps, with a filter trained at the default config), beside the CPU
seconds its pool workers used (RUSAGE_CHILDREN). The `aggregate` rows time
one `aggregate` call on a list of n rows of a fixed pool of standard normal
gradients at d=100,000, with f_count=1: median, trimmed mean and Bulyan at
n=10, and median and trimmed mean at n=40. Every cell runs once untimed,
then RUNS times, the cells interleaved so that machine drift hits all of
them alike. OUT.json holds, per cell and phase, the median and the
quartiles over the runs in milliseconds per step, the same per `aggregate`
call, the same for the `compare` row in seconds, and the machine. One BLAS
thread.

The rows that use more than one CPU, `compare` and the wide `train_filter`
(whose Adam steps are split across threads), depend on whether a second
CPU is free, which on a shared VM can change within the hour. So before
and after the rows, the script times two forked pure-Python spinners
against one, and OUT.json holds the ratio of their throughputs: near 2
when a second CPU was free, near 1 when it was taken. Takes 40–60 s on a
2-vCPU VM.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from rgcf import cli, core  # noqa: E402
from rgcf.aggregators import AggregatorSpec, aggregate  # noqa: E402
from rgcf.config import build_config  # noqa: E402
from rgcf.simulation import run_aggregated, run_rgcf, train_filter  # noqa: E402

RUNS = 9
SEED = 0
N_WORKERS = 10
F_COUNT = 3
# name: (inputs, classes, steps per run, filter-training steps per run)
MODELS = {"default": (20, 5, 400, 100), "wide": (784, 10, 60, 20)}
METHODS = ("rgcf", "krum", "median", "trimmed_mean", "train_filter")
PHASES = ("worker_s", "decision_s", "update_s", "eval_s")
# one aggregator call at d=AGGREGATE_D: (rule, n), each at f_count=1
AGGREGATE_D = 100_000
AGGREGATE_CALLS = (("median", 10), ("trimmed_mean", 10), ("bulyan", 10), ("median", 40), ("trimmed_mean", 40))
MLP = ["--set", "arch=mlp", "--set", "hidden=32"]
RUN = ["--set", f"n_workers={N_WORKERS}", "--set", "byzantine_fraction=0.3",
       "--set", "attack=gradient_shift", "--set", f"f_count={F_COUNT}"]
GRID_STEPS = 25
GRID = [*MLP, "--set", f"steps={GRID_STEPS}", "--set", f"n_workers={N_WORKERS}"]


def setup(in_dim: int, classes: int):
    """The config, data and model of one MLP, as `rgcf run` builds them,
    and a filter for it fresh from its initialisation: the filter of a
    zero-step training run."""
    args = [*MLP, *RUN, "--set", f"seed={SEED}", "--set", f"blobs_in_dim={in_dim}", "--set", f"blobs_classes={classes}"]
    cfg = build_config(None, dict(arg.split("=", 1) for arg in args[1::2]))
    train = cli.load_train(cfg)
    arch = cli.build_arch(cfg, train)
    filt, _ = train_filter(replace(cli.resolve(cfg).filter_train, steps=0), train, arch, SEED)
    return cfg, train, cli.load_val(cfg), arch, filt


def run(method: str, steps: int, cfg, train, val, arch, filt):
    if method == "rgcf":
        return run_rgcf(cli.resolve(replace(cfg, steps=steps)).run, train, val, arch, filt)
    spec = cli.resolve(replace(cfg, steps=steps, mode=cli.AGGREGATOR_MODE, aggregator=method)).run
    return run_aggregated(spec, train, val, arch)


def train_s_per_step(steps: int, cfg, train, arch) -> float:
    """Seconds per step of a train_filter run, less its set-up: the
    filter's initialisation and streams, timed by a zero-step run."""
    times = []
    for n in (0, steps):
        spec = replace(cli.resolve(cfg).filter_train, steps=n)
        t0 = time.perf_counter()
        train_filter(spec, train, arch, SEED)
        times.append(time.perf_counter() - t0)
    return (times[1] - times[0]) / steps


def aggregate_s(pool: list[np.ndarray]) -> list[float]:
    """Seconds of one `aggregate` call per AGGREGATE_CALLS row, on the
    pool's first n rows."""
    times = []
    for kind, n in AGGREGATE_CALLS:
        spec, rows = AggregatorSpec(kind, 1), pool[:n]
        t0 = time.perf_counter()
        aggregate(spec, rows)
        times.append(time.perf_counter() - t0)
    return times


def rgcf_cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(list(argv))
    if rc:
        raise RuntimeError(f"rgcf {argv[0]} exited {rc}")


def compare_s(out: str, filter_file: str) -> list[float]:
    """Wall seconds of one compare grid and the CPU seconds of its pool
    workers, which the command has joined when it returns."""
    def children_cpu() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    cpu = children_cpu()
    t0 = time.perf_counter()
    rgcf_cli("compare", "--seed", str(SEED), "--out", out, *GRID, "--set", f"filter_file={filter_file}")
    return [time.perf_counter() - t0, children_cpu() - cpu]


def spinners(k: int, seconds: float) -> int:
    """Loop turns that k forked pure-Python spinners complete in
    `seconds` each, summed."""
    pipes = []
    for _ in range(k):
        r, w = os.pipe()
        if os.fork() == 0:
            n, end = 0, time.perf_counter() + seconds
            while time.perf_counter() < end:
                n += 1
            os.write(w, str(n).encode())
            os._exit(0)
        os.close(w)
        pipes.append(r)
    total = 0
    for r in pipes:
        with os.fdopen(r) as f:
            total += int(f.read())
        os.wait()
    return total


def two_cpu_ratio(pairs: int = 3, seconds: float = 0.4) -> float:
    """Median over alternating pairs of two spinners' throughput over one's."""
    return float(np.median([spinners(2, seconds) / spinners(1, seconds) for _ in range(pairs)]))


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": 1,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 scripts/step_cost.py OUT.json", file=sys.stderr)
        return 1
    start = time.perf_counter()
    inputs = {name: setup(in_dim, classes) for name, (in_dim, classes, _, _) in MODELS.items()}
    cells = [(name, method) for name in MODELS for method in METHODS]
    samples: dict[tuple[str, str], list] = {cell: [] for cell in cells}
    grid_samples, aggregate_samples = [], []
    rng = core.stream(SEED, core.SID_BENCH)
    pool = [rng.standard_normal(AGGREGATE_D) for _ in range(max(n for _, n in AGGREGATE_CALLS))]
    two_cpu = {"before": two_cpu_ratio()}
    with tempfile.TemporaryDirectory() as grid_dir:
        filter_file = os.path.join(grid_dir, "filter.rgcf")
        rgcf_cli("train-filter", "--seed", str(SEED), "--out", grid_dir, *MLP)
        for rep in range(RUNS + 1):
            sample = compare_s(grid_dir, filter_file)
            if rep:
                grid_samples.append(sample)
            sample = aggregate_s(pool)
            if rep:
                aggregate_samples.append(sample)
            for name, method in cells:
                cfg, train, val, arch, filt = inputs[name]
                if method == "train_filter":
                    steps = MODELS[name][3]
                    per_step = [train_s_per_step(steps if rep else 2, cfg, train, arch)]
                else:
                    steps = MODELS[name][2]
                    m = run(method, steps if rep else 10, cfg, train, val, arch, filt)
                    per_step = [getattr(m, p) / steps for p in PHASES] + [m.wall_time / steps]
                if rep:
                    samples[name, method].append(per_step)
    two_cpu["after"] = two_cpu_ratio()
    results = []
    for (name, method), rows in samples.items():
        q1, med, q3 = np.percentile(np.array(rows) * 1e3, [25, 50, 75], axis=0)
        training = method == "train_filter"
        cell = {"model": name, "d": inputs[name][3].param_count, "method": method,
                "n": 2 if training else N_WORKERS, "steps": MODELS[name][3 if training else 2],
                "runs": RUNS}
        for i, phase in enumerate(("train_s",) if training else PHASES + ("wall_s",)):
            key = phase.replace("_s", "_ms_per_step")
            cell[key] = {"median": med[i], "q1": q1[i], "q3": q3[i]}
        results.append(cell)
        print(f"{name:8s} d={cell['d']:<6d} {method:13s} "
              + " ".join(f"{k[:-12]}={cell[k]['median']:.3f}" for k in cell if k.endswith("_ms_per_step")))
    calls = []
    q1, med, q3 = np.percentile(np.array(aggregate_samples) * 1e3, [25, 50, 75], axis=0)
    for i, (kind, n) in enumerate(AGGREGATE_CALLS):
        calls.append({"method": kind, "n": n, "d": AGGREGATE_D, "f_count": 1, "runs": RUNS,
                      "ms_per_call": {"median": med[i], "q1": q1[i], "q3": q3[i]}})
        print(f"aggregate d={AGGREGATE_D} {kind:13s} n={n:<3d} ms_per_call={med[i]:.3f} "
              f"(q1 {q1[i]:.3f}, q3 {q3[i]:.3f})")
    q1, med, q3 = np.percentile(grid_samples, [25, 50, 75], axis=0)
    grid = {"cells": 80, "n": N_WORKERS, "steps": GRID_STEPS, "d": inputs["default"][3].param_count, "runs": RUNS}
    for i, key in enumerate(("wall_s", "children_cpu_s")):
        grid[key] = {"median": med[i], "q1": q1[i], "q3": q3[i]}
    print(f"compare  80 cells, n={N_WORKERS}, {GRID_STEPS} steps: wall={med[0]:.3f} s "
          f"(q1 {q1[0]:.3f}, q3 {q3[0]:.3f}), children cpu={med[1]:.3f} s")
    print(f"two spinners / one: {two_cpu['before']:.2f} before the rows, {two_cpu['after']:.2f} after")
    record = {"what": "milliseconds per training step by phase, and per filter-training step; "
                      "milliseconds per aggregate call at d=100,000; "
                      "seconds per compare grid; median and quartiles over runs; "
                      "two forked spinners' throughput over one's, before and after the rows",
              "machine": machine(), "seconds": round(time.perf_counter() - start, 1), "cells": results,
              "aggregate": calls, "compare": grid, "two_cpu_ratio": two_cpu}
    Path(argv[0]).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {argv[0]} in {record['seconds']} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
