"""Per-step cost of a training run, split by phase, for the filter and
three aggregators at n=10 workers, and of a filter-training step; the cost
of one aggregator call at d=100,000, as `rgcf bench` times it; and the wall
time of a whole `compare` grid.

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
seconds its pool workers used (RUSAGE_CHILDREN). Every one of these cells
runs once untimed, then RUNS times, the cells interleaved so that machine
drift hits all of them alike. After them, each `aggregate` row is one
`simulation.bench_filtering` call, with its warm-up and AGGREGATE_REPS timed
calls at d=100,000 and f_count=1: median, trimmed mean and Bulyan at n=10,
and median and trimmed mean at n=40. OUT.json holds, per cell and phase, the
median and the quartiles over the runs in milliseconds per step, the same
over the timed calls of each `aggregate` row in milliseconds per call, the
same for the `compare` row in seconds, and the machine. One BLAS thread.

The rows that use more than one CPU, `compare`, the wide `train_filter`
(whose Adam steps are split across threads) and the wide aggregator runs
(whose worker turns are), depend on whether a second CPU is free for
numpy work, which on a shared VM can change within minutes. So before and
after the rows, the script times two forked processes, each sorting
300,000 doubles five times (SORT_SIZE, SORT_REPS), against one, and
OUT.json holds the ratio of their wall times (`two_sorts_time_ratio`):
near 1 when a second CPU was free, about 2 when it was taken. The
clock starts once every child exists, so the forks are not timed. On a
2-vCPU Xeon VM, in alternating readings, it read 0.81–1.13 (median 0.99)
while the second vCPU was free and 1.92–2.08 while it was taken, where
timing the forks as well read 1.00–1.11 (median 1.08) and 1.98–2.08.
There, split wide worker turns gained in 24 of 24 alternating
pairs taken after a reading under 2.0 (forks timed), and in 2 of 6 after
one of 2.0 or more. Takes 40–60 s on a 2-vCPU VM.
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

from rgcf import cli  # noqa: E402
from rgcf.config import build_config  # noqa: E402
from rgcf.simulation import bench_filtering, run_aggregated, run_rgcf, train_filter  # noqa: E402

RUNS = 9
SEED = 0
N_WORKERS = 10
F_COUNT = 3
# name: (inputs, classes, steps per run, filter-training steps per run)
MODELS = {"default": (20, 5, 400, 100), "wide": (784, 10, 60, 20)}
METHODS = ("rgcf", "krum", "median", "trimmed_mean", "train_filter")
PHASES = ("worker_s", "decision_s", "update_s", "eval_s")
# one aggregator call at d=AGGREGATE_D: (rule, n), each at bench's f_count=1
AGGREGATE_D = 100_000
AGGREGATE_REPS = 10
AGGREGATE_CALLS = (("median", 10), ("trimmed_mean", 10), ("bulyan", 10), ("median", 40), ("trimmed_mean", 40))
MLP = ["--set", "arch=mlp", "--set", "hidden=32"]
RUN = ["--set", f"n_workers={N_WORKERS}", "--set", "byzantine_fraction=0.3",
       "--set", "attack=gradient_shift", "--set", f"f_count={F_COUNT}"]
GRID_STEPS = 25
GRID = [*MLP, "--set", f"steps={GRID_STEPS}", "--set", f"n_workers={N_WORKERS}"]
# the host probe: each forked process sorts SORT_SIZE doubles SORT_REPS times
SORT_SIZE = 300_000
SORT_REPS = 5


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


def sorts(k: int, data: np.ndarray) -> float:
    """Wall seconds until k forked processes have each sorted data
    SORT_REPS times, timed from when the last of them exists: each child
    waits on a pipe that this process writes after the last fork."""
    start_r, start_w = os.pipe()
    pids = []
    for _ in range(k):
        pid = os.fork()
        if pid == 0:
            os.read(start_r, 1)
            for _ in range(SORT_REPS):
                np.sort(data)
            os._exit(0)
        pids.append(pid)
    t0 = time.perf_counter()
    os.write(start_w, bytes(k))
    for pid in pids:
        os.waitpid(pid, 0)
    os.close(start_r)
    os.close(start_w)
    return time.perf_counter() - t0


def two_sorts_time_ratio(pairs: int = 3) -> float:
    """Median over alternating pairs of two forked sorting processes'
    wall time over one's."""
    data = np.random.default_rng(SEED).random(SORT_SIZE)
    return float(np.median([sorts(2, data) / sorts(1, data) for _ in range(pairs)]))


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
    grid_samples = []
    two_sorts = {"before": two_sorts_time_ratio()}
    with tempfile.TemporaryDirectory() as grid_dir:
        filter_file = os.path.join(grid_dir, "filter.rgcf")
        rgcf_cli("train-filter", "--seed", str(SEED), "--out", grid_dir, *MLP)
        for rep in range(RUNS + 1):
            sample = compare_s(grid_dir, filter_file)
            if rep:
                grid_samples.append(sample)
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
    aggregate_ms = {call: bench_filtering(*call, AGGREGATE_D, AGGREGATE_REPS, seed=SEED) * 1e3
                    for call in AGGREGATE_CALLS}
    two_sorts["after"] = two_sorts_time_ratio()
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
    for (kind, n), ms in aggregate_ms.items():
        q1, med, q3 = np.percentile(ms, [25, 50, 75])
        calls.append({"method": kind, "n": n, "d": AGGREGATE_D, "f_count": 1, "reps": AGGREGATE_REPS,
                      "ms_per_call": {"median": med, "q1": q1, "q3": q3}})
        print(f"aggregate d={AGGREGATE_D} {kind:13s} n={n:<3d} ms_per_call={med:.3f} "
              f"(q1 {q1:.3f}, q3 {q3:.3f})")
    q1, med, q3 = np.percentile(grid_samples, [25, 50, 75], axis=0)
    grid = {"cells": 80, "n": N_WORKERS, "steps": GRID_STEPS, "d": inputs["default"][3].param_count, "runs": RUNS}
    for i, key in enumerate(("wall_s", "children_cpu_s")):
        grid[key] = {"median": med[i], "q1": q1[i], "q3": q3[i]}
    print(f"compare  80 cells, n={N_WORKERS}, {GRID_STEPS} steps: wall={med[0]:.3f} s "
          f"(q1 {q1[0]:.3f}, q3 {q3[0]:.3f}), children cpu={med[1]:.3f} s")
    print(f"two sorts / one, wall time: {two_sorts['before']:.2f} before the rows, {two_sorts['after']:.2f} after")
    record = {"what": "milliseconds per training step by phase, and per filter-training step; "
                      "milliseconds per aggregate call at d=100,000 over one bench's timed calls; "
                      "seconds per compare grid; median and quartiles; "
                      "wall time of two forked sorting processes over one's, before and after the rows",
              "machine": machine(), "seconds": round(time.perf_counter() - start, 1), "cells": results,
              "aggregate": calls, "compare": grid, "two_sorts_time_ratio": two_sorts}
    Path(argv[0]).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {argv[0]} in {record['seconds']} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
