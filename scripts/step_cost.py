"""Per-step cost of a training run, split by phase, for the filter and
three aggregators at n=10 workers.

    python3 scripts/step_cost.py OUT.json

Runs `run_rgcf` and `run_aggregated` in-process, on the default blobs MLP
(20 inputs, 5 classes, hidden 32: d=837) and on the wide one (784 inputs,
10 classes, hidden 32: d=25,450), with 30% gradient_shift workers and
f_count=3. Each run's phase times come from its RunMetrics (worker turns,
decision, update, eval), divided by its step count. Every cell runs once
untimed, then RUNS times, the cells interleaved so that machine drift hits
all of them alike. OUT.json holds, per cell and phase, the median and the
quartiles over the runs in milliseconds per step, and the machine. The
filter is freshly initialised, not trained: a decision costs the same
whatever its weights. One BLAS thread. Takes 25–40 s on a 2-vCPU VM.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from rgcf import core, models  # noqa: E402
from rgcf.aggregators import AggregatorSpec  # noqa: E402
from rgcf.attacks import AttackSpec  # noqa: E402
from rgcf.data import synth_gaussian_blobs  # noqa: E402
from rgcf.filter import filter_init  # noqa: E402
from rgcf.simulation import RunConfig, run_aggregated, run_rgcf  # noqa: E402

RUNS = 9
SEED = 0
N_WORKERS = 10
F_COUNT = 3
# name: (inputs, classes, steps per run)
MODELS = {"default": (20, 5, 400), "wide": (784, 10, 60)}
METHODS = ("rgcf", "krum", "median", "trimmed_mean")
PHASES = ("worker_s", "decision_s", "update_s", "eval_s")


def setup(in_dim: int, classes: int):
    train = synth_gaussian_blobs(classes, 400, in_dim, 10.0, core.stream(SEED, core.SID_BLOBS_TRAIN))
    val = synth_gaussian_blobs(classes, 200, in_dim, 10.0, core.stream(SEED, core.SID_BLOBS_VAL))
    arch = models.mlp(in_dim, (32,), classes)
    filt = filter_init(arch.param_count, core.stream(SEED, core.SID_FILTER_INIT))
    return train, val, arch, filt


def run(method: str, steps: int, train, val, arch, filt):
    cfg = RunConfig(
        n_workers=N_WORKERS,
        byzantine_fraction=0.3,
        attack=AttackSpec("gradient_shift"),
        steps=steps,
        seed=SEED,
        aggregator=None if method == "rgcf" else AggregatorSpec(method, F_COUNT),
    )
    if method == "rgcf":
        return run_rgcf(cfg, train, val, arch, filt)
    return run_aggregated(cfg, train, val, arch)


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
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
    inputs = {name: setup(in_dim, classes) for name, (in_dim, classes, _) in MODELS.items()}
    cells = [(name, method) for name in MODELS for method in METHODS]
    samples: dict[tuple[str, str], list] = {cell: [] for cell in cells}
    for rep in range(RUNS + 1):
        for name, method in cells:
            steps = MODELS[name][2]
            m = run(method, steps if rep else 10, *inputs[name])
            if rep:
                per_step = [getattr(m, p) / steps for p in PHASES] + [m.wall_time / steps]
                samples[name, method].append(per_step)
    results = []
    for (name, method), rows in samples.items():
        q1, med, q3 = np.percentile(np.array(rows) * 1e3, [25, 50, 75], axis=0)
        cell = {"model": name, "d": inputs[name][2].param_count, "method": method,
                "n": N_WORKERS, "steps": MODELS[name][2], "runs": RUNS}
        for i, phase in enumerate(PHASES + ("wall_s",)):
            key = phase.replace("_s", "_ms_per_step")
            cell[key] = {"median": med[i], "q1": q1[i], "q3": q3[i]}
        results.append(cell)
        print(f"{name:8s} d={cell['d']:<6d} {method:13s} "
              + " ".join(f"{k[:-12]}={cell[k]['median']:.3f}" for k in cell if k.endswith("_ms_per_step")))
    record = {"what": "milliseconds per training step by phase, median and quartiles over runs",
              "machine": machine(), "seconds": round(time.perf_counter() - start, 1), "cells": results}
    Path(argv[0]).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {argv[0]} in {record['seconds']} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
