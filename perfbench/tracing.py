"""Span tracer that measures the rgcf package from outside.

The tracer replaces module attributes, the names a caller looks up at call
time, with wrappers that record one span per call: name, start, end and the
index of the enclosing span. Nothing in `src/` is edited; uninstalling puts
the original functions back. Spans stay in memory until `write_csv`.

A span's self time is its duration minus the durations of its direct child
spans. The program is single-threaded, so children nest inside their parent.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name). The span name is the layer that owns the
# function, which is not always the module the caller looks it up in.
# `aggregate` spans are named per aggregator kind by `_aggregate_name`.
WRAPPED = [
    ("rgcf.cli", "main", "cli.main"),
    ("rgcf.cli", "build_config", "config.build_config"),
    ("rgcf.cli", "write_csv", "cli.write_outputs"),
    ("rgcf.cli", "write_manifest", "cli.write_outputs"),
    ("rgcf.cli", "synth_gaussian_blobs", "data.synth_gaussian_blobs"),
    ("rgcf.cli", "train_filter", "filter.train_filter"),
    ("rgcf.cli", "save_filter", "filter.save_filter"),
    ("rgcf.cli", "load_filter", "filter.load_filter"),
    ("rgcf.cli", "run_rgcf", "simulation.loop"),
    ("rgcf.cli", "run_aggregated", "simulation.loop"),
    ("rgcf.simulation", "worker_step", "simulation.worker_step"),
    ("rgcf.simulation", "evaluate", "simulation.evaluate"),
    ("rgcf.simulation", "sample_minibatch", "data.sample_minibatch"),
    ("rgcf.simulation", "apply_attack", "attacks.apply_attack"),
    ("rgcf.simulation", "param_vector", "core.param_vector"),
    ("rgcf.simulation", "apply_update", "models.apply_update"),
    ("rgcf.simulation", "aggregate", None),
    ("rgcf.models", "backward", "models.backward"),
    ("rgcf.models", "param_vector", "core.param_vector"),
    ("rgcf.aggregators", "aggregate", None),
    ("rgcf.filter", "filter_forward", "filter.filter_forward"),
    ("rgcf.filter", "filter_train_step", "filter.filter_train_step"),
    ("rgcf.filter", "filter_gradient", "filter.filter_gradient"),
    ("rgcf.filter", "adam_step", "models.adam_step"),
    ("rgcf.filter", "sample_minibatch", "data.sample_minibatch"),
    ("rgcf.filter", "apply_attack", "attacks.apply_attack"),
    ("rgcf.filter", "apply_update", "models.apply_update"),
    ("rgcf.filter", "param_vector", "core.param_vector"),
    ("rgcf.filter", "save_filter", "filter.save_filter"),
    ("rgcf.filter", "load_filter", "filter.load_filter"),
]

AGGREGATOR_KINDS = ("mean", "krum", "median", "trimmed_mean", "bulyan")


def _aggregate_name(args, kwargs) -> str:
    spec = args[0] if args else kwargs["spec"]
    return f"aggregators.{spec.kind}"


def pair_distances(kind: str, n: int, f: int) -> int:
    """Pairwise distances the textbook rule computes in one call: n(n-1)/2
    for Krum; for Bulyan, one Krum scoring per selection round over a pool
    that shrinks from n to n - theta + 1."""
    if kind == "krum":
        return n * (n - 1) // 2
    if kind == "bulyan":
        theta = n - 2 * f
        return sum(p * (p - 1) // 2 for p in range(n - theta + 1, n + 1))
    return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.wall_ns = 0

    # ------------------------------------------------------------ recording

    def _wrap(self, fn, name):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack,
        )
        hook = _HOOKS.get(fn.__name__)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name if name is not None else _aggregate_name(args, kwargs))
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # ------------------------------------------------------------ analysis

    def _spans(self, first: int):
        """Durations and parents of the spans from index `first` on, with
        parent indices rebased to that range (-1 for a root span)."""
        dur = np.asarray(self.ends[first:], dtype=np.int64) - np.asarray(self.starts[first:], dtype=np.int64)
        parents = np.asarray(self.parents[first:], dtype=np.int64)
        return dur, np.where(parents >= first, parents - first, -1)

    def self_times_ns(self, first: int = 0) -> np.ndarray:
        dur, parents = self._spans(first)
        child = np.zeros_like(dur)
        inner = parents >= 0
        np.add.at(child, parents[inner], dur[inner])
        return dur - child

    def per_layer(self, first: int = 0) -> dict[str, dict]:
        """calls, total, self and per-call durations for every span name,
        over the spans from index `first` on."""
        dur, _parents = self._spans(first)
        self_ns = self.self_times_ns(first)
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, name in enumerate(self.names[first:]):
            by_name[name].append(i)
        out = {}
        for name, idx in by_name.items():
            idx = np.asarray(idx)
            out[name] = {
                "calls": len(idx),
                "total_s": float(dur[idx].sum()) / 1e9,
                "self_s": float(self_ns[idx].sum()) / 1e9,
                "durations_us": dur[idx] / 1e3,
            }
        return out

    def write_csv(self, path: str) -> None:
        base = self.starts[0] if self.starts else 0
        with open(path, "w") as f:
            f.write("id,parent,name,start_ns,end_ns\n")
            for i, name in enumerate(self.names):
                f.write(f"{i},{self.parents[i]},{name},{self.starts[i] - base},{self.ends[i] - base}\n")


# ---------------------------------------------------------------- counters
# Hooks run after the wrapped call returns and add exact counts.


def _count_aggregate(counters, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    grads = args[1] if len(args) > 1 else kwargs["grads"]
    counters[f"aggregators.{spec.kind}.pair_distances"] += pair_distances(
        spec.kind, len(grads), spec.f_count
    )


def _count_forward(counters, args, kwargs, result):
    filt = args[0] if args else kwargs["filt"]
    counters["filter.filter_forward.weight_bytes"] += filt.params.nbytes


def _count_run(counters, args, kwargs, result):
    m = result
    counters["simulation.transferred_gradients"] += m.transferred_gradients
    counters["simulation.accepted_honest"] += m.accepted_honest
    counters["simulation.accepted_updates"] += m.accepted_updates
    if kwargs.get("ground_truth", False) or (len(args) > 5 and args[5]):
        return  # oracle twin: decisions are ground truth, not the filter's
    counters["filter.true_reject"] += m.rejected_byz
    counters["filter.false_reject"] += m.rejected_honest
    counters["filter.false_accept"] += m.accepted_byz


_HOOKS = {
    "aggregate": _count_aggregate,
    "filter_forward": _count_forward,
    "run_rgcf": _count_run,
    "run_aggregated": _count_run,
}
