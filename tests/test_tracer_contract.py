"""The benchmark tracer's contract with the package.

`perfbench/tracing.py` times the package from outside: it replaces the
module attributes listed in its `WRAPPED` table with timing wrappers. A
renamed function, or one that is no longer looked up through its module,
breaks `perfbench/run.py --trace 1` without failing any other test. These
tests read the tracer as it is and never edit it.
"""

import importlib
import importlib.util
import os
from collections import Counter
from pathlib import Path

from rgcf import core, simulation
from rgcf.attacks import AttackSpec
from rgcf.data import synth_gaussian_blobs
from rgcf.models import mlp
from rgcf.simulation import RunConfig
from tests.test_cli import FAST  # a logistic blobs task with d=21

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


# One span name per layer the benchmark's per-layer metrics read.
REQUIRED_SPANS = [
    "models.backward",
    "data.sample_minibatch",
    "simulation.worker_step",
    "core.param_vector",
    "attacks.apply_attack",
    "filter.filter_forward",
    "filter.filter_train_step",
    "aggregators.krum",
]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def current_attributes():
    return [getattr(importlib.import_module(m), attr) for m, attr, _ in tracing.WRAPPED]


def test_every_wrapped_attribute_resolves():
    for module_name, attr, _ in tracing.WRAPPED:
        value = getattr(importlib.import_module(module_name), attr, None)
        assert callable(value), f"{module_name}.{attr}"


def test_install_uninstall_round_trip():
    originals = current_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(w is not o for w, o in zip(current_attributes(), originals))
    finally:
        tracer.uninstall()
    assert all(a is o for a, o in zip(current_attributes(), originals))


def test_commands_record_every_layer(tmp_path):
    tf = str(tmp_path / "tf")
    runs = [
        ["train-filter", "--out", tf, *FAST],
        ["run", "--out", str(tmp_path / "rgcf"), *FAST,
         "--set", f"filter_file={tf}/filter.rgcf", "--set", "byzantine_fraction=0.3"],
        ["run", "--out", str(tmp_path / "krum"), *FAST,
         "--set", "mode=aggregator", "--set", "aggregator=krum",
         "--set", "byzantine_fraction=0.3"],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cli = importlib.import_module("rgcf.cli")
        for argv in runs:
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    spans = Counter(tracer.names)
    assert spans["cli.main"] == 3
    for name in REQUIRED_SPANS:
        assert spans[name] >= 1, name


def test_aggregator_run_has_one_backward_per_step(tmp_path):
    # every queried worker's gradient comes from one stacked backward pass:
    # n minibatches, one models.backward span per step
    argv = ["run", "--out", str(tmp_path / "krum"), *FAST,
            "--set", "mode=aggregator", "--set", "aggregator=krum",
            "--set", "n_workers=5", "--set", "byzantine_fraction=0.4"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert importlib.import_module("rgcf.cli").main(argv) == 0
    finally:
        tracer.uninstall()
    spans = Counter(tracer.names)
    assert spans["simulation.worker_step"] == 30
    assert spans["models.backward"] == 30
    assert spans["data.sample_minibatch"] == 30 * 5
    assert spans["attacks.apply_attack"] == 30 * 2


def test_filter_training_queries_workers_through_worker_step(tmp_path):
    # filter training makes each message through the deployment's worker
    # turn: one worker_step, one backward pass and one mini-batch per step,
    # and one attack per Byzantine pick of stream SID_FILTER_PICK
    steps = 40
    argv = ["train-filter", "--seed", "0", "--out", str(tmp_path / "tf"), *FAST]
    assert "filter_steps=40" in FAST
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert importlib.import_module("rgcf.cli").main(argv) == 0
    finally:
        tracer.uninstall()
    spans = Counter(tracer.names)
    pick_rng = core.stream(0, core.SID_FILTER_PICK)
    byzantine = sum(int(pick_rng.integers(0, 2)) for _ in range(steps))
    assert 0 < byzantine < steps
    assert spans["simulation.worker_step"] == steps
    assert spans["models.backward"] == steps
    assert spans["data.sample_minibatch"] == steps
    assert spans["attacks.apply_attack"] == byzantine
    assert spans["filter.filter_train_step"] == steps


def test_a_split_turn_keeps_the_spans_nested(monkeypatch):
    # the tracer keeps one span stack for all threads, so a helper part
    # calls none of the names it wraps: this thread's part records its
    # batches, its backward pass and its attacks inside the turn's span,
    # and every span lies inside its parent's interval
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    data = synth_gaussian_blobs(3, 40, 600, 8.0, core.stream(7, 40))
    arch = mlp(data.in_dim, (32,), data.classes)
    cfg = RunConfig(10, 0.3, AttackSpec("gradient_shift"), steps=1, seed=0)
    assert 10 * arch.param_count >= 2 * simulation.TURN_PART
    workers = simulation.build_workers(cfg, data)
    params = simulation.server_start(arch, 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        simulation.worker_step(workers, data, params, arch, 16)
    finally:
        tracer.uninstall()
    spans = Counter(tracer.names)
    last = workers[5:]  # this thread's part, of two
    assert spans == Counter({
        "simulation.worker_step": 1,
        "data.sample_minibatch": len(last),
        "models.backward": 1,
        "attacks.apply_attack": sum(w.byzantine for w in last),
    })
    for i, parent in enumerate(tracer.parents):
        assert (parent == -1) == (i == 0)
        if parent >= 0:
            assert tracer.starts[parent] <= tracer.starts[i] <= tracer.ends[i] <= tracer.ends[parent]
