"""The benchmark tracer's contract with the package.

`perfbench/tracing.py` times the package from outside: it replaces the
module attributes listed in its `WRAPPED` table with timing wrappers. A
renamed function, or one that is no longer looked up through its module,
breaks `perfbench/run.py --trace 1` without failing any other test. These
tests read the tracer as it is and never edit it.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# FAST settings of test_cli: a logistic blobs task with d=21
TINY = [
    "--set", "blobs_classes=3",
    "--set", "blobs_per_class=30",
    "--set", "blobs_in_dim=6",
    "--set", "blobs_val_per_class=10",
    "--set", "filter_steps=40",
    "--set", "steps=30",
    "--set", "eval_every=10",
    "--set", "batch_size=16",
]

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
        ["train-filter", "--out", tf, *TINY],
        ["run", "--out", str(tmp_path / "rgcf"), *TINY,
         "--set", f"filter_file={tf}/filter.rgcf", "--set", "byzantine_fraction=0.3"],
        ["run", "--out", str(tmp_path / "krum"), *TINY,
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
    argv = ["run", "--out", str(tmp_path / "krum"), *TINY,
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
