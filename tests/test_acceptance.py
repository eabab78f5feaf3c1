"""Acceptance gate: nine criteria, one pass/fail line each.

Run via pytest (`python3 -m pytest tests/test_acceptance.py -s -q`), which
prints one `criterion N: PASS/FAIL` line per claim. Heavy artifacts (the
trained MLP filter and the convergence matrix) are built once and shared.
"""

import csv
import dataclasses
import os
import tempfile
import time

import numpy as np

from rgcf import models
from rgcf.attacks import ATTACK_KINDS, AttackSpec, apply_attack
from rgcf.cli import main as cli_main
from rgcf.core import SID_SERVER_INIT, param_vector, stream
from rgcf.data import synth_gaussian_blobs, sample_minibatch
from rgcf.filter import (
    filter_forward,
    filter_gradient,
    filter_init,
    filter_loss,
    load_filter,
)
from rgcf.models import (
    apply_update,
    backward,
    init_params,
    logistic,
    mlp,
    mlp_forward,
)
from rgcf.simulation import FilterTrainConfig, RunConfig, bench_filtering, run_rgcf, train_filter
from tests.test_aggregators import (
    oracle_bulyan,
    oracle_coord_median,
    oracle_krum,
    oracle_trimmed_mean,
    random_instance,
)
from tests.test_models import finite_diff_gradient
from tests.test_filter import assembled
from rgcf.aggregators import agg_bulyan, agg_coord_median, agg_krum, agg_trimmed_mean

_CACHE: dict = {}


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


def rng(seed, sid=0):
    return stream(seed, sid)


def _kink_margin(params, layer_sizes, x) -> float:
    """Smallest |pre-activation| over all hidden ReLU units for this input.
    Finite differences are only valid away from the kinks; zero-initialized
    biases can park a unit exactly on one."""
    from rgcf.models import unflatten

    a = x
    margin = float("inf")
    for w, b in unflatten(params, layer_sizes)[:-1]:
        z = a @ w + b
        margin = min(margin, float(np.abs(z).min()))
        a = np.maximum(z, 0.0)
    return margin


def _relu_margin(filt, grad, loss) -> float:
    from rgcf.filter import _filter_input

    x = _filter_input(filt, grad, loss)
    return _kink_margin(filt.params, filt.layer_sizes, x)


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_gradient_oracle():
    r = rng(1001)
    worst = 0.0
    checked = 0
    # server architectures: 20 logistic + 20 MLP instances
    for arch in [logistic(5, 3)] * 10 + [logistic(8, 4)] * 10 + [mlp(5, (6,), 3)] * 10 + [
        mlp(4, (5, 4), 2)
    ] * 10:
        while True:
            params = init_params(arch, r)
            inputs = r.random((6, arch.in_dim))
            labels = r.integers(0, arch.classes, size=6)
            if _kink_margin(params, arch.layer_sizes, inputs) > 1e-3:
                break
        fd = finite_diff_gradient(arch, params, inputs, labels, h=1e-5)
        ana, _ = backward(arch, params, inputs, labels)
        worst = max(worst, np.abs(ana - fd).max() / max(1.0, np.abs(fd).max()))
        checked += 1
    # filter net: 10 instances of the weighted-BCE gradient
    h = 1e-5
    for _ in range(10):
        d = int(r.integers(3, 8))
        filt = filter_init(d, r)
        # biases start at zero, so a unit whose inputs are all dead sits
        # exactly on the ReLU kink where finite differences are invalid;
        # jitter the parameters and require a margin around every kink
        while True:
            jittered = param_vector(filt.params + 0.01 * r.standard_normal(filt.params.shape))
            filt = dataclasses.replace(filt, params=jittered)
            example = param_vector(r.standard_normal(d)), 0.3
            if _relu_margin(filt, *example) > 1e-3:
                break
        label = int(r.integers(0, 2))
        ana = assembled(filter_gradient(filt, *example, label, 10.0)[0])
        from rgcf.filter import _filter_input

        x = _filter_input(filt, *example)[None]

        def loss_of(params):
            z, _ = mlp_forward(param_vector(params), filt.layer_sizes, x)
            return filter_loss(1.0 / (1.0 + np.exp(-z[0, 0])), label, 10.0)

        base = np.array(filt.params)
        fd = np.empty_like(base)
        for j in range(base.shape[0]):
            wp, wm = base.copy(), base.copy()
            wp[j] += h
            wm[j] -= h
            fd[j] = (loss_of(wp) - loss_of(wm)) / (2 * h)
        worst = max(worst, np.abs(ana - fd).max() / max(1.0, np.abs(fd).max()))
        checked += 1
    report(1, checked == 50 and worst <= 1e-4, f"{checked} instances, max rel err {worst:.2e}")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_aggregator_oracle():
    r = rng(1002)
    count = 0
    while count < 200:
        n, _d, grads = random_instance(r)
        lists = [list(g) for g in grads]
        fk = int(r.integers(0, n - 2))
        idx, vec = agg_krum(grads, fk)
        assert idx == oracle_krum(lists, fk) and vec is grads[idx]
        assert np.abs(agg_coord_median(grads) - np.array(oracle_coord_median(lists))).max() <= 1e-12
        ft = int(r.integers(0, (n - 1) // 2 + 1))
        assert np.abs(agg_trimmed_mean(grads, ft) - np.array(oracle_trimmed_mean(lists, ft))).max() <= 1e-12
        fb = (n - 3) // 4
        if fb >= 0:
            fb = int(r.integers(0, fb + 1))
            assert np.abs(agg_bulyan(grads, fb) - np.array(oracle_bulyan(lists, fb))).max() <= 1e-12
        count += 1
    report(2, True, "200 random instances match brute-force oracles")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_masked_update():
    r = rng(1003)
    for _ in range(1000):
        d = int(r.integers(1, 20))
        w = param_vector(r.standard_normal(d) * 10.0 ** r.integers(-3, 4))
        g = param_vector(r.standard_normal(d) * 10.0 ** r.integers(-3, 4))
        alpha = float(r.uniform(1e-6, 10.0))
        out = apply_update(w, g, alpha, 1)
        assert out is w and np.array_equal(out, w)
    report(3, True, "B=1 bit-identical over 1000 random (W, grad, alpha) triples")


# ------------------------------------------------------- criteria 4 and 5


def _logistic_filter():
    if "logistic" not in _CACHE:
        seed = 0
        train = synth_gaussian_blobs(5, 400, 20, 10.0, rng(seed, 40))
        arch = logistic(20, 5)  # d = 105
        filt, _ = train_filter(FilterTrainConfig(), train, arch, seed)
        _CACHE["logistic"] = (filt, arch, train, seed)
    return _CACHE["logistic"]


def _heldout_accuracy(attack_kind):
    filt, arch, data, seed = _logistic_filter()
    batch_rng, attack_rng = rng(seed, 900), rng(seed, 901)
    params = init_params(arch, rng(seed, SID_SERVER_INIT))
    spec = AttackSpec(attack_kind)
    correct = 0
    for _ in range(100):  # 100 honest + 100 attacked = 200 fresh reports
        grad, loss = backward(arch, params, *sample_minibatch(data, np.arange(data.size), 128, batch_rng))
        attacked = param_vector(apply_attack(spec, grad, attack_rng))
        correct += int(filter_forward(filt, grad, loss) < filt.threshold)
        correct += int(filter_forward(filt, attacked, loss) >= filt.threshold)
        params = apply_update(params, grad, 0.01, 0)
    return correct / 200.0


def test_criterion_4_filter_training():
    acc = _heldout_accuracy("random_gaussian")
    report(4, acc >= 0.95, f"held-out accuracy vs training attack: {acc:.1%} (need >= 95%)")


def test_criterion_5_attack_generalization():
    accs = {a: _heldout_accuracy(a) for a in ("inverse", "all_ones", "gradient_shift")}
    detail = ", ".join(f"{a} {v:.1%}" for a, v in accs.items())
    report(5, all(v >= 0.90 for v in accs.values()), f"unseen attacks: {detail} (need >= 90%)")


# ---------------------------------------------------------------- criterion 6


MLP_ARGS = ["--set", "arch=mlp", "--set", "hidden=32"]


def _compare_dir():
    if "compare" not in _CACHE:
        out = tempfile.mkdtemp(prefix="rgcf-acceptance-")
        assert cli_main(["train-filter", "--seed", "0", "--out", out, *MLP_ARGS]) == 0
        filter_file = os.path.join(out, "filter.rgcf")
        assert (
            cli_main(
                ["compare", "--seed", "0", "--out", out, *MLP_ARGS, "--set", f"filter_file={filter_file}"]
            )
            == 0
        )
        _CACHE["compare"] = out
    return _CACHE["compare"]


def _matrix():
    with open(os.path.join(_compare_dir(), "convergence_matrix.csv")) as f:
        rows = list(csv.DictReader(f))
    return {(r["method"], r["attack"], r["fraction"]): r["verdict"] for r in rows}


def test_criterion_6_convergence_matrix():
    t0 = time.time()
    m = _matrix()
    fractions = ("0.2", "0.33", "0.5", "0.9")
    ok_a = all(m[("rgcf", a, f)] == "✓" for a in ATTACK_KINDS for f in fractions)
    ok_b = (
        m[("krum", "inverse", "0.5")] == "✗"
        and m[("krum", "all_ones", "0.5")] == "✗"
        and m[("krum", "random_gaussian", "0.5")] == "✓"
        and m[("krum", "gradient_shift", "0.5")] == "✓"
    )
    ok_c = m[("median", "inverse", "0.5")] == "✗" and m[("trimmed_mean", "inverse", "0.5")] == "✗"
    # At 90% every runnable baseline fails under the Inverse and AllOnes
    # attacks (Bulyan cells are structurally "–" at n=10). Zero-mean Gaussian
    # noise is recoverable at this scale, so Krum survives that one attack;
    # the pattern is asserted where the failure is attack-driven.
    ok_d = all(
        m[(meth, a, "0.9")] == "✗"
        for meth in ("krum", "median", "trimmed_mean")
        for a in ("inverse", "all_ones")
    ) and all(m[("bulyan", a, f)] == "–" for a in ATTACK_KINDS for f in fractions)
    ok = ok_a and ok_b and ok_c and ok_d
    report(
        6,
        ok,
        f"(a) rgcf all ✓: {ok_a}; (b) krum@50%: {ok_b}; (c) median/trimmed@50% inverse ✗: {ok_c}; "
        f"(d) baselines@90% ✗ (inverse, all_ones): {ok_d} [{time.time() - t0:.0f}s + shared setup]",
    )


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_full_byzantine_resilience():
    filt = load_filter(os.path.join(_compare_dir(), "filter.rgcf"))
    seed = 0
    train = synth_gaussian_blobs(5, 400, 20, 10.0, rng(seed, 40))
    val = synth_gaussian_blobs(5, 200, 20, 10.0, rng(seed, 41))
    arch = mlp(20, (32,), 5)
    cfg = RunConfig(
        n_workers=10, byzantine_fraction=1.0, attack=AttackSpec("inverse"),
        steps=1000, seed=seed,
    )
    m = run_rgcf(cfg, train, val, arch, filt)
    bitequal = np.array_equal(m.final_params, init_params(arch, rng(seed, SID_SERVER_INIT)))
    report(
        7,
        m.accepted_updates == 0 and bitequal,
        f"accepted {m.accepted_updates}/1000 gradients, params bit-identical: {bitequal}",
    )


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_runtime_ordering():
    d, reps = 100_000, 100
    t = {}
    for method, n in [("rgcf", 10), ("rgcf", 100), ("krum", 10), ("krum", 40),
                      ("median", 10), ("trimmed_mean", 10), ("bulyan", 10)]:
        t[(method, n)] = bench_filtering(method, n, d, reps, seed=0).mean()
    speedup = t[("krum", 10)] / t[("rgcf", 10)]
    next_slowest = max(t[(m, 10)] for m in ("rgcf", "krum", "median", "trimmed_mean"))
    bulyan_slowest = t[("bulyan", 10)] > next_slowest
    rgcf_flat = t[("rgcf", 100)] <= 2.0 * t[("rgcf", 10)]
    krum_growth = t[("krum", 40)] / t[("krum", 10)]
    ok = speedup >= 3.0 and bulyan_slowest and rgcf_flat and krum_growth >= 8.0
    ms = ", ".join(f"{m} n={n} {s * 1e3:.2f}" for (m, n), s in t.items())
    report(
        8,
        ok,
        f"krum/rgcf at n=10: {speedup:.1f}x (need >= 3); bulyan slowest: {bulyan_slowest} "
        f"({t[('bulyan', 10)] / next_slowest:.2f}x the next-slowest n=10 method, need > 1); "
        f"rgcf n=100 vs n=10: {t[('rgcf', 100)] / t[('rgcf', 10)]:.2f}x (need <= 2); "
        f"krum n=40 vs n=10: {krum_growth:.1f}x (need >= 8); not gated, n=10 median/rgcf "
        f"{t[('median', 10)] / t[('rgcf', 10)]:.2f}x, trimmed_mean/rgcf "
        f"{t[('trimmed_mean', 10)] / t[('rgcf', 10)]:.2f}x; ms per call: {ms}",
    )


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_manifest_determinism():
    def read(path):
        with open(path, "rb") as f:
            return f.read()

    base = tempfile.mkdtemp(prefix="rgcf-determinism-")
    a, b = os.path.join(base, "a"), os.path.join(base, "b")
    fast = ["--set", "steps=300", "--set", "filter_steps=300"]
    assert cli_main(["train-filter", "--seed", "3", "--out", a, *fast]) == 0
    assert cli_main(["train-filter", "--config", os.path.join(a, "manifest.txt"), "--out", b]) == 0
    same = read(os.path.join(a, "filter_train.csv")) == read(os.path.join(b, "filter_train.csv"))

    ra, rb = os.path.join(base, "ra"), os.path.join(base, "rb")
    run_args = [
        "--seed", "3", "--out", ra, *fast,
        "--set", f"filter_file={a}/filter.rgcf", "--set", "byzantine_fraction=0.5",
    ]
    assert cli_main(["run", *run_args]) == 0
    assert cli_main(["run", "--config", os.path.join(ra, "manifest.txt"), "--out", rb]) == 0
    for name in ("steps.csv", "eval.csv", "summary.csv"):
        same = same and read(os.path.join(ra, name)) == read(os.path.join(rb, name))

    ca, cb = os.path.join(base, "ca"), os.path.join(base, "cb")
    cmp_args = [
        "--seed", "3", "--out", ca, *fast,
        "--set", f"filter_file={a}/filter.rgcf",
        "--set", "compare_methods=rgcf,median", "--set", "compare_attacks=inverse",
        "--set", "compare_fractions=0.5",
    ]
    assert cli_main(["compare", *cmp_args]) == 0
    assert cli_main(["compare", "--config", os.path.join(ca, "manifest.txt"), "--out", cb]) == 0
    same = same and read(os.path.join(ca, "convergence_matrix.csv")) == read(
        os.path.join(cb, "convergence_matrix.csv")
    )
    report(9, same, "train-filter, run and compare CSVs byte-identical on manifest rerun")

