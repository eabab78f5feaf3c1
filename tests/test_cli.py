import os

import pytest

from rgcf import cli
from rgcf.aggregators import AGGREGATOR_KINDS, AggregatorSpec, max_f_count
from rgcf.cli import clamped_f_count, fmt, main, resolve
from rgcf.config import build_config
from rgcf.core import MAX_WORKERS, TooFewWorkersError, stream
from rgcf.data import synth_gaussian_blobs
from tests.test_data import write_idx

# tiny-but-real settings: logistic blobs task, short runs
FAST = [
    "--set", "blobs_classes=3",
    "--set", "blobs_per_class=30",
    "--set", "blobs_in_dim=6",
    "--set", "blobs_val_per_class=10",
    "--set", "filter_steps=40",
    "--set", "steps=30",
    "--set", "eval_every=10",
    "--set", "batch_size=16",
]


def run_cli(*argv):
    return main(list(argv))


def read(path):
    with open(path, "rb") as f:
        return f.read()


@pytest.fixture
def trained(tmp_path):
    out = str(tmp_path / "tf")
    assert run_cli("train-filter", "--seed", "1", "--out", out, *FAST) == 0
    return out


class TestFmt:
    def test_nine_significant_digits(self):
        assert fmt(1.0 / 3.0) == "0.333333333"
        assert fmt(1.0) == "1"
        assert fmt(None) == ""
        assert fmt(7) == "7"


class TestTrainFilter:
    def test_outputs(self, trained):
        assert os.path.exists(os.path.join(trained, "manifest.txt"))
        assert os.path.exists(os.path.join(trained, "filter.rgcf"))
        lines = open(os.path.join(trained, "filter_train.csv")).read().splitlines()
        assert lines[0] == "step,loss,running_accuracy"
        assert len(lines) == 41

    def test_manifest_rerun_is_byte_identical(self, trained, tmp_path):
        out2 = str(tmp_path / "tf2")
        manifest = os.path.join(trained, "manifest.txt")
        assert run_cli("train-filter", "--config", manifest, "--out", out2) == 0
        assert read(os.path.join(trained, "filter_train.csv")) == read(
            os.path.join(out2, "filter_train.csv")
        )
        assert read(os.path.join(trained, "filter.rgcf")) == read(
            os.path.join(out2, "filter.rgcf")
        )


    def test_non_finite_filter_weight_is_runtime_failure(self, tmp_path, capsys):
        # lr=1e308 drives the filter weights past the float range within
        # a few steps; training stops before any filter file is written
        out = str(tmp_path / "tf")
        code = run_cli(
            "train-filter", "--out", out,
            "--set", "arch=mlp", "--set", "hidden=32",
            "--set", "filter_lr=1e308", "--set", "filter_steps=20",
        )
        assert code == 2
        # adam_step's check is the one report: no numpy overflow warnings
        assert capsys.readouterr().err == "runtime failure: non-finite value at coordinate 0\n"
        assert not os.path.exists(os.path.join(out, "filter.rgcf"))

    def test_overflowing_training_attack_is_runtime_failure(self, tmp_path, capsys):
        # random_gaussian noise at scale 1e308 overflows at the first draw
        # beyond the float range; the worker turn's check stops training
        # at that coordinate before any training output is written
        out = str(tmp_path / "tf")
        code = run_cli("train-filter", "--seed", "0", "--out", out, "--set", "train_attack_scale=1e308")
        assert code == 2
        assert capsys.readouterr().err == "runtime failure: non-finite value at coordinate 16\n"
        assert not os.path.exists(os.path.join(out, "filter.rgcf"))
        assert not os.path.exists(os.path.join(out, "filter_train.csv"))


class TestRun:
    def test_rgcf_run_outputs(self, trained, tmp_path):
        out = str(tmp_path / "run")
        code = run_cli(
            "run", "--seed", "1", "--out", out, *FAST,
            "--set", f"filter_file={trained}/filter.rgcf",
            "--set", "byzantine_fraction=0.5",
        )
        assert code == 0
        steps = open(os.path.join(out, "steps.csv")).read().splitlines()
        assert steps[0] == "step,train_loss,ground_truth,predicted,decision"
        assert len(steps) == 31
        evals = open(os.path.join(out, "eval.csv")).read().splitlines()
        assert evals[0] == "step,val_accuracy,val_loss"
        summary = open(os.path.join(out, "summary.csv")).read().splitlines()
        assert summary[0].startswith("accepted_honest,")
        timing = dict(
            line.split("=") for line in open(os.path.join(out, "timing.txt")).read().splitlines()
        )
        assert list(timing) == ["wall_time_seconds", "worker_s", "decision_s", "update_s", "eval_s"]
        phases = sum(float(timing[k]) for k in ("worker_s", "decision_s", "update_s", "eval_s"))
        assert 0.0 < phases <= float(timing["wall_time_seconds"])

    def test_aggregator_run(self, tmp_path):
        out = str(tmp_path / "agg")
        code = run_cli(
            "run", "--seed", "1", "--out", out, *FAST,
            "--set", "mode=aggregator", "--set", "aggregator=median",
            "--set", "byzantine_fraction=0.2",
        )
        assert code == 0
        steps = open(os.path.join(out, "steps.csv")).read().splitlines()
        # no per-gradient labels in aggregator mode
        assert steps[1].split(",")[2] == ""

    def test_missing_filter_is_validation_error(self, tmp_path):
        out = str(tmp_path / "r")
        assert run_cli("run", "--out", out, *FAST, "--set", "filter_file=/no/such.rgcf") == 1
        assert not os.path.exists(os.path.join(out, "steps.csv"))

    def test_corrupt_filter_is_runtime_failure(self, trained, tmp_path):
        bad = tmp_path / "bad.rgcf"
        bad.write_bytes(b"JUNKJUNKJUNKJUNK" * 8)
        cut = tmp_path / "cut.rgcf"
        cut.write_bytes(read(os.path.join(trained, "filter.rgcf"))[:-8])
        for path in (bad, cut):
            out = str(tmp_path / "r")
            assert run_cli("run", "--out", out, *FAST, "--set", f"filter_file={path}") == 2

    def test_infeasible_aggregator_is_validation_error(self, tmp_path):
        out = str(tmp_path / "r")
        code = run_cli(
            "run", "--out", out, *FAST,
            "--set", "mode=aggregator", "--set", "aggregator=bulyan",
            "--set", "n_workers=10", "--set", "f_count=3",
        )
        assert code == 1

    def test_rerun_from_manifest_byte_identical(self, trained, tmp_path):
        outs = [str(tmp_path / n) for n in ("a", "b")]
        code = run_cli(
            "run", "--seed", "1", "--out", outs[0], *FAST,
            "--set", f"filter_file={trained}/filter.rgcf",
            "--set", "byzantine_fraction=0.5",
        )
        assert code == 0
        manifest = os.path.join(outs[0], "manifest.txt")
        assert run_cli("run", "--config", manifest, "--out", outs[1]) == 0
        for name in ("steps.csv", "eval.csv", "summary.csv"):
            assert read(os.path.join(outs[0], name)) == read(os.path.join(outs[1], name))


class TestBench:
    def test_smoke(self, tmp_path):
        out = str(tmp_path / "bench")
        code = run_cli(
            "bench", "--out", out,
            "--set", "bench_methods=rgcf,krum", "--set", "bench_n=4",
            "--set", "bench_d=50", "--set", "bench_reps=10",
        )
        assert code == 0
        lines = open(os.path.join(out, "bench.csv")).read().splitlines()
        assert lines[0] == "method,n,d,reps,mean_seconds,std_seconds"
        assert len(lines) == 3

    def test_unknown_method(self, tmp_path):
        assert run_cli("bench", "--out", str(tmp_path / "b"), "--set", "bench_methods=fft") == 1


class TestCompare:
    def test_small_grid(self, trained, tmp_path):
        out = str(tmp_path / "cmp")
        code = run_cli(
            "compare", "--seed", "1", "--out", out, *FAST,
            "--set", f"filter_file={trained}/filter.rgcf",
            "--set", "compare_methods=rgcf,median,bulyan",
            "--set", "compare_attacks=inverse",
            "--set", "compare_fractions=0.5",
        )
        assert code == 0
        lines = open(os.path.join(out, "convergence_matrix.csv")).read().splitlines()
        assert lines[0] == "method,attack,fraction,f_count,final_accuracy,clean_reference,verdict"
        assert len(lines) == 4
        by_method = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        assert by_method["bulyan"][6] == "–"  # n=10, f=5 violates n >= 4f+3
        assert by_method["rgcf"][6] in "✓✗"

    def test_overflowing_runs_are_failed_cells(self, tmp_path):
        # runs whose parameters overflow report an infinite loss; each is a
        # diverged (✗) cell and the grid runs to its end
        mlp = [*FAST, "--set", "arch=mlp", "--set", "hidden=32"]
        tf = str(tmp_path / "tf")
        assert run_cli("train-filter", "--seed", "1", "--out", tf, *mlp) == 0
        out = str(tmp_path / "cmp")
        code = run_cli(
            "compare", "--seed", "1", "--out", out, *mlp,
            "--set", f"filter_file={tf}/filter.rgcf",
            "--set", "compare_methods=rgcf,median,trimmed_mean",
            "--set", "compare_attacks=gradient_shift",
            "--set", "attack_scale=1e156",
            "--set", "steps=60",
        )
        assert code == 0
        lines = open(os.path.join(out, "convergence_matrix.csv")).read().splitlines()
        rows = {(r[0], r[2]): r for r in (ln.split(",") for ln in lines[1:])}
        assert len(rows) == 12
        for method in ("median", "trimmed_mean"):
            assert rows[(method, "0.9")][4] == "nan"
            assert rows[(method, "0.9")][6] == "✗"

    def test_unknown_attack(self, tmp_path):
        code = run_cli(
            "compare", "--out", str(tmp_path / "c"), "--set", "compare_attacks=mirror"
        )
        assert code == 1


# Invalid configuration exits 1 before any output is written.
INVALID_CONFIGS = [
    ("run", ["--set", "mode=vote"]),
    ("run", ["--set", "mode=aggregator", "--set", "aggregator=fft"]),
    ("run", ["--set", "byzantine_fraction=1.5"]),
    ("run", ["--set", "byzantine_fraction=nan"]),
    ("run", ["--set", "attack_scale=inf"]),
    ("compare", ["--set", "compare_fractions=1.5"]),
    ("run", ["--set", "n_workers=1000"]),  # FAST has 90 training examples
    ("compare", ["--set", "steps=0"]),
    ("compare", ["--set", "compare_fractions=abc"]),
    ("bench", ["--set", "bench_n=x"]),
    ("bench", ["--set", "bench_reps=5"]),
    ("bench", ["--set", "bench_n=2", "--set", "bench_methods=krum"]),
    ("train-filter", ["--set", "blobs_classes=7"]),  # FAST has blobs_in_dim=6
    ("train-filter", ["--set", "threshold=1.5"]),
    ("run", ["--set", "batch_size=0"]),
    ("train-filter", ["--set", "filter_lr=0"]),
    ("run", ["--set", "server_lr=0"]),
    ("run", ["--set", "mode=aggregator", "--set", "server_lr=-1"]),
    ("bench", ["--set", "steps=0"]),  # every command validates the whole config
    ("train-filter", ["--set", "aggregator=bogus", "--set", "filter_steps=5"]),
    ("bench", ["--set", "aggregator=bogus"]),
    ("run", ["--set", "mode=aggregator", "--set", "f_count=-2"]),  # only -1 means the default
    ("compare", ["--set", "compare_methods=rgcf,fft"]),
    ("train-filter", ["--set", "blobs_val_per_class=0"]),  # checked though not built
    # 120,000 examples, but worker 99,000's batch stream would be worker 0's attack stream
    ("run", ["--set", "blobs_per_class=40000", "--set", f"n_workers={MAX_WORKERS + 1}"]),
    ("run", ["--set", "normalize=true"]),  # the filter input is always direction-only
]


@pytest.mark.parametrize("command,args", INVALID_CONFIGS)
def test_invalid_config_exits_1_before_writing(trained, tmp_path, command, args):
    out = str(tmp_path / "x")
    code = run_cli(command, "--out", out, *FAST, "--set", f"filter_file={trained}/filter.rgcf", *args)
    assert code == 1
    assert not os.path.exists(out)


class TestIdx:
    @pytest.fixture
    def idx_args(self, tmp_path):
        """A 30-example training and a 12-example validation IDX pair."""
        args = ["--set", "task=idx"]
        for split, per_class in (("train", 10), ("val", 4)):
            data = synth_gaussian_blobs(3, per_class, 4, 8.0, stream(0, 40))
            images, labels = str(tmp_path / f"{split}-images"), str(tmp_path / f"{split}-labels")
            write_idx(data, images, labels, 2, 2)
            args += ["--set", f"{split}_images={images}", "--set", f"{split}_labels={labels}"]
        return args

    def test_train_subset_limits_only_filter_training(self, idx_args, tmp_path, monkeypatch):
        sizes = {}

        def spy(name):
            real = getattr(cli, name)

            def wrapper(spec, train_data, *rest):
                sizes[name] = train_data.size
                return real(spec, train_data, *rest)

            monkeypatch.setattr(cli, name, wrapper)

        spy("train_filter")
        spy("run_aggregated")
        common = [*FAST, *idx_args, "--set", "train_subset=12", "--set", "n_workers=3"]
        assert run_cli("train-filter", "--out", str(tmp_path / "tf"), *common) == 0
        code = run_cli("run", "--out", str(tmp_path / "r"), *common, "--set", "mode=aggregator")
        assert code == 0
        assert sizes == {"train_filter": 12, "run_aggregated": 30}

    @pytest.mark.parametrize(
        "command,args",
        [
            ("train-filter", ["--seed", "-1"]),
            ("run", ["--seed", str(2**64), "--set", "mode=aggregator"]),
            ("train-filter", ["--set", "train_subset=-10"]),
            ("run", ["--set", "val_subset=-10", "--set", "mode=aggregator"]),
        ],
    )
    def test_invalid_seed_or_subset_exits_1_before_writing(self, idx_args, tmp_path, command, args):
        # the seed keys a 128-bit Philox counter as (seed << 64) | stream,
        # and a negative subset would trim from the end
        out = str(tmp_path / "x")
        assert run_cli(command, "--out", out, *FAST, *idx_args, *args) == 1
        assert not os.path.exists(out)

    def test_truncated_idx_is_runtime_failure(self, idx_args, tmp_path):
        images = tmp_path / "train-images"
        images.write_bytes(images.read_bytes()[:-1])
        out = str(tmp_path / "tf")
        assert run_cli("train-filter", "--out", out, *FAST, *idx_args) == 2


class TestArgs:
    def test_bad_set_syntax(self, tmp_path):
        assert run_cli("run", "--out", str(tmp_path / "x"), "--set", "nonsense") == 1

    def test_unknown_key(self, tmp_path):
        assert run_cli("run", "--out", str(tmp_path / "x"), "--set", "bogus=1") == 1

    def test_seed_and_out_flags_override(self, tmp_path):
        out = str(tmp_path / "o")
        assert run_cli("train-filter", "--seed", "9", "--out", out, *FAST) == 0
        cfg = build_config(os.path.join(out, "manifest.txt"))
        assert cfg.seed == 9
        assert cfg.out == out


class TestFCount:
    def test_resolve_default_rounds(self):
        agg = {"mode": "aggregator", "aggregator": "krum"}
        cfg = build_config(None, agg | {"n_workers": "10", "byzantine_fraction": "0.33"})
        assert resolve(cfg).run.aggregator.f_count == 3
        cfg = build_config(None, agg | {"f_count": "2"})
        assert resolve(cfg).run.aggregator.f_count == 2
        # outside aggregator mode the spec is built but its bound not checked
        cfg = build_config(None, {"aggregator": "bulyan", "f_count": "3"})
        assert resolve(cfg).run.aggregator is None

    def test_clamped_policy(self):
        assert clamped_f_count("median", 10, 9) == 0
        assert clamped_f_count("krum", 10, 9) == 7
        assert clamped_f_count("trimmed_mean", 10, 9) == 4
        assert clamped_f_count("bulyan", 10, 1) == 1
        assert clamped_f_count("bulyan", 10, 2) is None

    @pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
    def test_bound_stated_once(self, kind):
        # the clamp-or-skip policy and the rules' own checks read one bound
        for n in range(1, 61):
            bound = max_f_count(kind, n)
            for f_true in range(n + 1):
                fc = clamped_f_count(kind, n, f_true)
                if fc is not None:
                    AggregatorSpec(kind, fc).check_preconditions(n)
                if bound is None:
                    assert fc == 0
                elif kind == "bulyan":
                    try:
                        AggregatorSpec(kind, f_true).check_preconditions(n)
                        feasible = True
                    except TooFewWorkersError:
                        feasible = False
                    assert (fc is None) == (not feasible)
                else:
                    assert fc == (min(f_true, bound) if bound >= 0 else None)
