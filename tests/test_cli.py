import os

import pytest

from rgcf.cli import clamped_f_count, fmt, main, resolve_f_count
from rgcf.config import build_config

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
        assert os.path.exists(os.path.join(out, "timing.txt"))

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

    def test_corrupt_filter_is_runtime_failure(self, tmp_path):
        bad = tmp_path / "bad.rgcf"
        bad.write_bytes(b"JUNKJUNKJUNKJUNK" * 8)
        out = str(tmp_path / "r")
        assert run_cli("run", "--out", out, *FAST, "--set", f"filter_file={bad}") == 2

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
]


@pytest.mark.parametrize("command,args", INVALID_CONFIGS)
def test_invalid_config_exits_1_before_writing(trained, tmp_path, command, args):
    out = str(tmp_path / "x")
    code = run_cli(command, "--out", out, *FAST, "--set", f"filter_file={trained}/filter.rgcf", *args)
    assert code == 1
    assert not os.path.exists(os.path.join(out, "manifest.txt"))


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
        cfg = build_config(None, {"n_workers": "10", "byzantine_fraction": "0.33"})
        assert resolve_f_count(cfg) == 3
        cfg = build_config(None, {"f_count": "2"})
        assert resolve_f_count(cfg) == 2

    def test_clamped_policy(self):
        assert clamped_f_count("median", 10, 9) == 0
        assert clamped_f_count("krum", 10, 9) == 7
        assert clamped_f_count("trimmed_mean", 10, 9) == 4
        assert clamped_f_count("bulyan", 10, 1) == 1
        assert clamped_f_count("bulyan", 10, 2) is None
