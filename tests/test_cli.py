import concurrent.futures
import multiprocessing
import os
import re
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from rgcf import cli, core, kernels, models, simulation
from rgcf.aggregators import AGGREGATOR_KINDS, AggregatorSpec, max_f_count
from rgcf.cli import clamped_f_count, convergence_verdict, fmt, main, resolve
from rgcf.config import build_config
from rgcf.core import MAX_WORKERS, stream
from rgcf.data import synth_gaussian_blobs
from rgcf.filter import NO_START, filter_init, load_filter, save_filter
from rgcf.simulation import run_aggregated, run_rgcf
from tests.test_data import write_idx
from tests.test_models import kernel_threads

# tiny-but-real settings: logistic blobs task, short runs
FAST = [
    "--set", "blobs_classes=3",
    "--set", "blobs_per_class=30",
    "--set", "blobs_in_dim=6",
    "--set", "filter_steps=40",
    "--set", "steps=30",
    "--set", "batch_size=16",
]


def run_cli(*argv):
    return main(list(argv))


def read(path):
    with open(path, "rb") as f:
        return f.read()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A FAST filter at seed 1, trained long enough to tell the attacks
    apart: at fraction 0.5 it accepts every honest gradient of a FAST run
    (FAST's own 40 steps reject them all)."""
    out = str(tmp_path_factory.mktemp("tf"))
    assert run_cli("train-filter", "--seed", "1", "--out", out, *FAST, "--set", "filter_steps=500") == 0
    return out


MLP = {"arch": "mlp", "hidden": "32"}


@pytest.fixture(scope="module")
def mlp_filter(tmp_path_factory):
    """A default-config MLP filter at seed 0. At attack_scale=0.003 it
    accepts some gradient_shift gradients at fraction 0.5 (n=10, 25 steps)
    and makes no error under the inverse attack."""
    out = str(tmp_path_factory.mktemp("mlp-tf"))
    assert run_cli("train-filter", "--seed", "0", "--out", out, *sets(MLP)) == 0
    return os.path.join(out, "filter.rgcf")


def sets(overrides: dict) -> list[str]:
    return [arg for key, value in overrides.items() for arg in ("--set", f"{key}={value}")]


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
        assert len(lines) == 501

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

    def test_missing_compiler_fails_the_compiled_rules_only(self, trained, tmp_path, monkeypatch, capsys):
        # the compiled kernels are built on first use, never at import: the
        # Adam step in train-filter, and the column sort of median, trimmed
        # mean at f_count > 0 and Bulyan, which bench always times. Each
        # command loads the kernels it needs before it writes any output, so
        # without a compiler each of those is a one-line runtime failure
        # with no output directory; rgcf, Krum, mean and trimmed mean at
        # f_count=0 never load the kernels
        monkeypatch.setattr(kernels, "CC", ("no-such-compiler", *kernels.CC[1:]))
        failure = "runtime failure: cannot build the compiled kernels with 'no-such-compiler'"
        filter_file = ["--set", f"filter_file={trained}/filter.rgcf"]
        compare = ["--set", "compare_attacks=inverse", "--set", "compare_fractions=0.5"]

        def agg(kind):
            return ["--set", "mode=aggregator", "--set", f"aggregator={kind}"]

        compiled = [
            ("train-filter", []),
            ("bench", ["--set", "bench_d=50"]),
            ("run", agg("median")),
            ("run", [*agg("trimmed_mean"), "--set", "byzantine_fraction=0.2"]),
            ("run", [*agg("bulyan"), "--set", "n_workers=7", "--set", "f_count=1"]),
            ("compare", [*filter_file, *compare, "--set", "compare_methods=rgcf,krum,median"]),
        ]
        for i, (command, args) in enumerate(compiled):
            out = tmp_path / f"compiled{i}"
            assert run_cli(command, "--seed", "1", "--out", str(out), *FAST, *args) == 2
            err = capsys.readouterr().err
            assert err.startswith(failure) and err.count("\n") == 1
            assert not out.exists()  # so no convergence_matrix.csv either
        plain = [
            ("run", filter_file),
            ("run", [*agg("krum"), "--set", "byzantine_fraction=0.2"]),
            ("run", agg("mean")),
            ("run", agg("trimmed_mean")),
            ("compare", [*filter_file, *compare, "--set", "compare_methods=rgcf,krum"]),
        ]
        for i, (command, args) in enumerate(plain):
            assert run_cli(command, "--seed", "1", "--out", str(tmp_path / f"plain{i}"), *FAST, *args) == 0

    def test_filter_file_does_not_move_the_trained_filter(self, tmp_path):
        # train-filter always writes filter.rgcf under out; filter_file only
        # names the filter that run and compare read
        out = tmp_path / "o"
        args = ["train-filter", "--seed", "1", *FAST]
        assert run_cli(*args, "--out", str(out), "--set", "filter_file=sub/f.rgcf") == 0
        assert sorted(os.listdir(out)) == ["filter.rgcf", "filter_train.csv", "manifest.txt"]
        assert run_cli(*args, "--out", str(tmp_path / "default")) == 0
        assert read(out / "filter.rgcf") == read(tmp_path / "default" / "filter.rgcf")

    def test_import_loads_no_library(self):
        # the kernels are built and loaded on first use, so importing the
        # program runs no compiler and opens no shared library of its own
        code = "import rgcf.cli, rgcf.kernels as k; assert k._library.cache_info().currsize == 0"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

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
        # every 25 steps and at the last
        assert [row.split(",")[0] for row in evals[1:]] == ["25", "30"]
        header, row = open(os.path.join(out, "summary.csv")).read().splitlines()
        assert header.startswith("accepted_honest,")
        assert int(row.split(",")[0]) > 0  # the filter applies honest updates
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

    def test_run_line_reports_the_filters_precision_and_recall(self, mlp_filter, tmp_path, capsys):
        # rgcf mode prints the precision and recall of the filter's rejections,
        # from the summary counts, and - for a ratio of nothing; the
        # aggregator line has neither
        lines = {}
        for name, args in (
            ("shift", sets({"attack": "gradient_shift", "attack_scale": "0.01", "byzantine_fraction": "0.5"})),
            ("honest", ["--set", "byzantine_fraction=0"]),
            ("median", ["--set", "mode=aggregator", "--set", "aggregator=median"]),
        ):
            out = str(tmp_path / name)
            code = run_cli(
                "run", "--seed", "0", "--out", out, *sets(MLP), "--set", f"filter_file={mlp_filter}",
                "--set", "steps=25", "--set", "n_workers=10", *args,
            )
            assert code == 0
            header, row = open(os.path.join(out, "summary.csv")).read().splitlines()
            lines[name] = capsys.readouterr().out, dict(zip(header.split(","), map(int, row.split(","))))
        head = r"run finished: final val accuracy \d\.\d{4}, diverged=False"
        out, c = lines["shift"]
        assert c["rejected_byz"] and c["accepted_byz"]
        precision = c["rejected_byz"] / (c["rejected_byz"] + c["rejected_honest"])
        recall = c["rejected_byz"] / (c["rejected_byz"] + c["accepted_byz"])
        assert re.fullmatch(head + f", precision {precision:.4f}, recall {recall:.4f}\n", out)
        out, c = lines["honest"]
        assert c["rejected_honest"] == c["rejected_byz"] == c["accepted_byz"] == 0
        assert re.fullmatch(head + ", precision -, recall -\n", out)
        assert re.fullmatch(head + "\n", lines["median"][0])

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

    def test_header_beyond_the_file_is_runtime_failure(self, tmp_path, capsys):
        # a 77-byte filter file whose header claims d = 2**32 - 1 fails on
        # its length, naming the file, not on a 2.2 TB allocation
        path = tmp_path / "huge.rgcf"
        path.write_bytes(struct.pack("<4sII", b"RGCF", 3, 2**32 - 1) + bytes(65))
        out = str(tmp_path / "r")
        assert run_cli("run", "--out", out, *FAST, "--set", f"filter_file={path}") == 2
        assert capsys.readouterr().err.startswith(f"runtime failure: {path}: truncated, expected ")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_format_version_is_runtime_failure(self, trained, tmp_path, capsys, version):
        # a filter file from before format 3 must be retrained; no old
        # reader is kept
        path = tmp_path / "old.rgcf"
        blob = bytearray(read(os.path.join(trained, "filter.rgcf")))
        struct.pack_into("<I", blob, 4, version)  # the version follows the magic
        path.write_bytes(bytes(blob))
        out = str(tmp_path / "r")
        assert run_cli("run", "--seed", "1", "--out", out, *FAST, "--set", f"filter_file={path}") == 2
        message = f"runtime failure: {path}: unsupported format version {version}; retrain the filter\n"
        assert capsys.readouterr().err == message
        assert not os.path.exists(out)

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


class TestDecisionMargins:
    SCRIPT = str(Path(__file__).resolve().parents[1] / "scripts" / "decision_margins.py")

    def margins(self, *dirs):
        return subprocess.run([sys.executable, self.SCRIPT, *dirs], capture_output=True, text=True)

    def test_smoke(self, trained, tmp_path):
        # the script's counts are the run's summary, and its margins the
        # extreme probabilities of steps.csv
        out = str(tmp_path / "run")
        filter_file = f"filter_file={trained}/filter.rgcf"
        code = run_cli("run", "--seed", "1", "--out", out, *FAST, "--set", filter_file, "--set", "byzantine_fraction=0.5")
        assert code == 0
        summary = dict(zip(*(line.split(",") for line in open(os.path.join(out, "summary.csv")))))
        rows = [line.split(",") for line in open(os.path.join(out, "steps.csv")).read().splitlines()[1:]]
        wrong = [step for step, _, truth, predicted, _ in rows if truth != predicted]
        honest = [float(p) for *_, truth, _, p in rows if truth == "0"]
        byzantine = [float(p) for *_, truth, _, p in rows if truth == "1"]
        result = self.margins(out)
        assert result.returncode == 0
        fields = dict(item.split("=") for item in result.stdout.split(": ", 1)[1].split())
        counts = [fields.pop(key) for key in ("steps", "honest_rejected", "byzantine_accepted", "first_wrong_step")]
        assert counts == ["30", summary["rejected_honest"], summary["accepted_byz"], wrong[0] if wrong else "-"]
        assert list(fields) == ["max_honest_p", "min_byzantine_p"]
        assert float(fields["max_honest_p"]) == max(honest)
        assert float(fields["min_byzantine_p"]) == min(byzantine)

    def test_refuses_an_aggregator_run(self, tmp_path):
        out = str(tmp_path / "agg")
        assert run_cli("run", "--out", out, *FAST, "--set", "mode=aggregator") == 0
        result = self.margins(out)
        assert result.returncode == 1
        assert result.stdout == ""
        assert "not a filter-mode run" in result.stderr


class TestBench:
    def test_smoke(self, tmp_path):
        out = str(tmp_path / "bench")
        code = run_cli(
            "bench", "--out", out,
            "--set", "bench_n=7,8", "--set", "bench_d=50",
        )
        assert code == 0
        lines = open(os.path.join(out, "bench.csv")).read().splitlines()
        assert lines[0] == "method,n,d,reps,mean_seconds,std_seconds"
        # the filter and the four robust rules at every bench_n, 100 timed calls each
        methods = ("rgcf", "krum", "median", "trimmed_mean", "bulyan")
        rows = [line.split(",")[:4] for line in lines[1:]]
        assert rows == [[m, n, "50", "100"] for m in methods for n in ("7", "8")]


class TestVerdict:
    def outcome(self, acc, loss=0.5, diverged=False):
        return simulation.RunMetrics(val_accuracies=[acc], val_losses=[loss], diverged=diverged)

    def test_margin_is_the_distance_to_the_flip(self):
        # the bar is ref - CONVERGENCE_TOLERANCE; a ✓ clears it by the
        # margin, a ✗ falls short of it by the margin
        assert cli.CONVERGENCE_TOLERANCE == 0.03
        verdict, acc, margin = convergence_verdict(self.outcome(0.9), 0.9)
        assert (verdict, acc) == ("✓", 0.9) and margin == pytest.approx(0.03)
        verdict, _, margin = convergence_verdict(self.outcome(0.875), 0.9)
        assert verdict == "✓" and margin == pytest.approx(0.005)
        verdict, _, margin = convergence_verdict(self.outcome(0.213), 1.0)
        assert verdict == "✗" and margin == pytest.approx(0.757)
        # at the bar itself the cell is ✓ with margin 0
        assert convergence_verdict(self.outcome(0.5), 0.5 + cli.CONVERGENCE_TOLERANCE)[0::2] == ("✓", 0.0)

    @pytest.mark.parametrize(
        "acc,loss,diverged,ref",
        [(0.9, 0.5, True, 0.9), (float("nan"), 0.5, False, 0.9), (0.9, float("inf"), False, 0.9),
         (0.9, 0.5, False, float("nan"))],
    )
    def test_a_non_accuracy_failure_has_no_margin(self, acc, loss, diverged, ref):
        verdict, _, margin = convergence_verdict(self.outcome(acc, loss, diverged), ref)
        assert (verdict, margin) == ("✗", None)


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
        assert lines[0] == "method,attack,fraction,f_count,final_accuracy,clean_reference,verdict,margin"
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
            assert rows[(method, "0.9")][6:] == ["✗", ""]  # no margin for a divergence

    def test_unknown_attack(self, tmp_path):
        code = run_cli(
            "compare", "--out", str(tmp_path / "c"), "--set", "compare_attacks=mirror"
        )
        assert code == 1

    def test_one_oracle_twin_runs_per_fraction(self, mlp_filter, tmp_path, monkeypatch):
        # the filtered cells at one fraction share one oracle twin, run
        # once, and its accuracy is each one's reference: the inverse cell,
        # which makes no wrong decision, is its twin; the gradient_shift
        # cell parts from it. The cells run in forked workers, which
        # inherit the spy: it logs one line per call to a file, and cells
        # may interleave.
        log = tmp_path / "calls.txt"
        real = cli.run_rgcf

        def spy(cell, *args, **kwargs):
            m = real(cell, *args, **kwargs)
            with open(log, "a") as f:
                f.write(f"{cell.attack.kind} {cell.byzantine_fraction} {kwargs.get('ground_truth', False)} "
                        f"{m.rejected_honest} {m.accepted_byz} {m.final_accuracy!r}\n")
            return m

        monkeypatch.setattr(cli, "run_rgcf", spy)
        out = str(tmp_path / "cmp")
        code = run_cli(
            "compare", "--seed", "0", "--out", out, *sets(MLP),
            "--set", f"filter_file={mlp_filter}",
            "--set", "compare_methods=rgcf",
            "--set", "compare_attacks=inverse,gradient_shift",
            "--set", "compare_fractions=0.2,0.5",
            "--set", "attack_scale=0.003",
            "--set", "steps=25",
            "--set", "n_workers=10",
        )
        assert code == 0
        runs = [line.split() for line in log.read_text().splitlines()]
        assert sorted(fraction for _, fraction, twin, *_ in runs if twin == "True") == ["0.2", "0.5"]
        twins = {fraction: float(acc) for _, fraction, twin, *_, acc in runs if twin == "True"}
        cells = {
            (kind, fraction): (int(rejected_honest), int(accepted_byz), float(acc))
            for kind, fraction, twin, rejected_honest, accepted_byz, acc in runs
            if twin == "False"
        }
        assert len(cells) == 4
        lines = open(os.path.join(out, "convergence_matrix.csv")).read().splitlines()
        rows = {(r[1], r[2]): r for r in (ln.split(",") for ln in lines[1:])}
        for (kind, fraction), (*_, acc) in cells.items():
            assert rows[(kind, fraction)][4:6] == [fmt(acc), fmt(twins[fraction])]
        inverse, shifted = cells[("inverse", "0.5")], cells[("gradient_shift", "0.5")]
        assert inverse == (0, 0, twins["0.5"])
        assert shifted[1] > 0 and shifted[2] != twins["0.5"]

    def test_a_grid_submits_one_job_per_reference(self, mlp_filter, tmp_path, monkeypatch):
        # the default grid's references are four oracle twins, one per
        # fraction, and one clean run per aggregator spec, each submitted
        # once before the cells
        submitted = []
        real = concurrent.futures.ProcessPoolExecutor.submit

        def spy(pool, fn, *args):
            submitted.append(args)
            return real(pool, fn, *args)

        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "submit", spy)
        overrides = {**MLP, "seed": "0", "out": str(tmp_path / "cmp"), "filter_file": mlp_filter, "steps": "1"}
        assert run_cli("compare", *sets(overrides)) == 0
        cells = [cell for *_, cell in resolve(build_config(None, overrides)).grid if cell is not None]
        refs, jobs = submitted[: -len(cells)], submitted[-len(cells) :]
        assert jobs == [(cell,) for cell in cells]
        twins = [cell for cell, ground_truth in refs if ground_truth]
        assert sorted(cell.byzantine_fraction for cell in twins) == [0.2, 0.33, 0.5, 0.9]
        clean = [cell.aggregator for cell, ground_truth in refs if not ground_truth]
        assert sorted(clean, key=repr) == sorted({cell.aggregator for cell in cells} - {None}, key=repr)

    def test_matrix_equals_the_serial_runs(self, mlp_filter, tmp_path, capsys):
        # the pool's matrix and stdout are those of running every cell and
        # its reference in turn in this process
        overrides = {
            **MLP, "seed": "0", "out": str(tmp_path / "cmp"), "filter_file": mlp_filter,
            "compare_methods": "rgcf,median,trimmed_mean,bulyan",
            "compare_attacks": "inverse,gradient_shift", "attack_scale": "0.003",
            "compare_fractions": "0.1,0.5", "steps": "25", "n_workers": "10",
        }
        assert run_cli("compare", *sets(overrides)) == 0
        stdout = capsys.readouterr().out
        cfg = build_config(None, overrides)
        train, val = cli.load_train(cfg), cli.load_val(cfg)
        arch, filt = cli.build_arch(cfg, train), load_filter(mlp_filter)

        def run(cell, ground_truth=False):
            if cell.aggregator is None:
                return run_rgcf(cell, train, val, arch, filt, ground_truth=ground_truth)
            return run_aggregated(cell, train, val, arch)

        header = "method,attack,fraction,f_count,final_accuracy,clean_reference,verdict,margin"
        rows, lines, parted = [header], [], 0
        for method, attack, fraction, cell in resolve(cfg).grid:
            if cell is None:
                row = (method, attack, fraction, None, None, None, cli.SKIPPED, None)
            else:
                ref = run(*cli.reference(cell)).final_accuracy
                verdict, acc, margin = convergence_verdict(run(cell), ref)
                f_count = None if cell.aggregator is None else cell.aggregator.f_count
                row = (method, attack, fraction, f_count, acc, ref, verdict, margin)
                parted += cell.aggregator is None and acc != ref
            rows.append(",".join(fmt(c) for c in row))
            lines.append(f"compare {attack} f={fraction:.0%} {method}: {row[6]}")
        assert ("bulyan", cli.SKIPPED) in {(r.split(",")[0], r.split(",")[6]) for r in rows[1:]}
        assert parted > 0
        assert read(os.path.join(overrides["out"], "convergence_matrix.csv")) == "".join(
            r + "\n" for r in rows
        ).encode()
        assert stdout.splitlines() == lines

    def test_pool_workers_split_over_their_share_of_the_cpus(self, tmp_path, monkeypatch, capsys):
        # on two CPUs a lone wide aggregator run splits each turn in two,
        # while compare's two pool workers hold one CPU each and keep every
        # turn of the same run whole
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        log, real = tmp_path / "parts", core.run_parts

        def logged(count, part):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {count}\n")
            return real(count, part)

        monkeypatch.setattr(core, "run_parts", logged)
        wide = [*FAST, "--set", "blobs_in_dim=5500", "--set", "aggregator=median"]
        assert run_cli("run", "--seed", "1", "--out", str(tmp_path / "run"), *wide,
                       "--set", "mode=aggregator", "--set", "byzantine_fraction=0.5") == 0
        assert log.read_text() == f"{os.getpid()} 2\n" * 30
        log.unlink()
        assert run_cli("compare", "--seed", "1", "--out", str(tmp_path / "compare"), *wide,
                       "--set", "compare_methods=median",
                       "--set", "compare_attacks=inverse",
                       "--set", "compare_fractions=0.5") == 0
        lines = log.read_text().splitlines()
        assert len(lines) == 2 * 30 and {line.split()[1] for line in lines} == {"1"}
        assert os.getpid() not in {int(line.split()[0]) for line in lines}
        assert core.cpu_parts(10**6, 1) == 2
        capsys.readouterr()

    def test_wide_training_leaves_no_thread_to_fork(self, tmp_path, monkeypatch, capsys):
        # a wide train-filter (1.06M filter weights) on two CPUs splits each
        # Adam step with a helper thread, joined before the step returns;
        # the compare that forks its pool next in this process writes the
        # matrix and stdout of a fresh process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        calls = kernel_threads(monkeypatch)
        real, counts = models.adam_step, []

        def counting(*args):
            real(*args)
            counts.append(threading.active_count())

        monkeypatch.setattr("rgcf.filter.adam_step", counting)
        wide = [*FAST, "--set", "blobs_in_dim=5500"]
        threads = threading.active_count()
        assert run_cli("train-filter", "--seed", "1", "--out", str(tmp_path / "tf"), *wide) == 0
        assert len(counts) == 40 and set(counts) == {threads}
        assert len(calls) == 80 and calls.count(threading.get_ident()) == 40
        assert threading.active_count() == threads
        monkeypatch.undo()
        capsys.readouterr()
        compare = [
            "compare", "--seed", "1", *wide,
            "--set", f"filter_file={tmp_path}/tf/filter.rgcf",
            "--set", "compare_methods=rgcf,median",
            "--set", "compare_attacks=inverse",
            "--set", "compare_fractions=0.5",
        ]
        assert run_cli(*compare, "--out", str(tmp_path / "here")) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "PYTHONIOENCODING": "utf-8"}
        fresh = subprocess.run(
            [sys.executable, "-m", "rgcf.cli", *compare, "--out", str(tmp_path / "fresh")],
            env=env, capture_output=True, check=True,
        )
        assert fresh.stdout.decode() == capsys.readouterr().out
        matrices = [read(tmp_path / out / "convergence_matrix.csv") for out in ("here", "fresh")]
        assert matrices[0] == matrices[1]

    def test_all_skipped_grid_runs_no_job(self, tmp_path):
        # Bulyan at n=10 cannot run above f=1: nothing to submit, exit 0
        out = str(tmp_path / "cmp")
        code = run_cli(
            "compare", "--out", out,
            "--set", "compare_methods=bulyan", "--set", "compare_fractions=0.5,0.9",
        )
        assert code == 0
        lines = open(os.path.join(out, "convergence_matrix.csv")).read().splitlines()
        assert len(lines) == 9 and all(ln.endswith(",–,") for ln in lines[1:])
        assert multiprocessing.active_children() == []

    def test_worker_failure_is_runtime_failure(self, trained, tmp_path, monkeypatch, capsys):
        # the forked workers inherit the patch: the median cell at 50% (five
        # Byzantine workers of ten) fails in its first worker turn
        real = simulation.worker_step

        def failing(workers, *args, **kwargs):
            if len(workers) > 1 and sum(w.byzantine for w in workers) == 5:
                raise ValueError("length mismatch: expected 3, got 4")
            return real(workers, *args, **kwargs)

        monkeypatch.setattr(simulation, "worker_step", failing)
        out = str(tmp_path / "cmp")
        code = run_cli(
            "compare", "--seed", "1", "--out", out, *FAST,
            "--set", f"filter_file={trained}/filter.rgcf",
            "--set", "compare_methods=rgcf,median",
            "--set", "compare_attacks=inverse",
            "--set", "compare_fractions=0.2,0.5,0.9",
        )
        assert code == 2
        assert capsys.readouterr().err == "runtime failure: length mismatch: expected 3, got 4\n"
        lines = open(os.path.join(out, "convergence_matrix.csv")).read().splitlines()
        assert [ln.split(",")[:3] for ln in lines[1:]] == [
            ["rgcf", "inverse", "0.2"],
            ["median", "inverse", "0.2"],
            ["rgcf", "inverse", "0.5"],
        ]
        assert multiprocessing.active_children() == []


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
    ("bench", ["--set", "bench_n=2"]),  # Krum at n=2 cannot take bench's f_count=1
    ("train-filter", ["--set", "blobs_classes=7"]),  # FAST has blobs_in_dim=6
    # bench reads the training set too, so it judges the same data settings
    ("bench", ["--set", "blobs_classes=7"]),
    ("bench", ["--set", "n_workers=1000"]),
    ("bench", ["--set", "task=idx"]),  # no dataset files
    ("run", ["--set", "batch_size=0"]),
    ("train-filter", ["--set", "filter_lr=0"]),
    ("train-filter", ["--set", "filter_lr=nan"]),
    ("train-filter", ["--set", "positive_weight=nan"]),
    ("run", ["--out", " "]),  # stripped to an empty out
    ("run", ["--set", "server_lr=0"]),
    ("run", ["--set", "mode=aggregator", "--set", "server_lr=-1"]),
    ("bench", ["--set", "steps=0"]),  # every command validates the whole config
    ("train-filter", ["--set", "aggregator=bogus", "--set", "filter_steps=5"]),
    ("bench", ["--set", "aggregator=bogus"]),
    ("run", ["--set", "mode=aggregator", "--set", "f_count=-2"]),  # only -1 means the default
    ("compare", ["--set", "compare_methods=rgcf,fft"]),
    # 120,000 examples, but worker 99,000's batch stream would be worker 0's attack stream
    ("run", ["--set", "blobs_per_class=40000", "--set", f"n_workers={MAX_WORKERS + 1}"]),
    ("run", ["--set", "normalize=true"]),  # the filter input is always direction-only
    ("compare", ["--set", "threshold=0.5"]),  # every filter decides at p >= 0.5
    ("compare", ["--set", "f_count=1"]),  # each cell assumes its true Byzantine count
    # a manifest line cannot hold '#' or a line break
    ("train-filter", ["--set", "train_images=a#b"]),  # read only by the idx task
    ("compare", ["--set", "compare_attacks=inverse,\nall_ones"]),
    ("run", ["--set", "task=foo"]),
    ("run", ["--set", "arch=foo"]),
    ("run", ["--set", "arch=mlp", "--set", "hidden=0"]),
    ("train-filter", ["--set", "task=idx"]),  # no dataset files
    ("run", ["--set", "task=idx", "--set", "train_images=/no/such/images"]),
    ("run", ["--set", "arch=mlp"]),  # the filter was trained for the logistic model
    # a grid row is keyed by (method, attack, fraction), so no entry repeats
    ("compare", ["--set", "compare_methods=rgcf,krum,rgcf"]),
    ("compare", ["--set", "compare_attacks=inverse,inverse"]),
    ("run", ["--set", "compare_fractions=0.2,0.20"]),
    # an empty list would write a header-only matrix or bench.csv
    ("compare", ["--set", "compare_methods="]),
    ("compare", ["--set", "compare_attacks=,"]),
    ("compare", ["--set", "compare_fractions="]),
    ("bench", ["--set", "bench_n="]),
    # a bench.csv row is keyed by (method, n)
    ("bench", ["--set", "bench_n=10,10"]),
]


@pytest.mark.parametrize("command,args", INVALID_CONFIGS)
def test_invalid_config_exits_1_before_writing(trained, tmp_path, capsys, command, args):
    # at the seed the filter was trained at, so each row fails for its own reason
    out = str(tmp_path / "x")
    code = run_cli(command, "--seed", "1", "--out", out, *FAST, "--set", f"filter_file={trained}/filter.rgcf", *args)
    assert code == 1
    assert "model start" not in capsys.readouterr().err
    assert not os.path.exists(out)


class TestFilterStart:
    """A filter guards the model start its training run started from: run
    and compare refuse one trained at another seed, or one that records no
    start, with exit 1 before any output."""

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_filter_from_another_seed_exits_1_before_writing(self, mlp_filter, tmp_path, capsys, command):
        out = str(tmp_path / "x")
        assert run_cli(command, "--seed", "1", "--out", out, *sets(MLP), "--set", f"filter_file={mlp_filter}") == 1
        message = f"error: {mlp_filter} was not trained from this run's model start: train it at seed=1\n"
        assert capsys.readouterr().err == message
        assert not os.path.exists(out)

    def test_filter_without_a_start_exits_1_before_writing(self, tmp_path, capsys):
        # filter_init's filter records the zero digest, which no start has
        path = str(tmp_path / "fresh.rgcf")
        fresh = filter_init(models.logistic(6, 3).param_count, stream(0, 10))  # FAST's model
        assert fresh.start == NO_START
        save_filter(fresh, path)
        out = str(tmp_path / "x")
        assert run_cli("run", "--out", out, *FAST, "--set", f"filter_file={path}") == 1
        assert "model start" in capsys.readouterr().err
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

    def test_out_with_hash_exits_1_before_writing(self, tmp_path):
        # the manifest of out=<dir>/a#b would read back as out=<dir>/a
        assert run_cli("train-filter", "--out", str(tmp_path / "a#b"), *FAST) == 1
        assert os.listdir(tmp_path) == []

    def test_out_is_stripped_like_a_set_value(self, tmp_path, monkeypatch):
        # --out " sp " and --set out=sp name the same directory, so a rerun
        # from the manifest writes where the first run did
        monkeypatch.chdir(tmp_path)
        assert run_cli("train-filter", "--out", " sp ", *FAST) == 0
        assert os.listdir(tmp_path) == ["sp"]
        assert build_config(os.path.join("sp", "manifest.txt")).out == "sp"

    def test_empty_out_exits_1_before_writing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("train-filter", *FAST, "--set", "out=") == 1
        assert capsys.readouterr().err == "error: out is empty: name an output directory\n"
        assert os.listdir(tmp_path) == []

    def test_seed_and_out_flags_override(self, tmp_path):
        out = str(tmp_path / "o")
        assert run_cli("train-filter", "--seed", "9", "--out", out, *FAST) == 0
        cfg = build_config(os.path.join(out, "manifest.txt"))
        assert cfg.seed == 9
        assert cfg.out == out


def test_empty_config_resolves_to_the_specs_own_defaults():
    # the tests that build FilterTrainConfig() or a RunConfig from its
    # defaults build what the CLI runs from a config that sets nothing
    specs = resolve(build_config(None, {}))
    assert specs.filter_train == simulation.FilterTrainConfig()
    run = specs.run
    assert run == simulation.RunConfig(run.n_workers, run.byzantine_fraction, run.attack, run.steps, run.seed)


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
                    except ValueError:
                        feasible = False
                    assert (fc is None) == (not feasible)
                else:
                    assert fc == (min(f_true, bound) if bound >= 0 else None)
