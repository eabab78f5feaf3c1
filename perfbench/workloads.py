"""The two benchmark workloads.

Each workload is a closed loop driven by one process: an operation starts
only after the previous one has returned. `setup` prepares the inputs,
`part` runs the next part of a cycle over the workload's operations and
returns their timings (a cycle has `parts_per_cycle` parts), and every
operation's output is checked outside its timed region. An operation is one
CLI command, one grid cell or one decision.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

import rgcf.aggregators
import rgcf.cli
import rgcf.filter

import reference

RGCF = "rgcf"
BASELINES = "baselines"


@dataclass
class Op:
    kind: str  # what ran, e.g. "train_filter" or "decide.krum_n40"
    path: str  # RGCF for the filter's own costs, BASELINES for the aggregators'
    seconds: float
    steps: int = 0  # server steps completed, for run commands


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_cli(argv: list[str]) -> tuple[int, float]:
    """One `rgcf` command in-process; returns (exit code, seconds).

    `rgcf.cli.main` is looked up at call time so a tracer can wrap it.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = rgcf.cli.main(argv)
        seconds = time.perf_counter() - t0
    return rc, seconds


def read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


class Workload:
    name = ""
    parts_per_cycle = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        # Exact counts that a perf change must leave unchanged.
        self.counters: dict[str, float] = defaultdict(float)
        # Called before each timed operation, outside its timed region.
        self.before_op: Callable[[], None] = lambda: None

    def outcome(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)
        return ok

    def check_digests(self, files: dict[str, str]) -> None:
        """The first cycle's digests are the run's record; every later
        cycle repeats the same commands with the same seed, so a differing
        file is a failed operation."""
        for key, path in files.items():
            if not os.path.exists(path):
                self.outcome(False, f"{key}: missing")
                continue
            digest = sha256(path)
            if key not in self.digests:
                self.digests[key] = digest
            else:
                self.outcome(digest == self.digests[key], f"{key}: digest changed between cycles")

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)

    def timed_cli(self, argv: list[str]) -> tuple[int, float]:
        self.before_op()
        return run_cli(argv)

    def warmup(self) -> None:
        pass

    def part(self) -> list[Op]:
        raise NotImplementedError

    def finish(self) -> None:
        pass

    def detail(self, parts: list[list[Op]]) -> dict[str, dict]:
        """The workload's own end-to-end figures, printed beside the metrics."""
        return {}


def figure(samples, unit: str, q: float = 50) -> dict:
    return {"value": float(np.percentile(samples, q)), "unit": unit, "n": len(samples)}


def seconds_of(parts: list[list[Op]], kind: str) -> list[float]:
    return [op.seconds for ops in parts for op in ops if op.kind == kind]


# ---------------------------------------------------------------- grid-wide

MLP = ["--set", "arch=mlp", "--set", "hidden=32"]
GRID_METHODS = {RGCF: "rgcf", BASELINES: "krum,median,trimmed_mean,bulyan"}
GRID_ATTACKS = ("inverse", "random_gaussian", "all_ones", "gradient_shift")
GRID_FRACTIONS = (0.2, 0.33, 0.5, 0.9)
GRID_STEPS = 25
VERDICTS = {"✓", "✗", "–"}

WIDE = [*MLP, "--set", "blobs_in_dim=784", "--set", "blobs_classes=10"]
WIDE_FILTER_STEPS = 50
WIDE_RUN_STEPS = 100
WIDE_WORKERS = 10


class GridWide(Workload):
    """Two parts that alternate, one per `part` call; a cycle is both.

    grid: `rgcf train-filter` plus the full `rgcf compare` grid (4 attacks x
    4 fractions x 5 methods, n=10, blobs MLP hidden=32, d=837) at a reduced
    step count. The grid runs as two commands, the filter's column and the
    baselines' columns, so their costs are timed apart without
    instrumenting the program; together they write the same 80 cells as
    one command.

    wide: `rgcf train-filter`, then one `rgcf run` in rgcf mode and one with
    Krum, 30% gradient_shift workers, on blobs with 784 inputs and 10
    classes (MLP hidden=32, d=25,450; the filter has 1.63M parameters).
    The filter layer both trains, writing weights and Adam state, and
    infers here, so a layout that speeds one at the other's cost shows."""

    name = "grid-wide"
    parts_per_cycle = 2

    def setup(self) -> None:
        super().setup()
        self.parts = 0

    def warmup(self) -> None:
        """First calls into the program outside the timed loop: a short
        train-filter and a one-cell compare, in a directory of their own."""
        out = os.path.join(self.workdir, "warmup")
        filter_file = os.path.join(out, "filter.rgcf")
        rc, _ = run_cli(["train-filter", "--seed", str(self.seed), "--out", out, *MLP, "--set", "filter_steps=20"])
        self.outcome(rc == 0, f"warm-up train-filter exit {rc}")
        rc, _ = run_cli([
            "compare", "--seed", str(self.seed), "--out", out, *MLP,
            "--set", "steps=2", "--set", "n_workers=10", "--set", f"filter_file={filter_file}",
            "--set", "compare_methods=rgcf,krum", "--set", "compare_attacks=inverse",
            "--set", "compare_fractions=0.2",
        ])
        self.outcome(rc == 0, f"warm-up compare exit {rc}")

    def part(self) -> list[Op]:
        part = self.grid_part if self.parts % 2 == 0 else self.wide_part
        self.parts += 1
        return part()

    def grid_part(self) -> list[Op]:
        seed = str(self.seed)
        workdir = os.path.join(self.workdir, "grid")
        filter_file = os.path.join(workdir, "filter.rgcf")
        rc, seconds = self.timed_cli(["train-filter", "--seed", seed, "--out", workdir, *MLP])
        self.outcome(rc == 0 and os.path.exists(filter_file), f"grid train-filter exit {rc}")
        ops = [Op("grid.train_filter", RGCF, seconds)]
        files = {"grid/filter.rgcf": filter_file}
        for path, methods in GRID_METHODS.items():
            out = os.path.join(workdir, path)
            rc, seconds = self.timed_cli([
                "compare", "--seed", seed, "--out", out, *MLP,
                "--set", f"steps={GRID_STEPS}",
                "--set", "n_workers=10",
                "--set", f"filter_file={filter_file}",
                "--set", f"compare_methods={methods}",
                "--set", "compare_attacks=" + ",".join(GRID_ATTACKS),
                "--set", "compare_fractions=" + ",".join(map(str, GRID_FRACTIONS)),
            ])
            ops.append(Op(f"grid.compare.{path}", path, seconds))
            matrix = os.path.join(out, "convergence_matrix.csv")
            self.check_cells(matrix, methods.split(","), rc)
            files[f"grid/{path}/convergence_matrix.csv"] = matrix
        files["grid/filter_train.csv"] = os.path.join(workdir, "filter_train.csv")
        self.check_digests(files)
        return ops

    def check_cells(self, path: str, methods: list[str], rc: int) -> None:
        """Every cell of the grid is present once with a valid verdict."""
        cells = {}
        if rc == 0 and os.path.exists(path):
            for row in read_csv(path):
                key = (row["method"], row["attack"], float(row["fraction"]))
                cells[key] = row["verdict"] if key not in cells else None
        for attack in GRID_ATTACKS:
            for fraction in GRID_FRACTIONS:
                for method in methods:
                    verdict = cells.get((method, attack, fraction))
                    self.outcome(
                        verdict in VERDICTS,
                        f"cell {method}/{attack}/{fraction}: {verdict!r} (compare exit {rc})",
                    )

    def wide_part(self) -> list[Op]:
        seed = str(self.seed)
        workdir = os.path.join(self.workdir, "wide")
        filter_file = os.path.join(workdir, "filter.rgcf")
        rc, seconds = self.timed_cli([
            "train-filter", "--seed", seed, "--out", workdir, *WIDE,
            "--set", f"filter_steps={WIDE_FILTER_STEPS}",
        ])
        self.outcome(rc == 0 and os.path.exists(filter_file), f"wide train-filter exit {rc}")
        ops = [Op("wide.train_filter", RGCF, seconds)]
        files = {
            "wide/filter.rgcf": filter_file,
            "wide/filter_train.csv": os.path.join(workdir, "filter_train.csv"),
        }
        runs = (
            ("run.rgcf", RGCF, []),
            ("run.krum", BASELINES, ["--set", "mode=aggregator", "--set", "aggregator=krum"]),
        )
        for kind, path, mode in runs:
            out = os.path.join(workdir, kind)
            rc, seconds = self.timed_cli([
                "run", "--seed", seed, "--out", out, *WIDE,
                "--set", f"filter_file={filter_file}",
                "--set", f"n_workers={WIDE_WORKERS}",
                "--set", "byzantine_fraction=0.3",
                "--set", "attack=gradient_shift",
                "--set", f"steps={WIDE_RUN_STEPS}",
                *mode,
            ])
            steps = self.check_run(kind, out, rc, per_step=1 if path == RGCF else WIDE_WORKERS)
            ops.append(Op(f"wide.{kind}", path, seconds, steps))
            for name in ("steps.csv", "eval.csv", "summary.csv"):
                files[f"wide/{kind}/{name}"] = os.path.join(out, name)
        self.check_digests(files)
        return ops

    def check_run(self, kind: str, out: str, rc: int, per_step: int) -> int:
        """For a run that did not diverge, every step transferred `per_step`
        gradients and, in rgcf mode, every transferred gradient was either
        accepted or rejected. Returns the steps completed."""
        try:
            summary = read_csv(os.path.join(out, "summary.csv"))[0]
            steps = len(read_csv(os.path.join(out, "steps.csv")))
        except (OSError, IndexError) as e:
            self.outcome(False, f"{kind}: exit {rc}, {e}")
            return 0
        counts = {k: int(v) for k, v in summary.items()}
        transferred = counts["transferred_gradients"]
        ok = rc == 0
        if not counts["diverged"]:
            ok = ok and steps == WIDE_RUN_STEPS and transferred == per_step * steps
            if per_step == 1:
                decided = sum(counts[k] for k in ("accepted_honest", "rejected_honest", "accepted_byz", "rejected_byz"))
                ok = ok and decided == transferred
        self.outcome(ok, f"{kind}: exit {rc}, summary {counts}, {steps} step rows")
        return steps

    def detail(self, parts):
        compare = [sum(op.seconds for op in ops if op.kind.startswith("grid.compare.")) for ops in parts]
        out = {
            "train_filter_s.grid": figure(seconds_of(parts, "grid.train_filter"), "s"),
            "compare_s": figure([s for s in compare if s], "s"),
            "train_filter_s.wide": figure(seconds_of(parts, "wide.train_filter"), "s"),
        }
        for kind in ("run.rgcf", "run.krum"):
            rates = [op.steps / op.seconds for ops in parts for op in ops if op.kind == f"wide.{kind}"]
            out[f"run_steps_per_s.{kind[4:]}"] = figure(rates, "steps/s")
        return out


# --------------------------------------------------------------- decide-1e5

DIM = 100_000
POOL_HONEST = 40
POOL_BYZANTINE = 8
F_COUNT = 1
# One round: the filter decides four times (for a p90 with ten samples
# beyond it), every aggregator once. Interleaving spreads machine drift
# over all methods alike. Bulyan at n=40 is left out: ~3 s per call.
ROUND = (
    "rgcf", "mean_n10", "rgcf", "median_n10", "krum_n10",
    "rgcf", "trimmed_mean_n10", "krum_n40", "rgcf", "bulyan_n10",
)
AGGREGATORS = {
    "mean_n10": ("mean", 10),
    "median_n10": ("median", 10),
    "trimmed_mean_n10": ("trimmed_mean", 10),
    "krum_n10": ("krum", 10),
    "krum_n40": ("krum", 40),
    "bulyan_n10": ("bulyan", 10),
}
CHECK_EVERY = 8  # rounds; the reference checks are slower than the rules


class Decide1e5(Workload):
    """Filter and aggregator decisions over a pre-generated pool of
    synthetic gradients at d=100,000: the paper's runtime claim. Only
    filter inference and aggregator kernels run; no model or data work.
    The filter is a freshly initialised one that reaches the loop through
    save_filter/load_filter, as `rgcf run` gets it."""

    name = "decide-1e5"

    def setup(self) -> None:
        super().setup()
        rng = np.random.Generator(np.random.PCG64([self.seed, 0]))
        direction = rng.standard_normal(DIM)
        honest = [direction + 0.5 * rng.standard_normal(DIM) for _ in range(POOL_HONEST)]
        byzantine = [5.0 * rng.standard_normal(DIM) for _ in range(POOL_BYZANTINE)]
        self.pool = [np.ascontiguousarray(g) for g in honest + byzantine]
        self.labels = [0] * POOL_HONEST + [1] * POOL_BYZANTINE
        built = rgcf.filter.filter_init(DIM, rng)
        self.filter_file = os.path.join(self.workdir, "filter.rgcf")
        rgcf.filter.save_filter(built, self.filter_file)
        self.filt = rgcf.filter.load_filter(self.filter_file)
        self.outcome(np.array_equal(self.filt.params, built.params), "filter: save/load changed the weights")
        self.specs = {
            slot: rgcf.aggregators.AggregatorSpec(kind, 0 if kind in ("mean", "median") else F_COUNT)
            for slot, (kind, _n) in AGGREGATORS.items()
        }
        self.rng = np.random.Generator(np.random.PCG64([self.seed, 1]))
        self.rounds = 0

    def draw(self, slot: str, rng: np.random.Generator):
        if slot == RGCF:
            return int(rng.integers(len(self.pool))), float(rng.uniform(0.1, 3.0))
        return rng.choice(len(self.pool), size=AGGREGATORS[slot][1], replace=False).tolist()

    def decide(self, slot: str, inputs):
        """The timed call. Module attributes are looked up at call time so
        a tracer can wrap them."""
        if slot == RGCF:
            i, loss = inputs
            return rgcf.filter.filter_forward(self.filt, self.pool[i], loss)
        return rgcf.aggregators.aggregate(self.specs[slot], [self.pool[i] for i in inputs])

    def check(self, slot: str, inputs, out) -> bool:
        if slot == RGCF:
            i, loss = inputs
            p = reference.filter_probability(self.filt.params, DIM, (64, 32), self.pool[i], loss)
            return abs(out - p) <= 1e-9
        grads = [self.pool[i] for i in inputs]
        kind = AGGREGATORS[slot][0]
        if kind == "krum":
            return np.array_equal(out, grads[reference.krum_index(grads, F_COUNT)])
        if kind == "bulyan":
            want = reference.bulyan(grads, F_COUNT)
        elif kind == "trimmed_mean":
            want = reference.trimmed_mean(grads, F_COUNT)
        elif kind == "median":
            want = reference.median(grads)
        else:
            want = reference.mean(grads)
        return out.shape == want.shape and np.allclose(out, want, rtol=1e-12, atol=1e-12)

    def round_outputs(self, rng: np.random.Generator, check: bool):
        """One round of decisions; returns its timings and the digest of
        its outputs."""
        ops = []
        digest = hashlib.sha256()
        for slot in ROUND:
            inputs = self.draw(slot, rng)
            self.before_op()
            try:
                t0 = time.perf_counter()
                out = self.decide(slot, inputs)
                seconds = time.perf_counter() - t0
            except Exception as e:  # a decision that raises is a failed operation
                self.outcome(False, f"{slot}: {type(e).__name__}: {e}")
                continue
            ops.append(Op(f"decide.{slot}", RGCF if slot == RGCF else BASELINES, seconds))
            digest.update(np.ascontiguousarray(out, dtype=np.float64).tobytes())
            self.outcome(not check or self.check(slot, inputs, out), f"{slot}: output differs from reference")
        return ops, digest

    def warmup(self) -> None:
        """One untimed, fully checked round; its outputs are the run's
        decision digest, recomputed at the end. Then the filter's verdict
        on every pool gradient against the pool's labels, a fixed set so
        the counts do not depend on how many rounds fit in the run."""
        _ops, digest = self.round_outputs(self.warmup_rng(), check=True)
        self.digests["filter.rgcf"] = sha256(self.filter_file)
        self.digests["decisions"] = digest.hexdigest()
        for grad, label in zip(self.pool, self.labels):
            rejected = rgcf.filter.filter_forward(self.filt, grad, 1.0) >= self.filt.threshold
            self.counters["filter.true_reject"] += rejected and label == 1
            self.counters["filter.false_reject"] += rejected and label == 0
            self.counters["filter.false_accept"] += not rejected and label == 1

    def warmup_rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64([self.seed, 2]))

    def part(self) -> list[Op]:
        ops, _digest = self.round_outputs(self.rng, check=self.rounds % CHECK_EVERY == 0)
        self.rounds += 1
        return ops

    def finish(self) -> None:
        _ops, digest = self.round_outputs(self.warmup_rng(), check=False)
        self.outcome(digest.hexdigest() == self.digests["decisions"], "decisions: digest changed within the run")

    def detail(self, parts):
        out = {}
        for slot in dict.fromkeys(ROUND):
            ms = np.array(seconds_of(parts, f"decide.{slot}")) * 1e3
            out[f"decide_ms.{slot}.p50"] = figure(ms, "ms")
            if len(ms) >= 100:  # at least ten samples beyond the p90
                out[f"decide_ms.{slot}.p90"] = figure(ms, "ms", 90)
        return out


WORKLOADS = {w.name: w for w in (GridWide, Decide1e5)}
