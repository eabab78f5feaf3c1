"""Benchmark of the rgcf lab; run from the root of a checkout:

    python3 perfbench/run.py --workload grid-wide --seed 0 --seconds 50 --trace 0

It imports the package from `src/` of the current directory, prepares the
workload's inputs from `--seed`, runs the workload's closed loop for
`--seconds`, checks every operation's output, and prints a JSON line as
the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json.
With `--trace 1` whole cycles alternate between untraced and traced by
the span tracer, and the metrics are the per-layer metrics. Everything else (the
workload's own figures, sample counts, digests, the machine) is printed
before that line and written to `.perfbench_work/results/`.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# One BLAS thread, set before numpy loads: at most nproc on any machine,
# and a neighbour's load on the other core does not stall a BLAS barrier.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 7  # set-ups per run, each in a fresh interpreter; setup_s is their median


def _import_program():
    """The program is the rgcf package in ./src; never an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rgcf", "__init__.py")):
        sys.exit(f"error: {src}/rgcf not found; run from the root of an rgcf checkout")
    sys.path.insert(0, src)
    import rgcf

    if not os.path.abspath(rgcf.__file__).startswith(src + os.sep):
        sys.exit(f"error: imported rgcf from {rgcf.__file__}, not {src}")


_import_program()

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import BASELINES, RGCF, WORKLOADS  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="rgcf benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ------------------------------------------------------------------ set-up


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: imports (timed from interpreter start of this file) plus
    the workload's set-up, then print the elapsed seconds."""
    wl = WORKLOADS[workload](seed, os.path.join(WORK, workload + "-probe"))
    wl.setup()
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))


def measure_setup(workload: str, seed: int, host) -> list[float]:
    """Raw seconds of each set-up probe; the host speed reference is timed
    right before each probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        host.samples.append(hostspeed.reference())
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ------------------------------------------------------------------ machine


def blas_threads_in_effect():
    """Ask the loaded OpenBLAS how many threads it uses, if it is OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "blas": vendor,
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_effect": blas_threads_in_effect(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


# ------------------------------------------------------------------ loop


def measure(wl, host, seconds: float) -> list:
    """The workload's parts, as many as fit in `seconds`, at least one
    whole cycle, with the host speed reference sampled between operations."""
    parts = []
    wl.before_op = host.maybe_sample
    start = time.perf_counter()
    last = 0.0
    while len(parts) < wl.parts_per_cycle or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        parts.append(wl.part())
        last = time.perf_counter() - t0
    wl.before_op = lambda: None
    return parts


def measure_traced(wl, tracer, seconds: float) -> tuple[list, list]:
    """Whole cycles alternately untraced and traced, so that machine drift
    falls on both halves alike; returns the parts of (untraced, traced)."""
    halves: tuple[list, list] = ([], [])
    start = time.perf_counter()
    last = 0.0
    while min(map(len, halves)) < wl.parts_per_cycle or time.perf_counter() - start + last <= seconds:
        traced = len(halves[0]) > len(halves[1])
        if traced:
            tracer.install()
        t0 = time.perf_counter_ns()
        for _ in range(wl.parts_per_cycle):
            halves[traced].append(wl.part())
        last = (time.perf_counter_ns() - t0) / 1e9
        if traced:
            tracer.wall_ns += time.perf_counter_ns() - t0
            tracer.uninstall()
    return halves


def cycle_seconds(wl, parts, path: str | None = None) -> float:
    """Time of one cycle: over the operation kinds (of `path`, or all), the
    kind's mean time over the run times how often it runs in a cycle.

    The mean over the whole run, not the median of a few cycles: a shared
    host's speed drifts in plateaus of tens of seconds, and the run-long
    average is what repeats from run to run."""
    runs: dict[str, int] = {}
    for ops in parts[: wl.parts_per_cycle]:
        for op in ops:
            runs[op.kind] = runs.get(op.kind, 0) + 1
    by_kind: dict[str, list[float]] = {}
    for ops in parts:
        for op in ops:
            if path is None or op.path == path:
                by_kind.setdefault(op.kind, []).append(op.seconds)
    return sum(float(np.mean(v)) * runs.get(kind, 0) for kind, v in by_kind.items())


def raw_times(wl, parts) -> dict[str, float]:
    return {
        "cycle_s": cycle_seconds(wl, parts),
        "rgcf_s": cycle_seconds(wl, parts, RGCF),
        "baselines_s": cycle_seconds(wl, parts, BASELINES),
    }


def end_to_end(wl, parts, host, setup_host, setup_samples) -> dict[str, float]:
    """The times scaled to the host's nominal speed (see hostspeed.py)."""
    scale = host.scale()
    return {
        "setup_s": float(np.median(setup_samples)) * setup_host.scale(),
        **{name: seconds * scale for name, seconds in raw_times(wl, parts).items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": 1.0 - wl.failed / wl.attempted,
    }


def per_layer(wl, tracer, first_span: int, traced, untraced, counters, names) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from the traced phase.

    `<layer>.calls` and `<layer>.self_s` are per cycle; `<layer>.us_per_call`
    is the mean and `.p50`/`.p90` the percentiles of single calls;
    `<layer>.s` is seconds per call over every traced call, set-up included;
    `<layer>.<count>_per_call` divides a counter by the layer's calls. A
    layer the workload does not call reads 0.
    """
    n_cycles = len(traced) // wl.parts_per_cycle  # traced cycles
    phase = tracer.per_layer(first_span)
    everything = tracer.per_layer()
    known = {name for _m, _a, name in tracing.WRAPPED if name}
    known |= {f"aggregators.{kind}" for kind in tracing.AGGREGATOR_KINDS}
    none = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations_us": np.zeros(0)}

    tr, fr, fa = (counters.get(k, 0.0) for k in ("filter.true_reject", "filter.false_reject", "filter.false_accept"))
    transferred = counters.get("simulation.transferred_gradients", 0.0)
    wall = tracer.wall_ns / 1e9 / n_cycles
    spans = float(tracer.self_times_ns(first_span).sum()) / 1e9 / n_cycles
    out = {
        "filter.precision": tr / (tr + fr) if tr + fr else 0.0,
        "filter.recall": tr / (tr + fa) if tr + fa else 0.0,
        "simulation.transferred_gradients": transferred / n_cycles,
        "simulation.accepted_updates": counters.get("simulation.accepted_updates", 0.0) / n_cycles,
        "simulation.useful_gradient_ratio": (
            counters.get("simulation.accepted_honest", 0.0) / transferred if transferred else 0.0
        ),
        "trace.wall_s": wall,
        "trace.spans_self_s": spans,
        "trace.remainder_s": wall - spans,
        "trace.spans_per_cycle": (len(tracer.names) - first_span) / n_cycles,
        "trace.overhead_frac": (
            cycle_seconds(wl, traced) / cycle_seconds(wl, untraced) - 1.0
        ),
    }
    for metric in names:
        if metric in out:
            continue
        layer, _, stat = metric.rpartition(".")
        q = None
        if stat in ("p50", "p90"):
            q = int(stat[1:])
            layer, _, stat = layer.rpartition(".")
        if layer not in known:
            continue  # the caller reports it as missing
        entry = phase.get(layer, none)
        calls = entry["calls"]
        if stat == "us_per_call" and q is not None:
            out[metric] = float(np.percentile(entry["durations_us"], q)) if calls else 0.0
        elif stat == "us_per_call":
            out[metric] = entry["total_s"] / calls * 1e6 if calls else 0.0
        elif stat == "calls":
            out[metric] = calls / n_cycles
        elif stat == "self_s":
            out[metric] = entry["self_s"] / n_cycles
        elif stat == "s":
            total = everything.get(layer, none)
            out[metric] = total["total_s"] / total["calls"] if total["calls"] else 0.0
        elif stat.endswith("_per_call"):
            count = counters.get(f"{layer}.{stat.removesuffix('_per_call')}", 0.0)
            out[metric] = count / calls if calls else 0.0
    return out


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setup_host = hostspeed.HostSpeed()
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed, setup_host)
    wl = WORKLOADS[args.workload](args.seed, os.path.join(WORK, args.workload))
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()  # the set-up's filter save/load are layer calls too
    wl.setup()
    if tracer:
        tracer.uninstall()
    wl.warmup()

    if tracer:
        first_span = len(tracer.names)
        untraced, traced = measure_traced(wl, tracer, args.seconds)
        counters = dict(tracer.counters)
        for k, v in wl.counters.items():
            counters[k] = counters.get(k, 0.0) + v
        values = per_layer(wl, tracer, first_span, traced, untraced, counters, [m["name"] for m in wanted])
        parts = untraced
        tracer.write_csv(os.path.join(WORK, "results", tag + "-spans.csv"))
    else:
        host = hostspeed.HostSpeed()
        parts = measure(wl, host, args.seconds)
        values = end_to_end(wl, parts, host, setup_host, setup_samples)
    wl.finish()

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: benchmark computed no value for {missing}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "parts": len(parts),
        "parts_per_cycle": wl.parts_per_cycle,
        "setup_samples_s": setup_samples,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "ops_failed_frac": wl.failed / wl.attempted,
        "raw_times_s": {"setup_s": float(np.median(setup_samples)), **raw_times(wl, parts)} if not args.trace else {},
        "host_reference": None if args.trace else {
            "samples": len(host.samples),
            "mean_s": float(np.mean(host.samples)),
            "nominal_s": hostspeed.NOMINAL_S,
            "scale": host.scale(),
            "setup_samples": len(setup_host.samples),
            "setup_scale": setup_host.scale(),
        },
        "figures": wl.detail(parts),
        "digests": wl.digests,
        "failures": wl.failures,
        "machine": machine(),
    }
    with open(os.path.join(WORK, "results", tag + ".json"), "w") as f:
        ops = [[[op.kind, op.seconds] for op in part] for part in parts]
        json.dump({**detail, "metrics": metrics, "ops_per_part": ops}, f, indent=1)
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, seconds in detail["raw_times_s"].items():
            print(f"{'raw.' + name:48s} {seconds:.6g} s (unscaled)")
        ref = detail["host_reference"]
        print(f"{'host.scale':48s} {ref['scale']:.6g} (reference mean {ref['mean_s'] * 1e3:.4g} ms, n={ref['samples']})")
        print(f"{'host.setup_scale':48s} {ref['setup_scale']:.6g} (n={ref['setup_samples']})")
    for name, m in detail["figures"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']} (n={m['n']})")
    print(f"{'ops_failed_frac':48s} {detail['ops_failed_frac']:.6g} ({wl.failed} of {wl.attempted} operations)")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
