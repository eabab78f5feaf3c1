#!/usr/bin/env bash
# Per-decision filtering cost at d=100000 (bench_d's default, over bench's
# 100 timed calls): the filter's single forward pass vs. one aggregation
# call for each baseline (krum, median, trimmed_mean, bulyan), at n = 10,
# 20, 40 workers.
# Results land in runs/bench/bench.csv. Timings depend on the machine.
# The filter's rows at different n time the same call, since its decision
# never reads n; each decision streams the filter's 51 MB float64 first
# layer, so memory bandwidth sets its cost. Krum and Bulyan grow
# ~quadratically in n. The coordinate median and trimmed mean cost less
# than the filter at n=10 and cross it near n=12-14. Takes about 1.5
# minutes on a 2-vCPU Xeon VM.
set -euo pipefail
cd "$(dirname "$0")/.."

# The rgcf of this checkout, whether or not a copy is installed.
rgcf() {
    PYTHONPATH="$PWD/src" python3 -m rgcf.cli "$@"
}

OUT="runs/bench"

rgcf bench --seed 0 --out "$OUT" --set bench_n=10,20,40

echo
column -s, -t "$OUT/bench.csv" 2>/dev/null || cat "$OUT/bench.csv"
