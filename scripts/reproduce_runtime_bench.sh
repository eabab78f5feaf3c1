#!/usr/bin/env bash
# Per-decision filtering cost at d=100000: the filter's single forward pass
# vs. one aggregation call for each baseline, at n = 10, 20, 40 workers.
# Results land in runs/bench/bench.csv. Timings depend on the machine; rgcf
# is the cheapest and flat in n, and krum/bulyan grow ~quadratically. Takes
# about 3.5 minutes on a 2-vCPU Xeon VM.
set -euo pipefail
cd "$(dirname "$0")/.."

# The rgcf of this checkout, whether or not a copy is installed.
rgcf() {
    PYTHONPATH="$PWD/src" python3 -m rgcf.cli "$@"
}

OUT="runs/bench"

rgcf bench --seed 0 --out "$OUT" \
    --set bench_n=10,20,40 \
    --set bench_d=100000 \
    --set bench_reps=100

echo
column -s, -t "$OUT/bench.csv" 2>/dev/null || cat "$OUT/bench.csv"
