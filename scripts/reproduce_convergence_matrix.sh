#!/usr/bin/env bash
# Full convergence-matrix experiment on the synthetic blobs task with the
# MLP server model: train the filter online, then sweep
# {rgcf, krum, median, trimmed_mean, bulyan} x
# {inverse, random_gaussian, all_ones, gradient_shift} x
# {20%, 33%, 50%, 90%} Byzantine workers.
# Takes about a minute: 48-50 s on a 2-vCPU Xeon VM with OpenBLAS, where
# the same grid run one cell at a time took 91-93 s; most of it is the
# compare grid, whose cells run on every CPU. Results land in runs/compare/.
set -euo pipefail
cd "$(dirname "$0")/.."

# The rgcf of this checkout, whether or not a copy is installed.
rgcf() {
    PYTHONPATH="$PWD/src" python3 -m rgcf.cli "$@"
}

SEED="${1:-0}"
OUT="runs/compare"

rgcf train-filter --seed "$SEED" --out "$OUT" \
    --set arch=mlp --set hidden=32

rgcf compare --seed "$SEED" --out "$OUT" \
    --set arch=mlp --set hidden=32 \
    --set "filter_file=$OUT/filter.rgcf"

echo
echo "convergence matrix: $OUT/convergence_matrix.csv"
column -s, -t "$OUT/convergence_matrix.csv" 2>/dev/null || cat "$OUT/convergence_matrix.csv"
