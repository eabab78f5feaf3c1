#!/usr/bin/env bash
# Full convergence-matrix experiment on the synthetic blobs task with the
# MLP server model, at each given seed (default 0): train the filter
# online, then sweep
# {rgcf, krum, median, trimmed_mean, bulyan} x
# {inverse, random_gaussian, all_ones, gradient_shift} x
# {20%, 33%, 50%, 90%} Byzantine workers, into runs/compare/<seed>/, and
# print the matrix, each cell with its verdict's margin.
# Takes about a minute per seed: 48-50 s on a 2-vCPU Xeon VM with
# OpenBLAS, where the same grid run one cell at a time took 91-93 s; most
# of it is the compare grid, whose cells run on every CPU.
#
#   scripts/reproduce_convergence_matrix.sh [SEED...]
set -euo pipefail
cd "$(dirname "$0")/.."

# The rgcf of this checkout, whether or not a copy is installed.
rgcf() {
    PYTHONPATH="$PWD/src" python3 -m rgcf.cli "$@"
}

MLP=(--set arch=mlp --set hidden=32)

for seed in "${@:-0}"; do
    out="runs/compare/$seed"
    rgcf train-filter --seed "$seed" --out "$out" "${MLP[@]}"
    rgcf compare --seed "$seed" --out "$out" "${MLP[@]}" \
        --set "filter_file=$out/filter.rgcf"
    echo
    echo "convergence matrix: $out/convergence_matrix.csv"
    cat "$out/convergence_matrix.csv"
done
