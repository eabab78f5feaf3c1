#!/usr/bin/env bash
# Minimal end-to-end demo (about 2 s on a 2-vCPU Xeon VM): train a filter
# for a logistic model on blobs, deploy it against 50% inverse-attack
# workers, and compare with an unprotected mean aggregator on the same run.
set -euo pipefail
cd "$(dirname "$0")/.."

# The rgcf of this checkout, whether or not a copy is installed.
rgcf() {
    PYTHONPATH="$PWD/src" python3 -m rgcf.cli "$@"
}

OUT="runs/quickstart"

rgcf train-filter --seed 0 --out "$OUT"

rgcf run --seed 0 --out "$OUT/filtered" \
    --set "filter_file=$OUT/filter.rgcf" \
    --set byzantine_fraction=0.5 --set attack=inverse --set steps=500

rgcf run --seed 0 --out "$OUT/unprotected" \
    --set mode=aggregator --set aggregator=mean \
    --set byzantine_fraction=0.5 --set attack=inverse --set steps=500

echo
echo "filtered summary:     $(tail -1 "$OUT/filtered/summary.csv")"
echo "unprotected summary:  $(tail -1 "$OUT/unprotected/summary.csv")"
echo "filtered final eval:    $(tail -1 "$OUT/filtered/eval.csv")"
echo "unprotected final eval: $(tail -1 "$OUT/unprotected/eval.csv")"
