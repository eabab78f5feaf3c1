#!/usr/bin/env bash
# Seed-0 bit check: runs a fixed probe set with the checkout this script
# lives in and prints a sorted sha256sum of every CSV and filter file it
# wrote (manifest.txt and timing.txt hold paths and times, so they are
# skipped). To compare two trees, run each tree's copy of this script into
# its own fresh OUT and `diff` the two listings. Takes about 11 s on a
# 2-vCPU Xeon VM.
#
#   scripts/check_bits.sh OUT
#
# Probes: train-filter (logistic, MLP hidden=32, 784-input wide MLP at 50
# steps, MLP at 1000 steps under the inverse attack, whose gradients
# depend on the server's parameters); run in rgcf, krum, bulyan (n=11,
# f=2), median, trimmed_mean and mean mode; median and trimmed_mean at
# n=40, a second size of the sorting network; MLP median and bulyan (n=11,
# f=2) runs under the inverse attack; a mean run under all_ones at
# attack_scale=3, whose scale reaches the applied aggregate (the `decision`
# column of steps.csv holds its norm); an all-Byzantine
# attack_scale=1e200 MLP mean run that diverges at its first step; the
# 80-cell MLP compare grid at steps=25; its 16 rgcf cells at
# attack_scale=0.003, where the filter accepts gradient_shift gradients,
# so the cells' oracle twins part from them; wide krum and median runs
# (n=10, 30% gradient_shift, 100 steps), whose worker turns are large
# enough to split across two CPUs.
#
# The probes run on one BLAS thread. Byte-reproducibility holds at a fixed
# BLAS thread count, not across counts: with OpenBLAS, the wide probe's
# filter.rgcf differs between one and two threads (its filter_train.csv
# does not). Pinning the count keeps two trees' listings comparable
# whatever the calling shell sets. perfbench runs on one BLAS thread too.
set -euo pipefail
export OPENBLAS_NUM_THREADS=1

if [ $# -ne 1 ]; then
    echo "usage: $0 OUT" >&2
    exit 1
fi
if [ -e "$1" ]; then
    echo "$1 already exists; give a fresh directory" >&2
    exit 1
fi
OUT="$(realpath -m "$1")"
cd "$(dirname "$0")/.."

rgcf() {
    PYTHONPATH="$PWD/src" python3 -m rgcf.cli "$@" >/dev/null
}

MLP=(--set arch=mlp --set hidden=32)
WIDE=("${MLP[@]}" --set blobs_in_dim=784 --set blobs_classes=10)
RUN=(--set byzantine_fraction=0.3 --set steps=300)

rgcf train-filter --seed 0 --out "$OUT/logistic"
rgcf train-filter --seed 0 --out "$OUT/mlp" "${MLP[@]}"
rgcf train-filter --seed 0 --out "$OUT/wide" "${WIDE[@]}" --set filter_steps=50
rgcf train-filter --seed 0 --out "$OUT/mlp-inverse" "${MLP[@]}" \
    --set filter_steps=1000 --set train_attack=inverse

rgcf run --seed 0 --out "$OUT/run/rgcf" "${RUN[@]}" \
    --set "filter_file=$OUT/logistic/filter.rgcf"
for agg in krum median trimmed_mean mean; do
    rgcf run --seed 0 --out "$OUT/run/$agg" "${RUN[@]}" \
        --set mode=aggregator --set "aggregator=$agg"
done
for agg in median trimmed_mean; do
    rgcf run --seed 0 --out "$OUT/run/$agg-n40" "${RUN[@]}" \
        --set mode=aggregator --set "aggregator=$agg" --set n_workers=40
done
rgcf run --seed 0 --out "$OUT/run/bulyan" "${RUN[@]}" \
    --set mode=aggregator --set aggregator=bulyan \
    --set n_workers=11 --set f_count=2
# MLP runs under the inverse attack put zeros of both signs in the columns
# the medians sort, so these two check that a zero's sign never reaches the
# parameters.
rgcf run --seed 0 --out "$OUT/run/mlp-median" "${MLP[@]}" "${RUN[@]}" \
    --set attack=inverse --set mode=aggregator --set aggregator=median
rgcf run --seed 0 --out "$OUT/run/mlp-bulyan" "${MLP[@]}" "${RUN[@]}" \
    --set attack=inverse --set mode=aggregator --set aggregator=bulyan \
    --set n_workers=11 --set f_count=2
rgcf run --seed 0 --out "$OUT/run/mean-all-ones" "${RUN[@]}" \
    --set mode=aggregator --set aggregator=mean \
    --set attack=all_ones --set attack_scale=3
rgcf run --seed 0 --out "$OUT/run/diverge" "${MLP[@]}" \
    --set mode=aggregator --set aggregator=mean \
    --set byzantine_fraction=1.0 --set attack_scale=1e200 --set steps=300

for agg in krum median; do
    rgcf run --seed 0 --out "$OUT/run/wide-$agg" "${WIDE[@]}" \
        --set mode=aggregator --set "aggregator=$agg" --set n_workers=10 \
        --set byzantine_fraction=0.3 --set attack=gradient_shift --set steps=100
done

rgcf compare --seed 0 --out "$OUT/compare" "${MLP[@]}" \
    --set steps=25 --set n_workers=10 \
    --set "filter_file=$OUT/mlp/filter.rgcf"
rgcf compare --seed 0 --out "$OUT/compare-twins" "${MLP[@]}" \
    --set steps=25 --set n_workers=10 --set attack_scale=0.003 \
    --set compare_methods=rgcf --set "filter_file=$OUT/mlp/filter.rgcf"

cd "$OUT"
find . -type f \( -name '*.csv' -o -name '*.rgcf' \) | LC_ALL=C sort | xargs sha256sum
