#!/usr/bin/env bash
# The convergence matrix at more than one seed, with each verdict's margin.
# For each seed, trains the filter and runs the full compare grid as
# reproduce_convergence_matrix.sh does (MLP, hidden=32), into
# runs/seeds/<seed>/, then prints one line per runnable cell: seed, method,
# attack, fraction, verdict, final accuracy, clean reference and margin.
# The margin is how far the accuracy clears the ✓ bar (ref - 0.03) for a ✓,
# and how far it falls short of it for a ✗; a diverged ✗ reads nan. About
# a minute per seed on a 2-vCPU Xeon VM.
#
#   scripts/seed_sweep.sh SEED...
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
    echo "usage: $0 SEED..." >&2
    exit 1
fi

# The rgcf of this checkout, whether or not a copy is installed.
rgcf() {
    PYTHONPATH="$PWD/src" python3 -m rgcf.cli "$@" >/dev/null
}

MLP=(--set arch=mlp --set hidden=32)

for seed in "$@"; do
    out="runs/seeds/$seed"
    rgcf train-filter --seed "$seed" --out "$out" "${MLP[@]}"
    rgcf compare --seed "$seed" --out "$out" "${MLP[@]}" \
        --set "filter_file=$out/filter.rgcf"
done

python3 - "$@" <<'EOF'
import csv
import sys

print("seed method attack fraction verdict accuracy reference margin")
for seed in sys.argv[1:]:
    with open(f"runs/seeds/{seed}/convergence_matrix.csv", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            if row["verdict"] not in ("✓", "✗"):
                continue
            acc, ref = float(row["final_accuracy"]), float(row["clean_reference"])
            margin = acc - (ref - 0.03)
            if row["verdict"] == "✗":
                margin = -margin
            print(seed, row["method"], row["attack"], row["fraction"], row["verdict"],
                  f"{acc:.3f}", f"{ref:.3f}", f"{margin:+.3f}")
EOF
