"""How close each filter decision of an rgcf run came to being wrong.

    python3 scripts/decision_margins.py RUN_DIR...

Reads the `steps.csv` of each `rgcf run` output directory, in filter mode,
where the `decision` column holds the filter's probability p that the step's
gradient is Byzantine and `predicted` is 1 when p reached 0.5, the one cut
every filter decides at (`rgcf.filter.THRESHOLD`).
Prints one line per directory: the steps, the honest gradients rejected,
the Byzantine gradients accepted, the first step with a wrong decision, the
largest p of an honest gradient and the smallest p of a Byzantine one ("-"
where there is none). The gap between those two shows how far the cut
could have sat from 0.5 before a decision of the run changed; a filter's
operating point moves through `positive_weight` when it is trained.

A directory of an aggregator run, whose steps have no ground truth, is
refused with exit 1, as is one without a `steps.csv`.
"""

from __future__ import annotations

import csv
import os
import sys

HEADER = ["step", "train_loss", "ground_truth", "predicted", "decision"]


def margins(run_dir: str) -> str:
    path = os.path.join(run_dir, "steps.csv")
    if not os.path.isfile(path):
        sys.exit(f"{run_dir}: no steps.csv; give the output directory of an rgcf run")
    with open(path) as f:
        rows = list(csv.reader(f))
    if rows[:1] != [HEADER] or any(row[2] == "" for row in rows[1:]):
        sys.exit(f"{run_dir}: not a filter-mode run (an aggregator run's steps have no ground truth)")
    steps = rows[1:]
    wrong = [row for row in steps if row[2] != row[3]]
    honest = [row[4] for row in steps if row[2] == "0"]
    byzantine = [row[4] for row in steps if row[2] == "1"]
    return (
        f"{run_dir}: steps={len(steps)} "
        f"honest_rejected={sum(row[2] == '0' for row in wrong)} "
        f"byzantine_accepted={sum(row[2] == '1' for row in wrong)} "
        f"first_wrong_step={wrong[0][0] if wrong else '-'} "
        f"max_honest_p={max(honest, key=float, default='-')} "
        f"min_byzantine_p={min(byzantine, key=float, default='-')}"
    )


def main(argv: list[str]) -> int:
    if not argv:
        sys.exit("usage: decision_margins.py RUN_DIR...")
    for run_dir in argv:
        print(margins(run_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
