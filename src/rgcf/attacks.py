"""Byzantine gradient transformations.

Each attack maps the honest gradient a worker would have sent to the
gradient it actually sends. The scalar loss reported alongside is left
honest; only the gradient is corrupted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RANDOM_GAUSSIAN = "random_gaussian"
INVERSE = "inverse"
ALL_ONES = "all_ones"
GRADIENT_SHIFT = "gradient_shift"

ATTACK_KINDS = (RANDOM_GAUSSIAN, INVERSE, ALL_ONES, GRADIENT_SHIFT)

# The only scale with a stated source is the shift attack's 50; the scaled
# Gaussian, inverse and all-ones attacks default to 1 and are sweep knobs
# (all_ones sends every coordinate equal to its scale).
DEFAULT_SCALES = {
    RANDOM_GAUSSIAN: 1.0,
    INVERSE: 1.0,
    ALL_ONES: 1.0,
    GRADIENT_SHIFT: 50.0,
}


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    scale: float | None = None

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.scale is None:
            object.__setattr__(self, "scale", DEFAULT_SCALES[self.kind])
        if not np.isfinite(self.scale):
            raise ValueError("scale must be finite")
        if self.kind in (INVERSE, GRADIENT_SHIFT) and self.scale <= 0:
            raise ValueError(f"{self.kind} requires scale > 0")


def apply_attack(
    spec: AttackSpec, true_grad: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    d = true_grad.shape[0]
    if spec.kind == RANDOM_GAUSSIAN:
        return spec.scale * rng.standard_normal(d)
    if spec.kind == INVERSE:
        return -spec.scale * true_grad
    if spec.kind == ALL_ONES:
        return np.full(d, spec.scale)
    if spec.kind == GRADIENT_SHIFT:
        return true_grad + spec.scale * rng.standard_normal(d)
    raise AssertionError(f"unreachable: {spec.kind}")
