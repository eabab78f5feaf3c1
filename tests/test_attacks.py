import numpy as np
import pytest

from rgcf.attacks import (
    ALL_ONES,
    ATTACK_KINDS,
    DEFAULT_SCALES,
    GRADIENT_SHIFT,
    INVERSE,
    RANDOM_GAUSSIAN,
    AttackSpec,
    apply_attack,
)
from tests.conftest import rng


def test_default_scales():
    assert AttackSpec(GRADIENT_SHIFT).scale == 50.0
    assert AttackSpec(RANDOM_GAUSSIAN).scale == 1.0
    assert AttackSpec(INVERSE).scale == 1.0
    assert AttackSpec(ALL_ONES).scale == 1.0
    assert set(DEFAULT_SCALES) == set(ATTACK_KINDS)


def test_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec("mirror")
    with pytest.raises(ValueError):
        AttackSpec(INVERSE, 0.0)
    with pytest.raises(ValueError):
        AttackSpec(GRADIENT_SHIFT, -1.0)
    with pytest.raises(ValueError):
        AttackSpec(RANDOM_GAUSSIAN, float("inf"))


def test_inverse_is_negated_scaled_gradient():
    g = np.array([1.0, -2.0, 0.5])
    out = apply_attack(AttackSpec(INVERSE, 3.0), g, rng(0))
    assert np.array_equal(out, [-3.0, 6.0, -1.5])


def test_all_ones_ignores_gradient():
    out = apply_attack(AttackSpec(ALL_ONES), np.array([5.0, -5.0]), rng(0))
    assert np.array_equal(out, [1.0, 1.0])


@pytest.mark.parametrize("scale", [3.0, -0.5, 0.0])
def test_all_ones_sends_its_scale(scale):
    out = apply_attack(AttackSpec(ALL_ONES, scale), np.array([5.0, -5.0, 0.0]), rng(0))
    assert np.array_equal(out, [scale] * 3)


def test_gradient_shift_adds_scaled_noise():
    g = np.array([1.0, 2.0, 3.0, 4.0])
    noise = rng(9, 1).standard_normal(4)
    out = apply_attack(AttackSpec(GRADIENT_SHIFT, 50.0), g, rng(9, 1))
    assert np.allclose(out, g + 50.0 * noise)


def test_random_gaussian_independent_of_gradient():
    a = apply_attack(AttackSpec(RANDOM_GAUSSIAN, 2.0), np.zeros(64), rng(4, 2))
    b = apply_attack(AttackSpec(RANDOM_GAUSSIAN, 2.0), np.full(64, 1e6), rng(4, 2))
    assert np.array_equal(a, b)
    assert np.array_equal(a, 2.0 * rng(4, 2).standard_normal(64))


def test_random_gaussian_scale_statistics():
    out = apply_attack(AttackSpec(RANDOM_GAUSSIAN, 3.0), np.zeros(20000), rng(5))
    assert abs(out.std() - 3.0) < 0.1
    assert abs(out.mean()) < 0.1
