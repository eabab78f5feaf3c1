import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgcf import core
from rgcf.core import (
    GradientReport,
    LengthMismatchError,
    NonFiniteValueError,
    assert_finite,
    param_vector,
    stream,
)


def l2_distance(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise LengthMismatchError(a.shape[0], b.shape[0])
    return float(np.linalg.norm(a - b))


class TestParamVector:
    def test_freezes_and_casts(self):
        v = param_vector([1, 2, 3])
        assert v.dtype == np.float64
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 5.0

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            param_vector(np.zeros((2, 2)))

    def test_rejects_nan_with_index(self):
        with pytest.raises(NonFiniteValueError) as e:
            param_vector([0.0, 1.0, np.nan, 2.0])
        assert e.value.index == 2

    def test_rejects_inf(self):
        with pytest.raises(NonFiniteValueError) as e:
            param_vector([np.inf, 1.0])
        assert e.value.index == 0


def test_assert_finite_passes_on_clean():
    assert_finite(np.arange(5, dtype=float))


class TestL2Distance:
    def test_hand_345(self):
        assert l2_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            l2_distance(np.zeros(2), np.zeros(3))

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_metric_properties(self, xs, ys, zs):
        n = min(len(xs), len(ys), len(zs))
        a, b, c = (np.array(v[:n]) for v in (xs, ys, zs))
        ab, ba = l2_distance(a, b), l2_distance(b, a)
        assert ab == ba
        assert ab >= 0.0
        assert l2_distance(a, c) <= ab + l2_distance(b, c) + 1e-9


class TestGradientReport:
    def test_rejects_negative_loss(self):
        with pytest.raises(ValueError):
            GradientReport(gradient=param_vector([1.0]), loss=-0.1)

    def test_rejects_nan_loss(self):
        # a non-finite loss is a non-finite value at index d, the loss's
        # coordinate in the filter input, so a run records it as divergence
        for loss in (float("nan"), float("inf")):
            with pytest.raises(NonFiniteValueError) as e:
                GradientReport(gradient=param_vector([1.0, 2.0]), loss=loss)
            assert e.value.index == 2


class TestRngStream:
    def test_pinned_prefix(self):
        # Philox is counter-based, so this sequence is a platform-independent
        # contract; a change here silently breaks every seeded experiment.
        g = stream(12345, 7)
        assert list(g.integers(0, 2**63, size=4)) == [
            7704093830898093416,
            2951364761412220749,
            3362844623287450599,
            6559973361183149852,
        ]

    def test_same_key_same_sequence(self):
        a = stream(3, 9).random(16)
        b = stream(3, 9).random(16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = stream(3, 9).random(16)
        b = stream(3, 10).random(16)
        c = stream(4, 9).random(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_seed_stream_no_collision(self):
        # (seed, stream) pairs map to distinct 128-bit keys, so a stream id
        # can never collide with another seed's stream 0.
        a = stream(1, 0).random(8)
        b = stream(0, 1).random(8)
        assert not np.array_equal(a, b)


WORKER_BASES = {"SID_WORKER_BATCH": core.SID_WORKER_BATCH, "SID_WORKER_ATTACK": core.SID_WORKER_ATTACK}
FIXED_IDS = {
    name: v for name, v in vars(core).items() if name.startswith("SID_") and name not in WORKER_BASES
}


class TestStreamTable:
    """core holds every stream id: the fixed ids and the two per-worker
    ranges [base, base + MAX_WORKERS) must never meet."""

    def test_ids_keep_their_values(self):
        # every seeded output depends on these; changing one changes bits
        assert FIXED_IDS == {
            "SID_FILTER_INIT": 10, "SID_SERVER_INIT": 11, "SID_FILTER_PICK": 12,
            "SID_FILTER_BATCH": 13, "SID_FILTER_ATTACK": 14, "SID_BYZ_PICK": 21,
            "SID_SHARD": 22, "SID_WORKER_PICK": 23, "SID_BENCH": 30,
            "SID_BLOBS_TRAIN": 40, "SID_BLOBS_VAL": 41,
        }
        assert WORKER_BASES == {"SID_WORKER_BATCH": 1000, "SID_WORKER_ATTACK": 100000}
        assert core.MAX_WORKERS == 99000

    def test_fixed_ids_distinct(self):
        assert len(set(FIXED_IDS.values())) == len(FIXED_IDS)

    def test_fixed_ids_outside_worker_ranges(self):
        for name, v in FIXED_IDS.items():
            for base in WORKER_BASES.values():
                assert not base <= v < base + core.MAX_WORKERS, name

    def test_worker_ranges_disjoint(self):
        batch, attack = (range(b, b + core.MAX_WORKERS) for b in WORKER_BASES.values())
        assert batch.stop <= attack.start or attack.stop <= batch.start
        # the last worker's batch stream is not the first worker's attack stream
        last = stream(0, core.SID_WORKER_BATCH + core.MAX_WORKERS - 1).random(4)
        assert not np.array_equal(last, stream(0, core.SID_WORKER_ATTACK).random(4))
