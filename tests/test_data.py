import struct

import numpy as np
import pytest

from rgcf.data import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    BadMagicError,
    CountMismatchError,
    Dataset,
    TooManyShardsError,
    TruncatedFileError,
    load_idx,
    sample_minibatch,
    shard,
    synth_gaussian_blobs,
)
from tests.conftest import rng


def write_idx(dataset: Dataset, images_path: str, labels_path: str, rows: int, cols: int) -> None:
    """Write a dataset back to an IDX pair (inputs are rescaled to u8 by *255)."""
    if rows * cols != dataset.in_dim:
        raise ValueError("rows*cols must equal in_dim")
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", IMAGE_MAGIC, dataset.size, rows, cols))
        f.write(np.round(dataset.inputs * 255.0).astype(np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", LABEL_MAGIC, dataset.size))
        f.write(dataset.labels.astype(np.uint8).tobytes())


def small_dataset(n=12, in_dim=4, classes=10):
    r = rng(30)
    return Dataset(
        inputs=r.integers(0, 256, size=(n, in_dim)).astype(float) / 255.0,
        labels=r.integers(0, classes, size=n),
        classes=classes,
    )


class TestDataset:
    def test_size_and_dim(self):
        d = small_dataset()
        assert d.size == 12
        assert d.in_dim == 4

    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            Dataset(inputs=np.zeros((2, 2)), labels=np.array([0, 5]), classes=3)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Dataset(inputs=np.array([[np.nan, 0.0]]), labels=np.array([0]), classes=1)


class TestIdx:
    def test_round_trip(self, tmp_path):
        d = small_dataset(in_dim=6)
        ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
        write_idx(d, ip, lp, rows=2, cols=3)
        back = load_idx(ip, lp)
        assert np.array_equal(back.inputs, d.inputs)
        assert np.array_equal(back.labels, d.labels)
        assert back.classes == 10

    def test_values_scaled_to_unit_interval(self, tmp_path):
        d = small_dataset()
        ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
        write_idx(d, ip, lp, rows=2, cols=2)
        back = load_idx(ip, lp)
        assert back.inputs.min() >= 0.0 and back.inputs.max() <= 1.0

    def test_bad_image_magic(self, tmp_path):
        ip = tmp_path / "im.idx"
        ip.write_bytes(struct.pack(">iiii", 0x123, 1, 1, 1) + b"\x00")
        lp = tmp_path / "lb.idx"
        lp.write_bytes(struct.pack(">ii", 0x801, 1) + b"\x00")
        with pytest.raises(BadMagicError):
            load_idx(str(ip), str(lp))

    def test_bad_label_magic(self, tmp_path):
        ip = tmp_path / "im.idx"
        ip.write_bytes(struct.pack(">iiii", 0x803, 1, 1, 1) + b"\x00")
        lp = tmp_path / "lb.idx"
        lp.write_bytes(struct.pack(">ii", 0x999, 1) + b"\x00")
        with pytest.raises(BadMagicError):
            load_idx(str(ip), str(lp))

    def test_truncated_pixels(self, tmp_path):
        ip = tmp_path / "im.idx"
        ip.write_bytes(struct.pack(">iiii", 0x803, 2, 2, 2) + b"\x00" * 3)
        lp = tmp_path / "lb.idx"
        lp.write_bytes(struct.pack(">ii", 0x801, 2) + b"\x00\x01")
        with pytest.raises(TruncatedFileError):
            load_idx(str(ip), str(lp))

    def test_count_mismatch(self, tmp_path):
        ip = tmp_path / "im.idx"
        ip.write_bytes(struct.pack(">iiii", 0x803, 2, 1, 1) + b"\x00\x01")
        lp = tmp_path / "lb.idx"
        lp.write_bytes(struct.pack(">ii", 0x801, 3) + b"\x00\x01\x02")
        with pytest.raises(CountMismatchError):
            load_idx(str(ip), str(lp))


class TestBlobs:
    def test_shapes_and_balance(self):
        d = synth_gaussian_blobs(4, 25, 8, 6.0, rng(31))
        assert d.size == 100
        assert d.in_dim == 8
        assert d.classes == 4
        assert np.array_equal(np.bincount(d.labels), [25] * 4)

    def test_unit_interval(self):
        d = synth_gaussian_blobs(3, 50, 5, 10.0, rng(32))
        assert d.inputs.min() >= 0.0 and d.inputs.max() <= 1.0

    def test_separable_for_large_separation(self):
        d = synth_gaussian_blobs(3, 50, 5, 10.0, rng(33))
        # nearest class mean classifies nearly everything
        means = np.stack([d.inputs[d.labels == c].mean(axis=0) for c in range(3)])
        pred = np.argmin(((d.inputs[:, None, :] - means) ** 2).sum(axis=2), axis=1)
        assert (pred == d.labels).mean() > 0.99

    def test_deterministic(self):
        a = synth_gaussian_blobs(3, 10, 5, 4.0, rng(34))
        b = synth_gaussian_blobs(3, 10, 5, 4.0, rng(34))
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_classes_must_fit_in_dim(self):
        with pytest.raises(ValueError):
            synth_gaussian_blobs(6, 10, 5, 4.0, rng(35))


class TestShard:
    def test_disjoint_cover(self):
        d = synth_gaussian_blobs(2, 20, 4, 5.0, rng(36))
        shards = shard(d, 4, rng(37))
        rows = np.concatenate([s.inputs for s in shards])
        assert rows.shape == d.inputs.shape
        assert sorted(map(tuple, rows)) == sorted(map(tuple, d.inputs))

    def test_remainder_sizes_descending(self):
        d = small_dataset(n=10)
        sizes = [s.size for s in shard(d, 3, rng(38))]
        assert sizes == [4, 3, 3]

    def test_too_many_shards(self):
        with pytest.raises(TooManyShardsError):
            shard(small_dataset(n=3), 4, rng(39))


class TestMinibatch:
    def test_with_replacement_allows_oversampling(self):
        d = small_dataset(n=3)
        b = sample_minibatch(d, 50, rng(40))
        assert b.inputs.shape == (50, d.in_dim)

    def test_rows_come_from_dataset(self):
        d = small_dataset()
        b = sample_minibatch(d, 8, rng(41))
        pool = set(map(tuple, d.inputs))
        assert all(tuple(row) in pool for row in b.inputs)

    def test_size_validated(self):
        with pytest.raises(ValueError):
            sample_minibatch(small_dataset(), 0, rng(42))
