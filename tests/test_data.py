import io
import os
import re
import struct

import numpy as np
import pytest

from rgcf.data import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    Dataset,
    load_idx,
    read_exact,
    shard,
    synth_gaussian_blobs,
)
from tests.conftest import minibatch, rng


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


def spy_reads(monkeypatch, module: str) -> list:
    """Make the named module's open() give files that record every size
    their read() is asked for; returns the list of sizes."""
    sizes = []

    class Reader(io.BufferedReader):
        def read(self, n=-1):
            sizes.append(n)
            return super().read(n)

    monkeypatch.setattr(f"{module}.open", lambda path, mode: Reader(io.FileIO(path)), raising=False)
    return sizes


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
        with pytest.raises(ValueError, match=re.escape(f"{ip}: magic 0x00000123, expected 0x00000803")):
            load_idx(str(ip), str(lp))

    def test_bad_label_magic(self, tmp_path):
        ip = tmp_path / "im.idx"
        ip.write_bytes(struct.pack(">iiii", 0x803, 1, 1, 1) + b"\x00")
        lp = tmp_path / "lb.idx"
        lp.write_bytes(struct.pack(">ii", 0x999, 1) + b"\x00")
        with pytest.raises(ValueError, match=re.escape(f"{lp}: magic 0x00000999, expected 0x00000801")):
            load_idx(str(ip), str(lp))

    def test_truncated_pixels(self, tmp_path):
        ip = tmp_path / "im.idx"
        ip.write_bytes(struct.pack(">iiii", 0x803, 2, 2, 2) + b"\x00" * 3)
        lp = tmp_path / "lb.idx"
        lp.write_bytes(struct.pack(">ii", 0x801, 2) + b"\x00\x01")
        with pytest.raises(ValueError, match=re.escape(f"{ip}: truncated, expected 8 more bytes, got 3")):
            load_idx(str(ip), str(lp))

    def test_header_counts_beyond_the_file_are_not_read(self, tmp_path, monkeypatch):
        # corrupt headers claim 50000 images of 200x150 (1.5 GB) and 2**32-2
        # labels (an unsigned size, not -2): each count is refused against
        # the file's length, so no read asks for more than the file holds
        ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
        sizes = spy_reads(monkeypatch, "rgcf.data")
        ip.write_bytes(struct.pack(">iiii", IMAGE_MAGIC, 50000, 200, 150) + b"\x00" * 10)
        lp.write_bytes(struct.pack(">ii", LABEL_MAGIC, 1) + b"\x00")
        message = f"{ip}: truncated, expected 1500000000 more bytes, got 10"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_idx(str(ip), str(lp))
        ip.write_bytes(struct.pack(">iiii", IMAGE_MAGIC, 1, 1, 1) + b"\x00")
        lp.write_bytes(struct.pack(">II", LABEL_MAGIC, 2**32 - 2) + b"\x00")
        message = f"{lp}: truncated, expected {2**32 - 2} more bytes, got 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_idx(str(ip), str(lp))
        assert 0 < max(sizes) <= 26

    def test_read_exact_reads_a_pipe(self):
        # a pipe has no length to check against: it is read as it comes
        r, w = os.pipe()
        os.write(w, b"abcdef")
        os.close(w)
        with os.fdopen(r, "rb") as f:
            assert read_exact(f, 4, "pipe") == b"abcd"
            with pytest.raises(ValueError, match="pipe: truncated, expected 4 more bytes, got 2"):
                read_exact(f, 4, "pipe")

    def test_count_mismatch(self, tmp_path):
        ip = tmp_path / "im.idx"
        ip.write_bytes(struct.pack(">iiii", 0x803, 2, 1, 1) + b"\x00\x01")
        lp = tmp_path / "lb.idx"
        lp.write_bytes(struct.pack(">ii", 0x801, 3) + b"\x00\x01\x02")
        with pytest.raises(ValueError, match="2 images vs 3 labels"):
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

    @pytest.mark.parametrize(
        "args", [(3, 10, 5, 4.0), (10, 40, 784, 10.0), (1, 1, 1, 0.0), (2, 3, 4, float("nan"))]
    )
    def test_in_place_scaling_equals_expression(self, args):
        # the rescale into [0, 1] runs in place; its bytes equal the
        # whole-array expression, also when all inputs are equal or NaN
        data = synth_gaussian_blobs(*args, rng(37))
        classes, per_class, in_dim, separation = args
        r = rng(37)
        n = classes * per_class
        inputs = r.standard_normal((n, in_dim))
        labels = np.repeat(np.arange(classes), per_class)
        inputs[np.arange(n), labels] += separation
        lo, hi = inputs.min(), inputs.max()
        inputs = (inputs - lo) / (hi - lo) if hi > lo else np.zeros_like(inputs)
        perm = r.permutation(n)
        assert data.inputs.tobytes() == inputs[perm].tobytes()
        assert data.labels.tobytes() == labels[perm].tobytes()

    def test_classes_must_fit_in_dim(self):
        with pytest.raises(ValueError):
            synth_gaussian_blobs(6, 10, 5, 4.0, rng(35))


class TestShard:
    def test_disjoint_cover(self):
        # index arrays whose union is range(size), each index once
        shards = shard(40, 4, rng(37))
        assert all(s.ndim == 1 and s.dtype.kind == "i" for s in shards)
        assert np.array_equal(np.sort(np.concatenate(shards)), np.arange(40))

    def test_remainder_sizes_descending(self):
        assert [len(s) for s in shard(10, 3, rng(38))] == [4, 3, 3]
        assert [len(s) for s in shard(3, 3, rng(38))] == [1, 1, 1]

    def test_too_many_shards(self):
        with pytest.raises(ValueError, match="cannot split 3 examples into 4 shards"):
            shard(3, 4, rng(39))


class TestMinibatch:
    def test_with_replacement_allows_oversampling(self):
        d = small_dataset(n=3)
        inputs, labels = minibatch(d, np.arange(3), 50, rng(40))
        assert inputs.shape == (50, d.in_dim)
        assert labels.shape == (50,)

    def test_rows_come_from_dataset(self):
        d = small_dataset()
        rows = np.array([1, 4, 7])
        inputs, _ = minibatch(d, rows, 8, rng(41))
        pool = set(map(tuple, d.inputs[rows]))
        assert all(tuple(row) in pool for row in inputs)

