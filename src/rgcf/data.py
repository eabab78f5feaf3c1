"""Dataset loading (IDX files), synthetic blobs, sharding and mini-batching."""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray  # (N, in_dim), float64 in [0, 1]
    labels: np.ndarray  # (N,) class ids
    classes: int

    def __post_init__(self):
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise ValueError(f"bad inputs shape {self.inputs.shape}")
        if self.labels.shape != (self.inputs.shape[0],):
            raise ValueError("labels must match inputs")
        if not np.isfinite(self.inputs).all():
            raise ValueError("inputs must be finite")
        if self.labels.min() < 0 or self.labels.max() >= self.classes:
            raise ValueError("labels out of range")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    @property
    def in_dim(self) -> int:
        return self.inputs.shape[1]


def read_exact(f, n: int, path: str) -> bytes:
    """The next n bytes of a binary file, or ValueError if it ends first.
    A regular file's remaining length bounds the read, so a corrupt header's
    count never asks for more memory than the file holds; a pipe is read as
    it comes."""
    st = os.fstat(f.fileno())
    data = f.read(min(n, st.st_size - f.tell()) if stat.S_ISREG(st.st_mode) else n)
    if len(data) != n:
        raise ValueError(f"{path}: truncated, expected {n} more bytes, got {len(data)}")
    return data


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Parse a big-endian IDX image/label file pair; pixels scaled to [0,1].
    The header's magic and sizes are unsigned 32-bit integers."""
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">IIII", read_exact(f, 16, images_path))
        if magic != IMAGE_MAGIC:
            raise ValueError(f"{images_path}: magic {magic:#010x}, expected {IMAGE_MAGIC:#010x}")
        pixels = np.frombuffer(
            read_exact(f, count * rows * cols, images_path), dtype=np.uint8
        )
    with open(labels_path, "rb") as f:
        magic, lcount = struct.unpack(">II", read_exact(f, 8, labels_path))
        if magic != LABEL_MAGIC:
            raise ValueError(f"{labels_path}: magic {magic:#010x}, expected {LABEL_MAGIC:#010x}")
        labels = np.frombuffer(read_exact(f, lcount, labels_path), dtype=np.uint8)
    if count != lcount:
        raise ValueError(f"{count} images vs {lcount} labels")
    inputs = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    return Dataset(inputs=inputs, labels=labels.astype(np.int64), classes=10)


def synth_gaussian_blobs(
    classes: int,
    per_class: int,
    in_dim: int,
    separation: float,
    rng: np.random.Generator,
) -> Dataset:
    """Class-conditional unit Gaussians with means at separation * e_c,
    rescaled into [0,1]. Linearly separable for large separation."""
    if classes < 1 or per_class < 1 or in_dim < 1 or separation < 0:
        raise ValueError("classes, per_class, in_dim must be >= 1 and separation >= 0")
    if classes > in_dim:
        raise ValueError("needs classes <= in_dim (means sit on the standard basis)")
    n = classes * per_class
    inputs = rng.standard_normal((n, in_dim))
    labels = np.repeat(np.arange(classes), per_class)
    inputs[np.arange(n), labels] += separation
    lo, hi = inputs.min(), inputs.max()
    if hi > lo:
        inputs -= lo
        inputs /= hi - lo
    else:
        inputs[...] = 0.0
    perm = rng.permutation(n)
    return Dataset(inputs=inputs[perm], labels=labels[perm], classes=classes)


def shard(size: int, n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """A disjoint near-equal random partition of range(size) into n row-index
    arrays, larger shards first. A worker's shard is its rows of the run's
    one training set, not a copy of them."""
    if n > size:
        raise ValueError(f"cannot split {size} examples into {n} shards")
    return np.array_split(rng.permutation(size), n)


def sample_minibatch(
    data: Dataset,
    rows: np.ndarray,
    size: int,
    rng: np.random.Generator,
    out: tuple[np.ndarray, np.ndarray],
) -> None:
    """Uniform with-replacement sample of data's given rows, gathered into
    out=(inputs (size, in_dim), labels (size,)). The run's spec checked
    size >= 1."""
    idx = rows[rng.integers(0, len(rows), size=size)]
    inputs, labels = out
    # Every index is in range, so "clip" moves none; unlike the default
    # "raise", it gathers straight into out without a buffer.
    np.take(data.inputs, idx, axis=0, out=inputs, mode="clip")
    np.take(data.labels, idx, out=labels, mode="clip")
