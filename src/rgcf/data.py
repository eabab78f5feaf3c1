"""Dataset loading (IDX files), synthetic blobs, sharding and mini-batching."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .models import LabeledBatch

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class BadMagicError(ValueError):
    pass


class TruncatedFileError(ValueError):
    pass


class CountMismatchError(ValueError):
    pass


class TooManyShardsError(ValueError):
    pass


class EmptyShardError(ValueError):
    pass


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
    """The next n bytes of a binary file, or TruncatedFileError if it ends first."""
    data = f.read(n)
    if len(data) != n:
        raise TruncatedFileError(f"{path}: truncated, expected {n} more bytes, got {len(data)}")
    return data


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Parse a big-endian IDX image/label file pair; pixels scaled to [0,1]."""
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">iiii", read_exact(f, 16, images_path))
        if magic != IMAGE_MAGIC:
            raise BadMagicError(f"{images_path}: magic {magic:#010x}, expected {IMAGE_MAGIC:#010x}")
        pixels = np.frombuffer(
            read_exact(f, count * rows * cols, images_path), dtype=np.uint8
        )
    with open(labels_path, "rb") as f:
        magic, lcount = struct.unpack(">ii", read_exact(f, 8, labels_path))
        if magic != LABEL_MAGIC:
            raise BadMagicError(f"{labels_path}: magic {magic:#010x}, expected {LABEL_MAGIC:#010x}")
        labels = np.frombuffer(read_exact(f, lcount, labels_path), dtype=np.uint8)
    if count != lcount:
        raise CountMismatchError(f"{count} images vs {lcount} labels")
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
    inputs = (inputs - lo) / (hi - lo) if hi > lo else np.zeros_like(inputs)
    perm = rng.permutation(n)
    return Dataset(inputs=inputs[perm], labels=labels[perm], classes=classes)


def shard(data: Dataset, n: int, rng: np.random.Generator) -> list[Dataset]:
    """Disjoint near-equal random partition; larger shards come first."""
    if n > data.size:
        raise TooManyShardsError(f"cannot split {data.size} examples into {n} shards")
    perm = rng.permutation(data.size)
    base, extra = divmod(data.size, n)
    shards = []
    off = 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        idx = perm[off : off + size]
        off += size
        shards.append(Dataset(inputs=data.inputs[idx], labels=data.labels[idx], classes=data.classes))
    return shards


def sample_minibatch(data: Dataset, size: int, rng: np.random.Generator) -> LabeledBatch:
    """Uniform with-replacement sample."""
    if data.size < 1:
        raise EmptyShardError("empty shard")
    if size < 1:
        raise ValueError("size must be >= 1")
    idx = rng.integers(0, data.size, size=size)
    return LabeledBatch(inputs=data.inputs[idx], labels=data.labels[idx])
