import numpy as np
import pytest

from rgcf.core import stream
from rgcf.data import synth_gaussian_blobs


def rng(seed: int, sid: int = 0) -> np.random.Generator:
    return stream(seed, sid)


@pytest.fixture
def blobs():
    return synth_gaussian_blobs(3, 40, 6, 8.0, rng(7, 40))


@pytest.fixture
def blobs_val():
    return synth_gaussian_blobs(3, 20, 6, 8.0, rng(7, 41))
