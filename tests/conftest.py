import numpy as np
import pytest

from rgcf import models
from rgcf.cli import resolve
from rgcf.config import ExperimentConfig
from rgcf.core import stream
from rgcf.data import sample_minibatch, synth_gaussian_blobs

# The CLI's defaults, stated once in ExperimentConfig: a config that sets
# nothing, and the run and filter-training specs it resolves to. Tests
# take a spec's values from here, changed with dataclasses.replace.
DEFAULT_CONFIG = ExperimentConfig()
DEFAULT_SPECS = resolve(DEFAULT_CONFIG)


def rng(seed: int, sid: int = 0) -> np.random.Generator:
    return stream(seed, sid)


def backward_stack(arch, params, inputs, labels):
    """models.backward's (k, d) gradients and (k,) losses of a stack of k
    batches, in fresh arrays."""
    out = np.empty(inputs.shape[:-2] + params.shape), np.empty(inputs.shape[:-2])
    models.backward(arch, params, inputs, labels, out)
    return out


def minibatch(data, rows, size, batch_rng):
    """sample_minibatch's (inputs, labels), gathered into fresh arrays."""
    out = np.empty((size, data.in_dim), data.inputs.dtype), np.empty(size, data.labels.dtype)
    sample_minibatch(data, rows, size, batch_rng, out)
    return out


@pytest.fixture
def blobs():
    return synth_gaussian_blobs(3, 40, 6, 8.0, rng(7, 40))


@pytest.fixture
def blobs_val():
    return synth_gaussian_blobs(3, 20, 6, 8.0, rng(7, 41))
