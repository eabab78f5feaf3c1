import ast
import contextvars
import importlib
import os
import pickle
import pkgutil
import threading
from pathlib import Path

import numpy as np
import pytest

import rgcf
from rgcf import core
from rgcf.core import (
    NonFiniteValueError,
    assert_finite,
    param_vector,
    stream,
)


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


# One instance of every rgcf exception whose __init__ takes something other
# than the message, with the attributes it keeps.
STRUCTURED_ERRORS = [
    (NonFiniteValueError(16), {"index": 16}),
]


def rgcf_exceptions() -> set[type]:
    """Every exception class defined in an rgcf module."""
    found = set()
    for info in pkgutil.iter_modules(rgcf.__path__):
        for obj in vars(importlib.import_module(f"rgcf.{info.name}")).values():
            if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__.startswith("rgcf."):
                found.add(obj)
    return found


class TestErrorPickling:
    """A worker process's exception reaches the parent through pickle, so
    it must come back with its type, message and attributes."""

    @pytest.mark.parametrize(
        "err,attrs", STRUCTURED_ERRORS, ids=[type(e).__name__ for e, _ in STRUCTURED_ERRORS]
    )
    def test_round_trip(self, err, attrs):
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is type(err)
        assert str(back) == str(err)
        assert {k: getattr(back, k) for k in attrs} == attrs

    def test_every_structured_error_is_covered(self):
        defined = {cls for cls in rgcf_exceptions() if "__init__" in vars(cls)}
        assert defined == {type(err) for err, _ in STRUCTURED_ERRORS}

    def test_every_error_class_is_caught(self):
        # an exception class is worth defining only where src/ catches it by
        # name; anything else raises ValueError with its message
        caught = set()
        for path in rgcf.__path__:
            for source in Path(path).glob("*.py"):
                for node in ast.walk(ast.parse(source.read_text())):
                    if isinstance(node, ast.ExceptHandler) and node.type is not None:
                        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                        caught.update(ast.unparse(t).rsplit(".", 1)[-1] for t in types)
        assert {cls.__name__ for cls in rgcf_exceptions()} - caught == set()


class TestRunParts:
    def test_part_count(self, monkeypatch):
        # one part per CPU, each of at least `part` units, and at least one
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert [core.cpu_parts(size, 10) for size in (0, 9, 19, 20, 29, 30, 1000)] == [1, 1, 1, 2, 2, 3, 3]

    @pytest.mark.parametrize("sharers, parts", [(1, 4), (2, 2), (3, 1), (4, 1), (5, 1)])
    def test_a_share_of_the_cpus(self, sharers, parts, monkeypatch):
        # a process that shares four CPUs with others splits over its share
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(core, "_sharers", 1)
        core.share_cpus(sharers)
        assert core.cpu_parts(1000, 1) == parts

    def test_parts_run_in_the_callers_context_and_in_order(self):
        # helpers see this thread's context variables and numpy errstate,
        # the results come back in part order, and no helper outlives the call
        var = contextvars.ContextVar("var")
        var.set("caller")
        threads = threading.active_count()
        with np.errstate(over="ignore"):
            seen = core.run_parts(3, lambda i: (i, var.get(), np.geterr()["over"], threading.get_ident()))
        assert [s[:3] for s in seen] == [(i, "caller", "ignore") for i in range(3)]
        assert seen[2][3] == threading.get_ident() != seen[0][3]
        assert threading.active_count() == threads

    @pytest.mark.parametrize("failing", [[0], [1], [0, 2], [1, 2]])
    def test_the_lowest_failed_part_raises(self, failing):
        # as in a serial loop, whichever part finishes first
        def part(i):
            if i in failing:
                raise ValueError(f"part {i}")
            return i

        threads = threading.active_count()
        with pytest.raises(ValueError, match=f"part {failing[0]}"):
            core.run_parts(3, part)
        assert threading.active_count() == threads
