"""Dispatch guards of the pool layer, exercised without a process pool.

Process pools live in ``tests/test_parallel.py`` (slow tier); these
cover the contracts that must hold before any process is spawned:
``max_workers`` validation and the default worker count, how a map is
cut into pool tasks, the common-slot hygiene that keeps one run's store
from leaking into the next ``pmap`` call, and the failure record the
containment seam returns.
"""

import os
import pickle
import traceback
import weakref

import numpy as np
import pytest

from repro.parallel import pool
from repro.parallel.pool import (
    WorkerError,
    default_workers,
    get_common,
    pmap,
    pmap_seeded,
    run_guarded,
)


def plus_one(x):
    return x + 1


def boom(x):
    raise ValueError("boom")


def poison_and_boom(x):
    # a worker scribbling on the slot before dying — the strongest leak
    pool._set_common(("poison", x))
    raise ValueError("boom")


def read_common(x):
    return get_common()


def read_common_seeded(item, rng):
    return get_common()


def outer_with_nested_map(x):
    inner = pmap(read_common, [x], max_workers=1)
    return (inner[0], get_common())


class TestDefaultWorkersValidation:
    @pytest.mark.parametrize("bad", [0, -1, -8])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError, match="max_workers"):
            default_workers(bad)

    @pytest.mark.parametrize("bad", [2.5, "4", True, False, 3.0])
    def test_non_integral_rejected(self, bad):
        with pytest.raises(TypeError, match="max_workers"):
            default_workers(bad)

    def test_numpy_integers_accepted(self):
        assert default_workers(np.int64(3)) == 3
        assert isinstance(default_workers(np.int32(2)), int)

    def test_derived_default_clamped_to_one(self, monkeypatch):
        # a degenerate affinity mask must never produce an empty pool
        monkeypatch.setattr(pool, "_available_cpus", lambda: 0)
        assert default_workers() == 1

    def test_explicit(self):
        assert default_workers(3) == 3

    def test_capped(self):
        assert 1 <= default_workers() <= 8

    def test_respects_cpu_affinity(self, monkeypatch):
        # cgroup/affinity-limited runners expose fewer CPUs than
        # os.cpu_count(); the default must not oversubscribe them.
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no sched_getaffinity")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert default_workers() == 2


@pytest.fixture
def dispatched(monkeypatch):
    """``(workers, items, chunksize)`` of every pool map, run in-process.

    The pool's executor is replaced by one that starts no worker.
    """
    calls = []

    class Recording:
        def __init__(self, max_workers, initializer, initargs):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, func, items, chunksize):
            items = list(items)
            calls.append((self.max_workers, len(items), chunksize))
            return map(func, items)

    monkeypatch.setattr(pool, "ProcessPoolExecutor", Recording)
    return calls


class TestPoolTasks:
    @pytest.mark.parametrize("n_items, workers, chunksize", [
        (4, 2, 1),   # the shard backend's 2 shards per worker: one task each
        (8, 2, 1),
        (9, 2, 2),
        (50, 4, 4),
    ])
    def test_four_tasks_per_worker(self, dispatched, n_items, workers, chunksize):
        out = pmap(plus_one, range(n_items), max_workers=workers)
        assert out == [x + 1 for x in range(n_items)]
        assert dispatched == [(workers, n_items, chunksize)]

    def test_one_worker_or_one_item_runs_in_process(self, dispatched):
        assert pmap(plus_one, range(5), max_workers=1) == [1, 2, 3, 4, 5]
        assert pmap(plus_one, [1], max_workers=4) == [2]
        assert dispatched == []


class TestCommonSlotHygiene:
    def test_failed_dispatch_restores_clean_slot(self):
        assert get_common() is None
        with pytest.raises(ValueError):
            pmap(boom, [1, 2], max_workers=1, common="this-run-store")
        assert get_common() is None

    def test_poisoning_worker_cannot_leak_into_next_map(self):
        with pytest.raises(ValueError, match="boom"):
            pmap(poison_and_boom, [1], max_workers=1)
        assert get_common() is None
        # the next, common-free map starts from a clean slot
        assert pmap(read_common, [0], max_workers=1) == [None]

    def test_common_visible_only_during_map(self):
        assert pmap(read_common, [0, 1], max_workers=1, common="store") == (
            ["store", "store"]
        )
        assert get_common() is None

    def test_nested_map_isolates_and_restores_outer_common(self):
        # get_common() is None inside a common-free inner map, and the
        # outer map's object is back once the inner dispatch returns
        out = pmap(outer_with_nested_map, [7], max_workers=1, common="outer-store")
        assert out == [(None, "outer-store")]
        assert get_common() is None

    def test_seeded_map_resets_stale_slot(self):
        pool._set_common("stale-from-a-crashed-run")
        try:
            out = pmap_seeded(read_common_seeded, [0], base_seed=1, max_workers=1)
        finally:
            pool._set_common(None)
        assert out == [None]


class _Marker:
    """A frame-local object whose lifetime the seam must not extend."""


def _deep_failure(depth, refs):
    """Fail *depth* frames down, with a chained cause and a frame local."""
    marker = _Marker()
    refs.append(weakref.ref(marker))
    if depth:
        return _deep_failure(depth - 1, refs)
    try:
        {}["missing"]
    except KeyError as exc:
        raise ValueError(f"failed with {marker.__class__.__name__}") from exc


class TestGuardedFailureRecord:
    """``run_guarded`` keeps a frame-free traceback and formats it on read."""

    @pytest.mark.parametrize("depth", [0, 30])
    def test_traceback_is_the_format_exc_text(self, depth, monkeypatch):
        texts = []
        real = pool.TracebackException

        def capture(*args, **kwargs):
            # runs inside the seam's handler: format_exc sees the failure
            texts.append(traceback.format_exc(limit=20))
            return real(*args, **kwargs)

        monkeypatch.setattr(pool, "TracebackException", capture)
        err = run_guarded(_deep_failure, depth, [])
        assert isinstance(err, WorkerError)
        (text,) = texts
        assert err.traceback == text
        assert "KeyError" in text and "ValueError: failed with _Marker" in text
        clone = pickle.loads(pickle.dumps(err))
        assert clone.traceback == text
        assert clone == err and hash(clone) == hash(err)

    def test_exception_is_detached(self):
        err = run_guarded(boom, 1)
        assert isinstance(err.exception, ValueError)
        assert str(err.exception) == err.message
        # no live traceback: it would pin the caller's frames, and the
        # record itself, in a reference cycle
        assert err.exception.__traceback__ is None
        clone = pickle.loads(pickle.dumps(err))
        assert clone == err and clone.exception is None

    def test_no_frame_local_outlives_the_seam(self):
        refs = []
        err = run_guarded(_deep_failure, 3, refs)
        assert isinstance(err, WorkerError)
        assert len(refs) == 4
        assert all(ref() is None for ref in refs), "the record pins a raising frame"
        assert "_deep_failure" in err.traceback
        assert all(ref() is None for ref in refs)
