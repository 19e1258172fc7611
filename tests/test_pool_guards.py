"""Dispatch guards of the pool layer, exercised on the serial paths.

Process pools live in ``tests/test_parallel.py`` (slow tier); these
cover the contracts that must hold before any process is spawned:
``max_workers`` validation, the common-slot hygiene that keeps one
run's store from leaking into the next ``pmap`` call, the
``common_bytes_limit`` zero-copy guard, and the failure record the
containment seam returns.
"""

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
    payload_nbytes,
    pmap,
    pmap_seeded,
    run_guarded,
)
from repro.trace.store import PartitionStore


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
    inner = pmap(read_common, [x], serial=True)
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


class TestCommonSlotHygiene:
    def test_failed_dispatch_restores_clean_slot(self):
        assert get_common() is None
        with pytest.raises(ValueError):
            pmap(boom, [1, 2], serial=True, common="this-run-store")
        assert get_common() is None

    def test_poisoning_worker_cannot_leak_into_next_map(self):
        out = pmap(poison_and_boom, [1], serial=True, on_error="return")
        assert out[0].error_type == "ValueError"
        assert get_common() is None
        # the next, common-free map starts from a clean slot
        assert pmap(read_common, [0], serial=True) == [None]

    def test_common_visible_only_during_map(self):
        assert pmap(read_common, [0, 1], serial=True, common="store") == (
            ["store", "store"]
        )
        assert get_common() is None

    def test_nested_map_isolates_and_restores_outer_common(self):
        # get_common() is None inside a common-free inner map, and the
        # outer map's object is back once the inner dispatch returns
        out = pmap(outer_with_nested_map, [7], serial=True, common="outer-store")
        assert out == [(None, "outer-store")]
        assert get_common() is None

    def test_seeded_map_resets_stale_slot(self):
        pool._set_common("stale-from-a-crashed-run")
        try:
            out = pmap_seeded(read_common_seeded, [0], base_seed=1, serial=True)
        finally:
            pool._set_common(None)
        assert out == [None]


class TestCommonBytesLimit:
    def test_oversized_common_rejected_before_dispatch(self):
        big = np.zeros(100_000)
        with pytest.raises(ValueError, match="bytes"):
            pmap(plus_one, [1, 2], serial=True, common=big, common_bytes_limit=1024)
        assert get_common() is None

    def test_within_limit_passes(self):
        out = pmap(read_common, [0], serial=True, common="ok", common_bytes_limit=4096)
        assert out == ["ok"]

    def test_limit_ignored_without_common(self):
        assert pmap(plus_one, [1], serial=True, common_bytes_limit=1) == [2]

    def test_spilled_store_fits_where_full_store_does_not(self, partitions):
        store = PartitionStore.from_partitions(partitions)
        limit = 32 * 1024
        assert payload_nbytes(store) > limit, "fixture city should out-size the limit"
        with pytest.raises(ValueError, match="spill"):
            pmap(plus_one, [1, 2], serial=True, common=store, common_bytes_limit=limit)
        with store._spilled():
            assert payload_nbytes(store) < limit
            out = pmap(
                plus_one, [1, 2], serial=True, common=store,
                common_bytes_limit=limit,
            )
        assert out == [2, 3]


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

    def test_no_frame_local_outlives_the_seam(self):
        refs = []
        err = run_guarded(_deep_failure, 3, refs)
        assert isinstance(err, WorkerError)
        assert len(refs) == 4
        assert all(ref() is None for ref in refs), "the record pins a raising frame"
        assert "_deep_failure" in err.traceback
        assert all(ref() is None for ref in refs)
