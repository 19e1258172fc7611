"""Spill lifecycle of the column store: idempotent re-spill, stale-file
cleanup, the ``spilled()`` zero-copy window, and the mmap round trip.

These pin the seam the sharded backend fans out over: a spilled store
must serve bit-identical rows to any number of readers, pickle as a
metadata-sized handle, enforce read-only columns, and never leave
``.npy`` files behind when its backing moves or its rows change.
"""

import os
import pickle
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.parallel.pool import payload_nbytes
from repro.trace.store import PartitionStore

from tests.test_faults import synth_partition


def _spill_files(mmap_dir):
    return sorted(f for f in os.listdir(mmap_dir) if f.endswith(".npy"))


def _column_snapshot(store):
    return {name: np.asarray(col).copy() for name, col in store.columns.items()}


@pytest.fixture()
def store(partitions):
    return PartitionStore.from_partitions(partitions)


class TestSpillIdempotence:
    def test_respill_same_dir_is_noop(self, store, tmp_path):
        """Regression: re-spilling a lazily-reloaded store used to crash
        on ``assert self._columns is not None``."""
        target = tmp_path / "cols"
        store.spill_to(str(target))
        before = _spill_files(target)
        # the store has dropped its arrays; a second spill must not crash
        store.spill_to(str(target))
        assert _spill_files(target) == before
        # and after a lazy reload the same call is still a no-op
        _ = store.columns
        store.spill_to(str(target))
        assert _spill_files(target) == before

    def test_respill_new_dir_moves_and_cleans_old(self, store, tmp_path, partitions):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        reference = _column_snapshot(store)
        store.spill_to(str(dir_a))
        assert _spill_files(dir_a)
        store.spill_to(str(dir_b))
        assert _spill_files(dir_b)
        assert _spill_files(dir_a) == [], "old spill dir must not keep stale columns"
        for name, col in store.columns.items():
            np.testing.assert_array_equal(np.asarray(col), reference[name])
        key = sorted(partitions)[0]
        np.testing.assert_array_equal(
            store.partition(key).trace.t, partitions[key].trace.t
        )

    def test_append_after_spill_removes_stale_files(self, store, tmp_path):
        target = tmp_path / "cols"
        store.spill_to(str(target))
        fresh = synth_partition(seed=5, iid=500)
        touched = store.append_partitions({fresh.key: fresh})
        assert fresh.key in touched
        assert _spill_files(target) == [], (
            "spliced rows invalidate the on-disk columns; leaving them "
            "would let a later reload serve stale data"
        )
        np.testing.assert_array_equal(
            store.partition(fresh.key).trace.t, fresh.trace.t
        )


class TestSpilledContext:
    def test_roundtrip_restores_in_memory_columns(self, store):
        reference = _column_snapshot(store)
        full_bytes = payload_nbytes(store)
        with store.spilled() as s:
            assert s is store
            spill_dir = s._mmap_dir
            assert spill_dir is not None and os.path.isdir(spill_dir)
            handle_bytes = payload_nbytes(s)
            assert handle_bytes < 64 * 1024 < full_bytes, (
                "a spilled store must pickle as a metadata-sized handle"
            )
        assert store._mmap_dir is None
        assert not os.path.exists(spill_dir), "own tempdir must be removed"
        for name, col in store.columns.items():
            np.testing.assert_array_equal(np.asarray(col), reference[name])

    def test_caller_directory_keeps_dir_but_not_files(self, store, tmp_path):
        target = tmp_path / "mine"
        with store.spilled(str(target)):
            assert _spill_files(target)
        assert target.is_dir(), "caller-owned directory survives"
        assert _spill_files(target) == []

    def test_already_spilled_store_left_spilled(self, store, tmp_path):
        target = tmp_path / "cols"
        store.spill_to(str(target))
        backing = store._mmap_dir
        with store.spilled() as s:
            assert s._mmap_dir == backing
        assert store._mmap_dir == backing, "caller owns the lifecycle"
        assert _spill_files(target)

    def test_append_inside_context_wins_over_snapshot(self, store):
        fresh = synth_partition(seed=6, iid=600)
        with store.spilled():
            store.append_partitions({fresh.key: fresh})
        assert store._mmap_dir is None
        assert fresh.key in store
        np.testing.assert_array_equal(
            store.partition(fresh.key).trace.t, fresh.trace.t
        )


class TestMmapRoundTrip:
    def test_concurrent_readers_match_in_memory_originals(self, store, partitions):
        keys = sorted(partitions)
        reference = {
            key: (
                np.asarray(store.partition(key).trace.t).copy(),
                np.asarray(store.partition(key).trace.speed_kmh).copy(),
            )
            for key in keys
        }
        clean = PartitionStore.from_partitions(partitions)
        with clean.spilled() as s:

            def read(key):
                p = s.partition(key)
                return (
                    np.asarray(p.trace.t).copy(),
                    np.asarray(p.trace.speed_kmh).copy(),
                )

            with ThreadPoolExecutor(max_workers=4) as ex:
                results = list(ex.map(read, keys * 3))
        for key, (t, v) in zip(keys * 3, results):
            np.testing.assert_array_equal(t, reference[key][0])
            np.testing.assert_array_equal(v, reference[key][1])

    def test_mapped_columns_are_read_only(self, store):
        with store.spilled() as s:
            for name, col in s.columns.items():
                arr = np.asarray(col)
                assert arr.flags.writeable is False, (
                    f"spilled column {name!r} must be read-only"
                )
                with pytest.raises(ValueError):
                    col[0] = 0.0

    def test_pickled_handle_reattaches_identically(self, store, partitions):
        with store.spilled() as s:
            payload = pickle.dumps(s)
            clone = pickle.loads(payload)
            assert sorted(clone) == sorted(s)
            for key in sorted(partitions):
                np.testing.assert_array_equal(
                    clone.partition(key).trace.t, partitions[key].trace.t
                )
            # the clone reads straight off the mapped files
            assert np.asarray(clone.columns["t"]).flags.writeable is False
