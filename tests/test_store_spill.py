"""The column store's spill window: what ``identify_shard`` fans out over.

Inside ``PartitionStore._spilled()`` the store must serve bit-identical
rows to any number of readers, pickle as a metadata-sized handle and
enforce read-only columns; on exit, on error too, it must be back in
memory with no ``.npy`` directory left behind.
"""

import os
import pickle
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.parallel.pool import payload_nbytes
from repro.trace.store import PartitionStore


def _column_snapshot(store):
    return {name: np.asarray(col).copy() for name, col in store.columns.items()}


@pytest.fixture()
def store(partitions):
    return PartitionStore.from_partitions(partitions)


class TestSpilledContext:
    def test_roundtrip_restores_in_memory_columns(self, store):
        reference = _column_snapshot(store)
        full_bytes = payload_nbytes(store)
        with store._spilled() as s:
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

    def test_failed_spill_removes_its_directory(
        self, store, partitions, tmp_path, monkeypatch
    ):
        """A column write that fails mid-spill leaves no directory behind,
        and the store keeps serving its rows from memory."""
        real_save = np.save
        calls = []

        def failing_save(path, arr, *args, **kwargs):
            calls.append(path)
            if len(calls) == 3:
                raise OSError("disk full")
            return real_save(path, arr, *args, **kwargs)

        monkeypatch.setattr(np, "save", failing_save)
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        with pytest.raises(OSError, match="disk full"):
            with store._spilled():
                pytest.fail("the window opened after a failed write")
        assert len(calls) == 3
        assert not [p for p in os.listdir(tmp_path) if p.startswith("repro-store-")]
        assert store._mmap_dir is None
        for key in sorted(partitions):
            np.testing.assert_array_equal(
                store.partition(key).trace.t, partitions[key].trace.t
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
        with clean._spilled() as s:

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
        with store._spilled() as s:
            for name, col in s.columns.items():
                arr = np.asarray(col)
                assert arr.flags.writeable is False, (
                    f"spilled column {name!r} must be read-only"
                )
                with pytest.raises(ValueError):
                    col[0] = 0.0

    def test_pickled_handle_reattaches_identically(self, store, partitions):
        with store._spilled() as s:
            payload = pickle.dumps(s)
            clone = pickle.loads(payload)
            assert sorted(clone) == sorted(s)
            for key in sorted(partitions):
                np.testing.assert_array_equal(
                    clone.partition(key).trace.t, partitions[key].trace.t
                )
            # the clone reads straight off the mapped files
            assert np.asarray(clone.columns["t"]).flags.writeable is False
