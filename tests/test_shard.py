"""Zero-copy sharded backend: parity, balance, fallback, telemetry.

The shard backend's contract mirrors the batched one it decomposes:
bit-for-bit estimate parity on any sub-city, typed per-light failure
containment, plus two claims of its own — zero column bytes shipped per
worker (the store crosses the pool boundary as a metadata handle) and
row-count-balanced shards.  Most cases run ``max_workers=1`` (the
in-process dispatch path, same semantics).  Two run a real two-process
pool: a worker result no pickle can carry, and spawned workers that must
unpickle the spilled handle and re-open its columns; a forked pool runs
in ``tests/test_batch_parity.py::TestBackendParity::test_shard_pool_matches_serial``.
"""

import json
import threading
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from multiprocessing import get_context

import numpy as np

import repro.core.shard as shard_mod
from repro.core import identify_many
from repro.core.batch import identify_batch
from repro.core.shard import balanced_shards, identify_shard
from repro.obs import RunReport, ShardStats
from repro.parallel import pool
from repro.trace.store import PartitionStore

from tests.test_batch_parity import (
    _assert_parity,
    _est_tuple,
    _no_fallback,
    _poisoned_city,
)

_real_shard_worker = shard_mod._identify_shard_worker


def _worker_with_lock(job):
    """The real shard worker, with a lock in its result: no pickle can
    carry that back to the parent."""
    return (*_real_shard_worker(job), threading.Lock())


class TestShardParity:
    def test_matches_batched_bitwise(self, partitions):
        ref = identify_many(partitions, 5400.0, backend="batched")
        out = identify_many(partitions, 5400.0, backend="shard", max_workers=1)
        assert len(ref[0]) > 0, "fixture city must identify some lights"
        _assert_parity(ref, out, "shard")

    def test_key_subset_matches_batched_subset(self, partitions):
        """A sub-city through the shards equals the batched call
        restricted to its keys on the whole city."""
        store = PartitionStore.from_partitions(partitions)
        subset = sorted(partitions)[:3]
        b_est, b_fail, _ = identify_batch(store, 5400.0, keys=subset)
        s_est, s_fail, s_tels, _ = identify_shard(
            {key: partitions[key] for key in subset}, 5400.0, max_workers=1
        )
        assert sorted(s_est) == sorted(b_est)
        assert sorted(s_fail) == sorted(b_fail)
        assert sorted(s_tels) == sorted(subset)
        for key in b_est:
            assert _est_tuple(s_est[key]) == _est_tuple(b_est[key]), key

    def test_poisoned_city_parity_and_containment(self, partitions):
        city, bad_key, _dead_key = _poisoned_city(partitions)
        ref = identify_many(city, 5400.0, backend="serial")
        out = identify_many(city, 5400.0, backend="shard", max_workers=1)
        _assert_parity(ref, out, "shard/poisoned")
        assert out[1][bad_key].error_type == "ValueError"
        assert len(out[0]) + len(out[1]) == len(city)

    def test_empty_key_set(self):
        est, fail, tels, stats = identify_shard({}, 5400.0, max_workers=1)
        assert est == {} and fail == {} and tels == {} and stats == []


class TestShardFaultContainment:
    def test_dead_shard_reruns_in_parent(self, partitions, monkeypatch):
        """A shard dying at the pool boundary falls back to in-parent
        ``identify_batch`` over the same keys — parity survives."""

        def dead_worker(job):
            raise RuntimeError("worker lost")

        monkeypatch.setattr(shard_mod, "_identify_shard_worker", dead_worker)
        ref = identify_many(partitions, 5400.0, backend="batched")
        est, fail, tels, stats = identify_shard(partitions, 5400.0, max_workers=1)
        _assert_parity(ref, (est, fail), "shard/fallback")
        assert stats, "fallback shards still report ShardStats"
        assert all(s.wall_s >= 0.0 for s in stats)

    def test_unpicklable_result_reruns_in_parent(self, partitions, monkeypatch):
        """Every worker finishes, but no result crosses back: the map
        fails at the pool boundary and every shard re-runs in-parent."""
        monkeypatch.setattr(shard_mod, "_identify_shard_worker", _worker_with_lock)
        ref = identify_many(partitions, 5400.0, backend="batched")
        est, fail, tels, stats = identify_shard(partitions, 5400.0, max_workers=2)
        _assert_parity(ref, (est, fail), "shard/unpicklable")
        assert len(stats) == 4
        assert sorted(tels) == sorted(partitions)


class TestSpawnedWorkers:
    def test_spawned_workers_reopen_the_spill(self, partitions, monkeypatch):
        """Under spawn (macOS's default) each worker unpickles the spilled
        handle and re-opens its mmap columns; under fork it inherits the
        store, so only this case runs that path on Linux."""
        monkeypatch.setattr(
            pool, "ProcessPoolExecutor",
            partial(ProcessPoolExecutor, mp_context=get_context("spawn")),
        )
        _no_fallback(monkeypatch)
        ref = identify_many(partitions, 5400.0, backend="batched")
        out = identify_many(partitions, 5400.0, backend="shard", max_workers=2)
        _assert_parity(ref, out, "shard@2w/spawn")


class TestZeroCopyTelemetry:
    def test_zero_column_bytes_shipped(self, partitions):
        store = PartitionStore.from_partitions(partitions)
        est, fail, tels, stats = identify_shard(store, 5400.0, max_workers=1)
        assert stats
        handle = stats[0].common_bytes
        assert all(s.common_bytes == handle for s in stats)
        # the handle is metadata-sized; the columns it stands for are not
        assert handle < 64 * 1024
        assert store.columns_nbytes > 10 * handle
        # shard accounting covers the whole city exactly once
        assert sum(s.n_lights for s in stats) == len(store)
        assert sum(s.n_records for s in stats) == store.n_records
        assert sum(s.n_ok for s in stats) == len(est)
        assert sum(s.n_failed for s in stats) == len(fail)
        assert [s.shard_index for s in stats] == list(range(len(stats)))

    def test_store_restored_in_memory_after_call(self, partitions):
        store = PartitionStore.from_partitions(partitions)
        before = {name: col.copy() for name, col in store.columns.items()}
        identify_shard(store, 5400.0, max_workers=1)
        assert store._mmap_dir is None, "the spill window closes with the call"
        # the caller's rows come back as they went in
        after = store.columns
        assert sorted(after) == sorted(before)
        for name, col in before.items():
            np.testing.assert_array_equal(after[name], col, err_msg=name)

    def test_shard_stats_fold_into_report(self, partitions):
        report = RunReport()
        identify_many(
            partitions, 5400.0, backend="shard", max_workers=1, report=report
        )
        assert report.shards
        assert report.n_lights == len(partitions)
        doc = report.to_dict()
        assert "shards" in doc
        clone = RunReport.from_dict(json.loads(report.to_json()))
        assert clone.shards == report.shards
        assert all(isinstance(s, ShardStats) for s in clone.shards)

    def test_non_shard_report_has_no_shards_section(self, partitions):
        report = RunReport()
        identify_many(
            partitions, 5400.0, backend="batched", report=report
        )
        assert "shards" not in report.to_dict(), "v1 document shape is preserved"


class TestBalancedShards:
    def test_partitions_keys_exactly_and_in_order(self, partitions):
        store = PartitionStore.from_partitions(partitions)
        keys = sorted(store)
        shards = balanced_shards(store, keys, 3)
        assert [k for shard in shards for k in shard] == keys
        assert all(shard for shard in shards)

    def test_more_shards_than_keys_degrades_to_singletons(self, partitions):
        store = PartitionStore.from_partitions(partitions)
        keys = sorted(store)
        shards = balanced_shards(store, keys, 10 * len(keys))
        assert len(shards) == len(keys)
        assert all(len(shard) == 1 for shard in shards)

    def test_row_weights_balance_the_split(self, partitions):
        store = PartitionStore.from_partitions(partitions)
        keys = sorted(store)
        shards = balanced_shards(store, keys, 2)
        loads = [
            sum(store.light_n_records(k) for k in shard) for shard in shards
        ]
        assert max(loads) <= 2 * min(loads), f"skewed split: {loads}"

    def test_empty_keys(self, partitions):
        store = PartitionStore.from_partitions(partitions)
        assert balanced_shards(store, [], 4) == []

