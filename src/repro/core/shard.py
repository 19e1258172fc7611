"""Zero-copy sharded identification over the spilled column store.

:func:`repro.core.batch.identify_batch` already runs the whole city
through shared vectorized kernels; what keeps multi-process execution
from scaling is the boundary cost — pickling the full column store
into every worker keeps wall-clock core-count independent.  This
module shards the batched backend by light partition and moves the
columns across the boundary through the filesystem page cache instead
of pickles.  It is the one place that does: ``identify_many``'s
``shard`` backend is its only caller, and live refreshes always run
batched.

1. for the length of the call the store spills its columns to
   mmap-able ``.npy`` files in a fresh temporary directory (the
   store's private ``_spilled`` window, which removes them on exit);
2. ``pmap(common=store)`` then hands the store to each worker once.
   Under fork the workers inherit it, caches included; under spawn or
   forkserver it is pickled, and the spill keeps that pickle to a
   lightweight handle — metadata plus file paths, no column bytes;
3. each worker attaches to the columns read-only and runs
   ``identify_batch`` over its own key shard.  The batched kernels are
   row-wise bit-exact for any key subset (the contract the stream
   backend already leans on), so shard = batched = serial bit-for-bit
   with no new numeric code.

Shards are balanced by row count — Table II's ~25× per-light record
skew would otherwise leave workers idle behind one heavy shard — and
each shard is its own pool task, so a worker that finishes early takes
the next one.  The map runs through the containment seam
(:func:`repro.parallel.pool.run_guarded`): if it fails at the pool
boundary, every shard re-runs in-parent through the same
``identify_batch`` subset, so per-light fault containment and the
failure taxonomy are preserved.  Per-shard wall time and the handle's
byte size come back as :class:`~repro.obs.report.ShardStats`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..matching.partition import LightKey, LightPartition
from ..obs import LightFailure, ShardStats, StageTelemetry
from ..parallel.pool import (
    WorkerError,
    default_workers,
    get_common,
    payload_nbytes,
    pmap,
    run_guarded,
)
from ..trace.store import PartitionStore
from .batch import identify_batch
from .pipeline import PipelineConfig
from .signal_types import ScheduleEstimate

__all__ = ["balanced_shards", "identify_shard"]

#: Shards per worker: over-decomposing the fan-out lets stragglers
#: rebalance.
_SHARDS_PER_WORKER = 2

#: One shard result: (shard index, estimates, failures, per-light
#: telemetry, shard-level telemetry carrying the worker wall time).
_ShardResult = Tuple[
    int,
    Dict[LightKey, ScheduleEstimate],
    Dict[LightKey, LightFailure],
    Dict[LightKey, StageTelemetry],
    StageTelemetry,
]

#: One shard job: (shard index, keys, at_time, config).  The store is
#: **not** part of the job — it rides once per worker as ``common``.
_ShardJob = Tuple[int, List[LightKey], float, PipelineConfig]


def balanced_shards(
    store: PartitionStore, keys: Sequence[LightKey], n_shards: int
) -> List[List[LightKey]]:
    """Split *keys* into ≤ *n_shards* contiguous runs of ~equal row count.

    Contiguity (in sorted-key order) keeps each worker's column reads
    clustered in the mapped files; weighting by
    :meth:`~repro.trace.store.PartitionStore.light_n_records` absorbs
    the per-light record skew.  Deterministic in its inputs.
    """
    ordered = list(keys)
    if not ordered:
        return []
    n_shards = max(1, min(int(n_shards), len(ordered)))
    weights = np.asarray(
        [max(1, store.light_n_records(key)) for key in ordered], dtype=np.float64
    )
    cum = np.cumsum(weights)
    total = float(cum[-1])
    bounds = [0]
    for s in range(1, n_shards):
        target = total * s / n_shards
        idx = int(np.searchsorted(cum, target))
        # stay monotonic and leave at least one key per remaining shard
        bounds.append(max(bounds[-1] + 1, min(idx, len(ordered) - (n_shards - s))))
    bounds.append(len(ordered))
    return [ordered[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _identify_shard(store: PartitionStore, job: _ShardJob) -> _ShardResult:
    """One key shard of *store* through the batched kernels."""
    shard_index, keys, at_time, config = job
    tel = StageTelemetry()
    with tel.stage("shard"):
        estimates, failures, tels = identify_batch(
            store, at_time, config=config, keys=keys
        )
    return shard_index, estimates, failures, tels, tel


def _identify_shard_worker(job: _ShardJob) -> _ShardResult:
    """Worker: one key shard through the batched kernels.

    The job carries only keys + time + config; the partitions come out
    of the spilled :class:`~repro.trace.store.PartitionStore` the pool
    hands each worker once as the ``common`` object, columns attached
    read-only via mmap on first touch.
    """
    return _identify_shard(get_common(), job)


def identify_shard(
    partitions: Union[Mapping[LightKey, LightPartition], PartitionStore],
    at_time: float,
    *,
    config: Optional[PipelineConfig] = None,
    max_workers: Optional[int] = None,
) -> Tuple[
    Dict[LightKey, ScheduleEstimate],
    Dict[LightKey, LightFailure],
    Dict[LightKey, StageTelemetry],
    List[ShardStats],
]:
    """Identify every light via balanced zero-copy shards.

    Returns ``(estimates, failures, telemetries, shard_stats)`` where
    the first three match :func:`repro.core.batch.identify_batch` over
    the same lights **bit-for-bit**, and ``shard_stats`` carries one
    :class:`~repro.obs.report.ShardStats` per dispatched shard.

    ``partitions`` may be a plain mapping or a
    :class:`~repro.trace.store.PartitionStore`.  The store is spilled to
    a temporary directory for the duration of the call; on exit its
    in-memory columns are back and the directory is gone.

    ``max_workers`` sizes the pool (default: available CPUs, capped at
    8; ``1`` runs in-process).  The keys split into
    ``_SHARDS_PER_WORKER`` row-balanced shards per worker, each its own
    pool task.

    Fault containment matches the other backends at both granularities:
    per-light failures come back typed from inside ``identify_batch``,
    and if the map fails at the pool boundary every shard re-runs
    in-parent over the same keys.
    """
    config = PipelineConfig() if config is None else config
    store = (
        partitions
        if isinstance(partitions, PartitionStore)
        else PartitionStore.from_partitions(partitions)
    )
    wanted = sorted(store)
    estimates: Dict[LightKey, ScheduleEstimate] = {}
    failures: Dict[LightKey, LightFailure] = {}
    tels: Dict[LightKey, StageTelemetry] = {}
    stats: List[ShardStats] = []
    if not wanted:
        return estimates, failures, tels, stats
    workers = default_workers(max_workers)
    with store._spilled():
        handle_bytes = payload_nbytes(store)
        shards = balanced_shards(store, wanted, workers * _SHARDS_PER_WORKER)
        jobs: List[_ShardJob] = [
            (i, shard, at_time, config) for i, shard in enumerate(shards)
        ]
        results = run_guarded(
            pmap, _identify_shard_worker, jobs, max_workers=workers, common=store
        )
        if isinstance(results, WorkerError):
            # The map died at the pool boundary (e.g. a lost worker or
            # an unpicklable result): re-run every shard in-parent
            # through the same kernels, keeping per-light containment
            # intact.
            results = [_identify_shard(store, job) for job in jobs]
        for shard, (shard_index, s_est, s_fail, s_tels, s_tel) in zip(
            shards, results
        ):
            estimates.update(s_est)
            failures.update(s_fail)
            tels.update(s_tels)
            stats.append(
                ShardStats(
                    shard_index=shard_index,
                    n_lights=len(shard),
                    n_records=sum(store.light_n_records(k) for k in shard),
                    n_ok=len(s_est),
                    n_failed=len(s_fail),
                    wall_s=s_tel.stage_s.get("shard", 0.0),
                    common_bytes=handle_bytes,
                )
            )
    return estimates, failures, tels, stats
