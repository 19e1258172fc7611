"""Stateful incremental identification sessions.

``StreamSession`` is the orchestrator of the streaming backend: chunks
go in through :meth:`StreamSession.ingest`, estimates come out as
:class:`IncrementalUpdate` records.  Internally it keeps

* a :class:`~repro.stream.store.StreamStore` (append + targeted cache
  invalidation over the columnar :class:`~repro.trace.store.PartitionStore`);
* a per-light **result cache** ``(data version, at_time) -> estimate``,
  so a refresh re-runs :func:`repro.core.batch.identify_batch` only for
  the lights the chunk dirtied.  Refreshes always run batched
  in-process: a chunk dirties a small slice of a city, where a process
  fan-out costs more than it saves (EXPERIMENTS.md, "Live refresh:
  batched vs shard");
* an **online monitor**: every refresh appends one ``(t, cycle_s,
  quality)`` sample per refreshed light, and
  :func:`repro.core.monitor.detect_plan_changes` (after
  :func:`~repro.core.monitor.repair_outliers`) runs over the
  accumulated series — newly detected scheduling changes ride out on
  the update.

Replay-parity contract
----------------------
For partitions whose per-light report timestamps are unique (true for
every generated trace — report times are continuous), ingesting **any**
permutation/partitioning of a scenario's records chunk-by-chunk leaves
the store's per-light columns in the canonical ``(t, taxi_id)`` order,
and every estimate returned by :meth:`evaluate` is **bit-for-bit**
equal to the one-shot batched backend on the same records: the batched
kernels are row-wise exact, so evaluating a dirty subset reproduces the
full-city result light by light.  ``tests/test_stream_parity.py``
enforces this over randomized chunkings.

Snapshot-isolation invariant
----------------------------
A cache entry always describes the data version its estimate was
computed *from*: ``_refresh`` captures each light's version before the
kernels run and stamps the entry with that captured value.  If an
append lands while a refresh is in flight (the serving layer's writer
racing an executor-offloaded refresh, say), the refreshed entry
simply stays stale and the next :meth:`evaluate` re-identifies it —
stale-but-consistent beats fresh-but-torn.  ``tests/test_stream.py``
(``test_version_bump_during_refresh_keeps_entry_stale``) pins the
regression; :mod:`repro.serve` builds its published snapshots on top of
this guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.monitor import (
    MonitorSeries,
    PlanChange,
    detect_plan_changes,
    repair_outliers,
)
from ..core.pipeline import PipelineConfig
from ..core.signal_types import ScheduleEstimate
from ..matching.partition import LightKey, LightPartition
from ..obs import ChunkStats, LightFailure, RunReport, StageTelemetry
from ..trace.store import PartitionStore
from .store import ChunkIngest, StreamStore

__all__ = ["IncrementalUpdate", "StreamSession"]


@dataclass(frozen=True)
class IncrementalUpdate:
    """Result of one :meth:`StreamSession.ingest` call.

    ``estimates``/``failures`` are the session's **full current view**
    (cached lights included), so consumers see the same shape as a
    one-shot ``identify_many``; ``refreshed`` says which lights were
    actually re-identified by this ingest.  A light the chunk did not
    dirty keeps its **latest-known** estimate — evaluated as of its own
    last refresh time, not ``at_time``; call
    :meth:`StreamSession.evaluate` for a time-consistent snapshot.
    ``plan_changes`` carries only the scheduling changes *newly*
    detected by this ingest.
    """

    chunk_index: int
    at_time: Optional[float]
    n_records: int
    touched: FrozenSet[LightKey]
    dirty: FrozenSet[LightKey]
    refreshed: FrozenSet[LightKey]
    estimates: Dict[LightKey, ScheduleEstimate] = field(default_factory=dict)
    failures: Dict[LightKey, LightFailure] = field(default_factory=dict)
    plan_changes: Dict[LightKey, List[PlanChange]] = field(default_factory=dict)


#: Result-cache entry: (data version, at_time, estimate-or-None, failure-or-None).
_CacheEntry = Tuple[int, float, Optional[ScheduleEstimate], Optional[LightFailure]]


class StreamSession:
    """Incremental identification over a stream of trace chunks.

    Parameters
    ----------
    config:
        Pipeline configuration shared by every evaluation.
    store:
        Optional initial partitions (plain mapping or a
        :class:`~repro.trace.store.PartitionStore`); default empty.
    monitor:
        Run the online scheduling-change monitor on every refresh.
    report:
        Optional :class:`~repro.obs.report.RunReport`; per-chunk
        :class:`~repro.obs.report.ChunkStats` and per-light telemetry
        fold into it.
    """

    def __init__(
        self,
        *,
        config: Optional[PipelineConfig] = None,
        store: Optional[Mapping[LightKey, LightPartition]] = None,
        monitor: bool = True,
        report: Optional[RunReport] = None,
    ) -> None:
        self.config = PipelineConfig() if config is None else config
        self.stream = StreamStore(store)
        self.monitor = monitor
        self.report = report
        self._chunk_index = 0
        self._last_at_time: Optional[float] = None
        self._results: Dict[LightKey, _CacheEntry] = {}
        # Online monitor state: accumulated (t, cycle_s, quality) samples
        # and the onsets of the changes already reported, per light.
        self._history: Dict[LightKey, List[Tuple[float, float, float]]] = {}
        self._onsets_reported: Dict[LightKey, Set[float]] = {}

    @property
    def store(self) -> PartitionStore:
        """The underlying columnar store (read access)."""
        return self.stream.store

    def results_view(self) -> Dict[LightKey, _CacheEntry]:
        """Shallow copy of the per-light result cache.

        Each entry is ``(data version, at_time, estimate, failure)``
        — the version is the one captured *before* the entry's
        identification ran (see :meth:`_refresh`), so an entry whose
        version trails ``stream.version(key)`` is stale, never
        mixed-version.  :mod:`repro.serve` turns these into immutable
        published :class:`~repro.serve.Snapshot` objects.
        """
        return dict(self._results)

    # ------------------------------------------------------------------
    # Evaluation (shared by ingest-refresh and explicit calls)
    # ------------------------------------------------------------------
    def evaluate(
        self,
        at_time: float,
        *,
        keys: Optional[Sequence[LightKey]] = None,
    ) -> Tuple[Dict[LightKey, ScheduleEstimate], Dict[LightKey, LightFailure]]:
        """Estimates for every light (or ``keys``) as of ``at_time``.

        Only **stale** lights — data version or evaluation time differs
        from the cached entry — are re-run, through the batched backend
        restricted to that subset; everything else is served from cache.
        The combined result is bit-for-bit what a one-shot batched run
        over the full store would return.
        """
        self._refresh(at_time, keys)
        wanted = sorted(self.store) if keys is None else sorted(keys)
        estimates: Dict[LightKey, ScheduleEstimate] = {}
        failures: Dict[LightKey, LightFailure] = {}
        for key in wanted:
            entry = self._results.get(key)
            if entry is None:
                continue
            _v, _t, est, fail = entry
            if est is not None:
                estimates[key] = est
            elif fail is not None:
                failures[key] = fail
        return estimates, failures

    def _data_stale_keys(self) -> List[LightKey]:
        """Lights whose *data* changed since their cached result.

        The per-chunk refresh set: a light whose records are untouched
        keeps its latest-known estimate even as "now" advances — only
        :meth:`evaluate` forces a time-consistent snapshot.
        """
        return [
            key
            for key in sorted(self.store)
            if (entry := self._results.get(key)) is None
            or entry[0] != self.stream.version(key)
        ]

    def _stale_keys(
        self, at_time: float, keys: Optional[Sequence[LightKey]]
    ) -> List[LightKey]:
        wanted = sorted(self.store) if keys is None else sorted(keys)
        stale = []
        for key in wanted:
            entry = self._results.get(key)
            if (
                entry is None
                or entry[0] != self.stream.version(key)
                or entry[1] != at_time
            ):
                stale.append(key)
        return stale

    def _refresh(
        self, at_time: float, keys: Optional[Sequence[LightKey]]
    ) -> FrozenSet[LightKey]:
        """Re-identify stale lights; returns the set actually re-run.

        The stale subset runs through the same row-wise-exact kernels as
        the one-shot backends, which is what the replay-parity contract
        rests on.
        """
        from ..core.batch import identify_batch

        stale = self._stale_keys(at_time, keys)
        if not stale:
            return frozenset()
        # Snapshot-isolation invariant: every cache entry is stamped
        # with the data version captured *before* identification runs,
        # never the version read afterwards.  A version bump that lands
        # while the kernels run (a concurrent ingest under repro.serve)
        # therefore leaves the entry stale — the next evaluate
        # re-identifies it — instead of publishing estimates computed
        # from the old rows under the new version (a mixed-version read).
        versions = {key: self.stream.version(key) for key in stale}
        b_est, b_fail, tels = identify_batch(
            self.store, at_time, config=self.config, keys=stale
        )
        for key in stale:
            self._results[key] = (
                versions[key],
                at_time,
                b_est.get(key),
                b_fail.get(key),
            )
        if self.report is not None:
            for key in sorted(tels):
                self.report.record_light(key, tels[key], b_fail.get(key))
        if self.monitor:
            self._observe(at_time, stale, b_est)
        return frozenset(stale)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(
        self,
        chunk: Mapping[LightKey, LightPartition],
        *,
        at_time: Optional[float] = None,
        refresh: bool = True,
    ) -> IncrementalUpdate:
        """Append one chunk and (by default) refresh the dirty lights.

        ``at_time`` defaults to the chunk's latest report time (falling
        back to the previous evaluation time), mimicking a live consumer
        asking "what are the schedules *now*?".  Only lights whose
        **data** changed are re-identified — untouched lights keep their
        latest-known estimates, which is what makes a per-chunk update
        O(dirty) instead of O(city) (``bench_stream_incremental``).
        ``refresh=False`` defers all evaluation to a later
        :meth:`evaluate` call.
        """
        tel = StageTelemetry()
        with tel.stage("ingest"):
            ingest: ChunkIngest = self.stream.append(chunk)
            if at_time is None:
                at_time = (
                    ingest.t_max if ingest.t_max is not None else self._last_at_time
                )
            refreshed: FrozenSet[LightKey] = frozenset()
            if refresh and at_time is not None:
                self._last_at_time = at_time
                refreshed = self._refresh(at_time, self._data_stale_keys())
        update = self._build_update(ingest, at_time, refreshed)
        if self.report is not None:
            self.report.record_chunk(
                ChunkStats(
                    chunk_index=update.chunk_index,
                    n_records=ingest.n_records,
                    n_touched=len(ingest.touched),
                    n_dirty=len(ingest.dirty),
                    n_refreshed=len(refreshed),
                    wall_s=tel.stage_s.get("ingest", 0.0),
                )
            )
        self._chunk_index += 1
        return update

    def _build_update(
        self,
        ingest: ChunkIngest,
        at_time: Optional[float],
        refreshed: FrozenSet[LightKey],
    ) -> IncrementalUpdate:
        estimates: Dict[LightKey, ScheduleEstimate] = {}
        failures: Dict[LightKey, LightFailure] = {}
        for key in sorted(self._results):
            _v, _t, est, fail = self._results[key]
            if est is not None:
                estimates[key] = est
            elif fail is not None:
                failures[key] = fail
        changes: Dict[LightKey, List[PlanChange]] = {}
        for key in sorted(refreshed):
            fresh = self._new_plan_changes(key)
            if fresh:
                changes[key] = fresh
        return IncrementalUpdate(
            chunk_index=self._chunk_index,
            at_time=at_time,
            n_records=ingest.n_records,
            touched=ingest.touched,
            dirty=ingest.dirty,
            refreshed=refreshed,
            estimates=estimates,
            failures=failures,
            plan_changes=changes,
        )

    # ------------------------------------------------------------------
    # Online scheduling-change monitor
    # ------------------------------------------------------------------
    def _observe(
        self,
        at_time: float,
        refreshed: Sequence[LightKey],
        estimates: Mapping[LightKey, ScheduleEstimate],
    ) -> None:
        """Append one monitor sample per refreshed light.

        Failed refreshes record NaN cycles, matching
        :func:`~repro.core.monitor.monitor_cycle`'s sparse-window
        convention: gaps stay visible instead of silently vanishing.
        """
        for key in refreshed:
            est = estimates.get(key)
            sample = (
                (at_time, est.cycle.cycle_s, est.cycle.quality)
                if est is not None
                else (at_time, float("nan"), float("nan"))
            )
            history = self._history.setdefault(key, [])
            if history and history[-1][0] == at_time:
                history[-1] = sample
            else:
                history.append(sample)

    def monitor_series(self, key: LightKey) -> MonitorSeries:
        """The accumulated cycle series for one light."""
        history = self._history.get(key, [])
        t = [s[0] for s in history]
        c = [s[1] for s in history]
        q = [s[2] for s in history]
        return MonitorSeries.from_samples(t, c, q)

    def _new_plan_changes(self, key: LightKey) -> List[PlanChange]:
        """The detected changes whose onset this light has not reported.

        Detection re-runs over the whole series, and a new sample can
        move an earlier repair: a change may vanish and come back, or
        its onset may move.  Keying on the onset reports each onset
        once, and a moved onset as a new change.
        """
        series = self.monitor_series(key)
        if len(series) < 3 or np.all(np.isnan(series.cycle_s)):
            return []
        changes = detect_plan_changes(repair_outliers(series))
        reported = self._onsets_reported.setdefault(key, set())
        fresh = [change for change in changes if change.at_time not in reported]
        reported.update(change.at_time for change in fresh)
        return fresh
