"""Run-scoped column store of partitioned records.

``identify_many`` historically re-pickled every :class:`LightPartition`
into the process pool on every call — for ``evaluate_at_times`` that is
once per light per time spot.  A :class:`PartitionStore` flattens all
partitions into one set of contiguous columns (CSR-style: per-light row
ranges over shared arrays) built **once per run**, and layers the
caches the identification pipeline re-derives per call on top of it:

* ``window_samples`` — ``(t, speed)`` extraction near the stop line,
  O(log n) via ``searchsorted`` on the time-sorted rows instead of a
  full boolean mask per call;
* ``stops`` — the per-light :class:`~repro.core.stops.StopEvents`,
  extracted over the whole partition and time-windowed per spot; after
  an append only the appended taxis' events are re-derived;
* ``mean_interval`` — the measured mean report interval, which never
  changes between time spots.

Nothing per-window is cached: the regularized speed grid depends on the
spot, so an ``evaluate_at_times`` sweep would never reuse one.

The store also travels cheaply across process boundaries:
``pmap(..., common=...)`` hands it to each worker once.  Inside
:func:`repro.core.shard.identify_shard` the columns are spilled to
``.npy`` files for the call, so a worker that unpickles the store
(spawn or forkserver) re-opens them memory-mapped and the pickle
payload shrinks to the file paths; under fork the workers inherit it.

Extraction semantics are bit-identical to the per-partition code paths
(the parity suite ``tests/test_batch_parity.py`` holds them together).

Appends (:meth:`PartitionStore.append_partitions`) re-derive only what
a chunk changed: untouched lights' rows are copied in runs and keep
their sortedness flag and caches, and a touched light's stop events are
re-extracted for the chunk's taxis alone on the next read.  A stop event
is a run of one taxi's reports, so no other taxi's events can change;
``tests/test_store.py::TestAppendOracle`` holds the result equal to a
one-shot build over every sequence of appends.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import fields
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..parallel.pool import WorkerError, run_guarded
from .records import TraceArrays

if TYPE_CHECKING:  # import cycle: matching/core import the store lazily
    from ..core.stops import StopEvents
    from ..matching.partition import LightPartition

__all__ = ["PartitionStore"]

#: Partition key: (intersection id, approach group) — mirrors
#: :data:`repro.matching.partition.LightKey` without importing it
#: (matching sits above trace in the layer order).
LightKey = Tuple[int, str]

#: Per-record columns beyond the raw trace fields.
_EXTRA_COLUMNS = ("segment_id", "dist_to_stopline_m")

_ALL_COLUMNS = TraceArrays.COLUMNS + _EXTRA_COLUMNS


class PartitionStore:
    """Columnar, cache-carrying view over a city's light partitions.

    Build once per run with :meth:`from_partitions`; behaves as a
    read-only mapping from :data:`LightKey` to
    :class:`~repro.matching.partition.LightPartition` (reconstructed as
    zero-copy column slices), so it can stand in for the plain
    partition dict everywhere in the pipeline.
    """

    def __init__(
        self,
        keys: Sequence[LightKey],
        offsets: np.ndarray,
        columns: Dict[str, np.ndarray],
        *,
        irregular: Optional[Dict[LightKey, Any]] = None,
    ) -> None:
        self._regular_keys: List[LightKey] = [
            (int(iid), str(app)) for iid, app in keys
        ]
        self._offsets = np.asarray(offsets, dtype=np.int64)
        if self._offsets.shape[0] != len(self._regular_keys) + 1:
            raise ValueError(
                f"offsets has length {self._offsets.shape[0]}, expected "
                f"{len(self._regular_keys) + 1}"
            )
        missing = [c for c in _ALL_COLUMNS if c not in columns]
        if missing:
            raise ValueError(f"columns missing {missing}")
        self._columns: Optional[Dict[str, np.ndarray]] = dict(columns)
        # Partitions whose columns disagree on length cannot be stored
        # columnar without corrupting their neighbours' row ranges; they
        # ride along as-is and are read through pass-through views.
        self._irregular: Dict[LightKey, Any] = dict(irregular or {})
        # Set only inside identify_shard's spill window (see _spilled).
        self._mmap_dir: Optional[str] = None
        self._init_derived()

    def _init_derived(self) -> None:
        self._refresh_keys()
        self._stops: Dict[LightKey, Any] = {}
        # Stop events read before an append, with the (sorted, unique)
        # taxi ids appended since: only those taxis' events are stale.
        self._stale_stops: Dict[LightKey, Tuple[Any, np.ndarray]] = {}
        self._intervals: Dict[LightKey, float] = {}

    def _refresh_keys(self, touched: Optional[AbstractSet[LightKey]] = None) -> None:
        """Rebuild the key/index/sortedness views after a column change.

        With *touched* given (an append), every other regular light's
        rows were copied verbatim, so its sortedness flag carries over by
        key; only touched and new lights are checked.
        """
        carried: Dict[LightKey, bool] = {}
        if touched is not None:
            carried = {
                key: bool(self._time_sorted[i])
                for key, i in self._index.items()
                if key not in touched
            }
        self._keys: List[LightKey] = sorted(
            list(self._regular_keys) + list(self._irregular)
        )
        self._index: Dict[LightKey, int] = {
            key: i for i, key in enumerate(self._regular_keys)
        }
        t = self.columns["t"]
        offsets = self._offsets
        self._time_sorted = np.array(
            [
                carried[key] if key in carried
                else bool(np.all(np.diff(t[offsets[i]:offsets[i + 1]]) >= 0))
                for i, key in enumerate(self._regular_keys)
            ],
            dtype=bool,
        )

    # ------------------------------------------------------------------
    # Construction / persistence
    # ------------------------------------------------------------------
    @classmethod
    def from_partitions(
        cls, partitions: "Mapping[LightKey, LightPartition]"
    ) -> "PartitionStore":
        """Flatten a partition mapping into one columnar store.

        ``partitions`` maps :data:`LightKey` to
        :class:`~repro.matching.partition.LightPartition` (a store is
        returned unchanged).
        """
        if isinstance(partitions, cls):
            return partitions
        keys: List[LightKey] = []
        irregular: Dict[LightKey, Any] = {}
        for key in sorted(partitions):
            if _is_regular(partitions[key]):
                keys.append(key)
            else:
                irregular[key] = partitions[key]
        offsets = np.zeros(len(keys) + 1, dtype=np.int64)
        for i, key in enumerate(keys):
            offsets[i + 1] = offsets[i] + len(partitions[key])
        per_key = [_partition_columns(partitions[key]) for key in keys]
        columns: Dict[str, np.ndarray] = {
            name: _concat([cols[name] for cols in per_key]) for name in _ALL_COLUMNS
        }
        return cls(keys, offsets, columns, irregular=irregular)

    def append_partitions(
        self, chunk: "Mapping[LightKey, LightPartition]"
    ) -> FrozenSet[LightKey]:
        """Append a chunk of per-light records **in place**.

        ``chunk`` maps :data:`LightKey` to a partition holding only the
        new records (a chunk of a replayed trace, or fresh arrivals of a
        live stream).  Returns the set of touched lights.  Contracts:

        * each touched light's rows are re-sorted into the canonical
          ``(t, taxi_id)`` order, so the merged columns are independent
          of how the records were chunked or permuted on the way in
          (bit-for-bit, whenever report timestamps are unique per
          light — always true for continuous-time traces);
        * **only** touched lights lose their cached stop events and mean
          report interval — every other light's caches survive verbatim.
          A touched light's stop events, if they were read, are kept
          aside with the chunk's taxi ids: the next :meth:`stops`
          re-extracts only those taxis' rows;
        * an irregular chunk (inconsistent column lengths) quarantines
          its light onto the pass-through views, exactly like an
          irregular partition at build time; healthy lights are
          unaffected.
        """
        touched: Set[LightKey] = set()
        demoted: Set[LightKey] = set()
        add_rows: Dict[LightKey, "LightPartition"] = {}
        for raw_key in sorted(chunk):
            part = chunk[raw_key]
            key: LightKey = (int(raw_key[0]), str(raw_key[1]))
            if key not in self._irregular and _is_regular(part):
                if len(part.trace) == 0:
                    continue  # empty chunk: nothing changes, keep caches
                add_rows[key] = part
            else:
                base = self._irregular.get(key)
                if base is None and key in self._index:
                    base = self.partition(key)
                    demoted.add(key)
                self._irregular[key] = (
                    part if base is None else _merge_irregular(base, part)
                )
            touched.add(key)
        stale_stops: Dict[LightKey, Tuple["StopEvents", np.ndarray]] = {}
        for key, part in add_rows.items():
            entry = self._stale_stops_after(key, part.trace.taxi_id)
            if entry is not None:
                stale_stops[key] = entry
        if add_rows or demoted:
            self._splice_rows(add_rows, demoted)
        for key in touched:
            self.invalidate_light(key)
        self._stale_stops.update(stale_stops)
        if touched:
            self._refresh_keys(touched)
        return frozenset(touched)

    def _stale_stops_after(
        self, key: LightKey, taxi_id: np.ndarray
    ) -> "Optional[Tuple[StopEvents, np.ndarray]]":
        """*key*'s stop events to keep aside when rows of *taxi_id* arrive.

        The events read before this append (or kept aside by an earlier
        one, whose taxis are joined in) and the sorted taxi ids whose
        events among them are stale; ``None`` when no events were read
        since the last full extraction.
        """
        events = self._stops.get(key)
        if events is not None:
            return events, np.unique(taxi_id)
        stale = self._stale_stops.get(key)
        if stale is not None:
            return stale[0], np.union1d(stale[1], taxi_id)
        return None

    def _splice_rows(
        self,
        add_rows: "Mapping[LightKey, LightPartition]",
        demoted: AbstractSet[LightKey],
    ) -> None:
        """Rebuild the CSR columns with *add_rows* merged in.

        Untouched lights' rows are copied verbatim, each maximal run of
        lights adjacent in the old columns as one slice per column; each
        touched light's merged rows are re-sorted into the canonical
        ``(t, taxi_id)`` order.
        """
        old_cols = self.columns
        new_keys = sorted(
            (set(self._regular_keys) | set(add_rows)) - set(demoted)
        )
        pieces: Dict[str, List[np.ndarray]] = {name: [] for name in _ALL_COLUMNS}
        offsets = np.zeros(len(new_keys) + 1, dtype=np.int64)
        run: List[int] = []  # old row range of the pending untouched lights

        def flush_run() -> None:
            if run:
                for name in _ALL_COLUMNS:
                    pieces[name].append(np.asarray(old_cols[name][run[0]:run[1]]))
                run.clear()

        for i, key in enumerate(new_keys):
            fresh = add_rows.get(key)
            if fresh is None:
                lo, hi = self._range(key)
                if run and run[1] == lo:
                    run[1] = hi
                else:
                    flush_run()
                    run.extend((lo, hi))
                offsets[i + 1] = offsets[i] + (hi - lo)
                continue
            flush_run()
            cols_k = _partition_columns(fresh)
            if key in self._index:
                lo, hi = self._range(key)
                cols_k = {
                    name: np.concatenate([old_cols[name][lo:hi], cols_k[name]])
                    for name in _ALL_COLUMNS
                }
            order = np.lexsort((cols_k["taxi_id"], cols_k["t"]))
            if not np.array_equal(order, np.arange(order.shape[0])):
                cols_k = {name: col[order] for name, col in cols_k.items()}
            offsets[i + 1] = offsets[i] + cols_k["t"].shape[0]
            for name in _ALL_COLUMNS:
                pieces[name].append(np.asarray(cols_k[name]))
        flush_run()
        self._regular_keys = list(new_keys)
        self._offsets = offsets
        self._columns = {name: _concat(pieces[name]) for name in _ALL_COLUMNS}

    def invalidate_light(self, key: LightKey) -> None:
        """Drop one light's cached state, leaving every other light's intact.

        Its stop events are dropped whole, kept-aside ones included, so
        the next :meth:`stops` extracts them from every row again.
        """
        self._stops.pop(key, None)
        self._stale_stops.pop(key, None)
        self._intervals.pop(key, None)

    @contextmanager
    def _spilled(self) -> Iterator["PartitionStore"]:
        """Back the columns with ``.npy`` maps in a fresh temp directory.

        The sharded backend's spill window; only
        :func:`repro.core.shard.identify_shard` opens it.  Inside, the
        store pickles as a metadata handle (keys, offsets, the directory;
        zero column bytes) and every process that loads it re-opens the
        same pages read-only.  On exit, on error too, the in-memory
        arrays come back and the directory is removed, a half-written
        one included.
        """
        columns = self.columns
        spill_dir = tempfile.mkdtemp(prefix="repro-store-")
        try:
            for name, col in columns.items():
                np.save(os.path.join(spill_dir, f"{name}.npy"), col)
            # reload lazily, memory-mapped; both backings hold the same
            # rows, so no derived cache needs invalidating
            self._columns = None
            self._mmap_dir = spill_dir
            yield self
        finally:
            self._columns = columns
            self._mmap_dir = None
            shutil.rmtree(spill_dir, ignore_errors=True)

    @property
    def columns(self) -> Dict[str, np.ndarray]:
        """The shared column arrays (lazily re-opened when mapped)."""
        if self._columns is None:
            assert self._mmap_dir is not None
            self._columns = {
                name: np.load(
                    os.path.join(self._mmap_dir, f"{name}.npy"), mmap_mode="r"
                )
                for name in _ALL_COLUMNS
            }
        return self._columns

    def __getstate__(self) -> Dict[str, Any]:
        state = {
            "keys": self._regular_keys,
            "offsets": self._offsets,
            "irregular": self._irregular,
            "mmap_dir": self._mmap_dir,
            # mapped columns reload from disk in the receiving process
            "columns": self._columns if self._mmap_dir is None else None,
        }
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self._regular_keys = state["keys"]
        self._offsets = state["offsets"]
        self._irregular = state["irregular"]
        self._mmap_dir = state["mmap_dir"]
        self._columns = state["columns"]
        self._init_derived()

    # ------------------------------------------------------------------
    # Mapping protocol (drop-in for Dict[LightKey, LightPartition])
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[LightKey]:
        return iter(self._keys)

    def __contains__(self, key: object) -> bool:
        return key in self._index or key in self._irregular

    def keys(self) -> List[LightKey]:
        return list(self._keys)

    def __getitem__(self, key: LightKey) -> "LightPartition":
        return self.partition(key)

    def get(
        self, key: LightKey, default: Optional["LightPartition"] = None
    ) -> Optional["LightPartition"]:
        return self.partition(key) if key in self else default

    def is_regular(self, key: LightKey) -> bool:
        """False for pass-through partitions with inconsistent columns
        (those are read through pass-through views)."""
        return key in self._index

    @property
    def n_records(self) -> int:
        return int(self._offsets[-1])

    @property
    def columns_nbytes(self) -> int:
        """Total bytes of the column arrays — what a full (unspilled)
        pickle would ship to every worker."""
        return int(sum(int(col.nbytes) for col in self.columns.values()))

    def light_n_records(self, key: LightKey) -> int:
        """Rows held for *key*: the columnar range for regular lights,
        the pass-through partition's own record count for quarantined
        ones (0 when even that is unmeasurable).  The sharded backend
        balances its shards on these weights."""
        if key in self._irregular:
            n = run_guarded(len, self._irregular[key])
            return 0 if isinstance(n, WorkerError) else int(n)
        i = self._index[key]
        return int(self._offsets[i + 1] - self._offsets[i])

    # ------------------------------------------------------------------
    # Per-light views and caches
    # ------------------------------------------------------------------
    def _range(self, key: LightKey) -> Tuple[int, int]:
        i = self._index[key]
        return int(self._offsets[i]), int(self._offsets[i + 1])

    def partition(self, key: LightKey) -> "LightPartition":
        """The light's :class:`LightPartition`, as zero-copy slices.

        Built on each call, never cached: a kept view would pin the whole
        column generation it was sliced from after an append replaced it.
        """
        if key in self._irregular:
            return self._irregular[key]
        from ..matching.partition import LightPartition

        lo, hi = self._range(key)
        cols = self.columns
        return LightPartition(
            intersection_id=key[0],
            approach=key[1],
            trace=TraceArrays(
                **{name: cols[name][lo:hi] for name in TraceArrays.COLUMNS}
            ),
            segment_id=np.asarray(cols["segment_id"][lo:hi]),
            dist_to_stopline_m=np.asarray(cols["dist_to_stopline_m"][lo:hi]),
        )

    def window_samples(
        self, key: LightKey, t0: float, t1: float, max_dist_m: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(t, speed) near the stop line within ``[t0, t1)``.

        The records with ``t0 <= t < t1`` and ``dist <= max_dist_m``, in
        row order; time-sorted lights use a binary search instead of a
        full mask.
        """
        if key in self._irregular:
            p = self._irregular[key]
            keep = (
                (p.trace.t >= t0)
                & (p.trace.t < t1)
                & (p.dist_to_stopline_m <= max_dist_m)
            )
            return p.trace.t[keep], p.trace.speed_kmh[keep]
        lo, hi = self._range(key)
        cols = self.columns
        t = cols["t"][lo:hi]
        dist = cols["dist_to_stopline_m"][lo:hi]
        v = cols["speed_kmh"][lo:hi]
        if self._time_sorted[self._index[key]]:
            a = int(np.searchsorted(t, t0, side="left"))
            b = int(np.searchsorted(t, t1, side="left"))
            near = dist[a:b] <= max_dist_m
            return t[a:b][near], v[a:b][near]
        keep = (t >= t0) & (t < t1) & (dist <= max_dist_m)
        return t[keep], v[keep]

    def stops(self, key: LightKey) -> "StopEvents":
        """The light's stop events over all its rows (cached).

        Extracted once, then after each append only for the appended
        taxis: a stop event is a run of one taxi's reports in
        ``(taxi_id, t)`` order, and an append keeps every other taxi's
        rows in their relative order.  Those taxis' rows (old and new)
        are re-extracted and their events merged back in ``taxi_id``
        order, exactly as a full :func:`~repro.core.stops.extract_stops`
        would order them.
        """
        events = self._stops.get(key)
        if events is None:
            from ..core.stops import extract_stops

            stale = self._stale_stops.pop(key, None)
            if stale is None:
                events = extract_stops(self.partition(key))
            else:
                events = self._restitch_stops(key, *stale)
            self._stops[key] = events
        return events

    def _restitch_stops(
        self, key: LightKey, events: "StopEvents", taxis: np.ndarray
    ) -> "StopEvents":
        """*events* with the events of *taxis* re-extracted from the rows."""
        from ..core.stops import StopEvents, extract_stops
        from ..matching.partition import LightPartition

        lo, hi = self._range(key)
        cols = self.columns
        rows = lo + np.flatnonzero(_in_sorted(cols["taxi_id"][lo:hi], taxis))
        fresh = extract_stops(
            LightPartition(
                intersection_id=key[0],
                approach=key[1],
                trace=TraceArrays(
                    **{name: cols[name][rows] for name in TraceArrays.COLUMNS}
                ),
                segment_id=cols["segment_id"][rows],
                dist_to_stopline_m=cols["dist_to_stopline_m"][rows],
            )
        )
        kept = events.subset(~_in_sorted(events.taxi_id, taxis))
        merged = StopEvents(
            **{
                f.name: np.concatenate([getattr(kept, f.name), getattr(fresh, f.name)])
                for f in fields(StopEvents)
            }
        )
        return merged.subset(np.argsort(merged.taxi_id, kind="stable"))

    def mean_interval(self, key: LightKey, default_s: float = 20.14) -> float:
        """Measured mean report interval (cached; see pipeline)."""
        interval = self._intervals.get(key)
        if interval is None:
            from ..core.pipeline import measured_mean_interval

            interval = measured_mean_interval(self.partition(key), default_s)
            self._intervals[key] = interval
        return interval

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        backing = f"mmap:{self._mmap_dir}" if self._mmap_dir else "in-memory"
        return (
            f"PartitionStore({len(self._keys)} lights, "
            f"{self.n_records:,} records, {backing})"
        )


def _probe_regular(partition: "LightPartition") -> bool:
    """All per-record columns agree on one length (may raise on garbage)."""
    n = len(partition.trace)
    cols = [getattr(partition.trace, name) for name in TraceArrays.COLUMNS]
    cols += [
        np.asarray(partition.segment_id),
        np.asarray(partition.dist_to_stopline_m),
    ]
    return all(c.ndim == 1 and c.shape[0] == n for c in cols)


def _is_regular(partition: "LightPartition") -> bool:
    """True when the partition can be stored columnar.

    Probing arbitrary partition-like objects can raise anything, so the
    probe runs through the sanctioned containment seam
    (:func:`repro.parallel.pool.run_guarded`); a partition whose probe
    fails is quarantined onto the pass-through views rather than trusted.
    """
    return run_guarded(_probe_regular, partition) is True


def _in_sorted(values: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Mask of the *values* found in *ids* (sorted, non-empty); a few
    *ids* against a light's rows cost less than ``np.isin``'s set-up."""
    return ids[np.minimum(np.searchsorted(ids, values), ids.size - 1)] == values


def _concat(parts: List[np.ndarray]) -> np.ndarray:
    if not parts:
        return np.empty(0)
    return np.concatenate(parts)


def _partition_columns(part: "LightPartition") -> Dict[str, np.ndarray]:
    """One partition's rows as the store's column dict."""
    out: Dict[str, np.ndarray] = {
        name: np.asarray(getattr(part.trace, name)) for name in TraceArrays.COLUMNS
    }
    out["segment_id"] = np.asarray(part.segment_id)
    out["dist_to_stopline_m"] = np.asarray(part.dist_to_stopline_m, dtype=np.float64)
    return out


def _merge_partitions(
    base: "LightPartition", fresh: "LightPartition"
) -> "LightPartition":
    """Row-concatenate two partitions (may raise on garbage inputs)."""
    from ..matching.partition import LightPartition

    return LightPartition(
        intersection_id=base.intersection_id,
        approach=base.approach,
        trace=TraceArrays.concat([base.trace, fresh.trace]),
        segment_id=np.concatenate(
            [np.asarray(base.segment_id), np.asarray(fresh.segment_id)]
        ),
        dist_to_stopline_m=np.concatenate(
            [
                np.asarray(base.dist_to_stopline_m, dtype=np.float64),
                np.asarray(fresh.dist_to_stopline_m, dtype=np.float64),
            ]
        ),
    )


def _merge_irregular(base: Any, fresh: Any) -> Any:
    """Best-effort merge of two pass-through partitions.

    Either side may be arbitrary garbage, so the merge runs through the
    sanctioned containment seam.  When it fails, the *fresh* chunk wins:
    identification then surfaces the fault for this light instead of
    silently serving estimates from stale pre-chunk records.
    """
    merged = run_guarded(_merge_partitions, base, fresh)
    if isinstance(merged, WorkerError):
        return fresh
    return merged
