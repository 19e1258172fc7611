"""Incremental ingest into a :class:`~repro.trace.store.PartitionStore`.

``StreamStore`` is the mutation layer of the streaming backend: it owns
a ``PartitionStore`` and translates each arriving chunk into the
minimal cache damage —

* a **touched** light (one that received records) loses its partition
  view and mean report interval, and the stop events of the chunk's
  taxis (the store re-extracts those taxis' rows on the next read);
* its perpendicular partner at the same intersection keeps every
  cache, since its own records/stops/interval are untouched, but is
  **dirty**: §V.B enhancement mirrors the touched light's samples into
  the partner's sparse windows, so the partner's estimate may change;
* every other light's caches survive verbatim.

The **dirty** set (touched lights plus their present partners) is what
the session layer must re-identify; everything else may serve cached
estimates.  Per-light version counters make staleness checks O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Set

from ..matching.partition import LightKey, LightPartition, partner_of
from ..trace.store import PartitionStore

__all__ = ["ChunkIngest", "StreamStore"]


@dataclass(frozen=True)
class ChunkIngest:
    """What one :meth:`StreamStore.append` did.

    Attributes
    ----------
    touched:
        Lights that received records.
    dirty:
        Lights whose cached estimates are now stale: the touched lights
        plus their enhancement-coupled perpendicular partners.
    n_records:
        Records the chunk carried (summed over lights).
    t_max:
        Latest report time in the chunk (``None`` for an empty chunk) —
        the natural "now" for an ingest-triggered refresh.
    """

    touched: FrozenSet[LightKey]
    dirty: FrozenSet[LightKey]
    n_records: int
    t_max: Optional[float]


class StreamStore:
    """A :class:`PartitionStore` that accepts per-chunk appends.

    Parameters
    ----------
    store:
        Optional existing store (or plain partition mapping) to start
        from; by default the stream starts empty.
    """

    def __init__(
        self,
        store: Optional[Mapping[LightKey, LightPartition]] = None,
    ) -> None:
        self.store: PartitionStore = PartitionStore.from_partitions(
            store if store is not None else {}
        )
        #: Monotonic per-light data version; bumped for every light an
        #: append dirties.  Consumers compare against the version they
        #: evaluated at to decide staleness in O(1).
        self.versions: Dict[LightKey, int] = {key: 0 for key in self.store}

    def version(self, key: LightKey) -> int:
        return self.versions.get(key, 0)

    def append(self, chunk: Mapping[LightKey, LightPartition]) -> ChunkIngest:
        """Ingest one chunk; returns the touched/dirty accounting."""
        n_records = 0
        t_max: Optional[float] = None
        for part in chunk.values():
            n = len(part.trace)
            n_records += n
            if n:
                hi = float(part.trace.t.max())
                t_max = hi if t_max is None else max(t_max, hi)

        touched = self.store.append_partitions(chunk)
        dirty: Set[LightKey] = set(touched)
        for key in touched:
            partner = partner_of(key)
            if partner in self.store and partner not in touched:
                # The partner's own records are intact, but enhancement
                # may mirror the touched light's samples into it.
                dirty.add(partner)
        for key in dirty:
            self.versions[key] = self.versions.get(key, 0) + 1
        return ChunkIngest(
            touched=touched,
            dirty=frozenset(dirty),
            n_records=n_records,
            t_max=t_max,
        )
