"""Streaming identification: incremental ingest with replay parity.

The one-shot backends (serial/batched/shard) recompute the whole city
for every new batch of records.  This package maintains per-light state
instead: chunks append into the columnar store, only the touched lights
(and their enhancement-coupled perpendicular partners) lose their
caches, and a refresh re-identifies just that dirty subset — bit-for-bit
equal to a full batched recompute (see
:mod:`repro.stream.session` for the replay-parity contract).
"""

from .chunking import split_by_time, split_random, subset_partition
from .session import IncrementalUpdate, StreamSession
from .store import ChunkIngest, StreamStore

__all__ = [
    "ChunkIngest",
    "IncrementalUpdate",
    "StreamSession",
    "StreamStore",
    "split_by_time",
    "split_random",
    "subset_partition",
]
