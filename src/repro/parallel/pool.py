"""Process-pool fan-out helpers.

The paper notes that after partitioning by nearest traffic light, "the
traffic light scheduling identification algorithm for different traffic
lights can be easily paralleled".  This module is that layer: one
order-preserving ``pmap`` over processes, and ``pmap_seeded`` on top of
it, following the HPC guide idioms (vectorized inner loops,
process-level outer parallelism, and measurement before optimization).

Workers receive picklable ``(func, item)`` pairs; per-item seeds are
derived with :func:`repro._util.seed_sequence_for` so results are
reproducible regardless of scheduling order or worker count.

An exception in any item aborts the whole map.  Callers that must
survive a failed item or a failed map route the call through
:func:`run_guarded`, the one containment seam, and branch on the
:class:`WorkerError` it returns: the sharded backend wraps its whole
map that way and re-runs every shard in-parent when the map fails.
"""

from __future__ import annotations

import math
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from traceback import TracebackException
from typing import Any, Callable, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .._util import as_rng, seed_sequence_for

__all__ = [
    "pmap",
    "pmap_seeded",
    "default_workers",
    "payload_nbytes",
    "WorkerError",
    "get_common",
    "run_guarded",
]

#: Tasks per worker in a pool map: over-decomposing the map lets
#: stragglers rebalance on skewed items (e.g. the 25x record-count
#: imbalance of Table II).
_CHUNKS_PER_WORKER = 4

#: Per-process shared object installed by ``pmap(..., common=...)``.
_WORKER_COMMON: Any = None


def _set_common(value: Any) -> None:
    global _WORKER_COMMON
    _WORKER_COMMON = value


def get_common() -> Any:
    """The object passed as ``pmap``'s ``common`` argument.

    ``pmap(..., common=obj)`` hands ``obj`` to each worker process
    **once**, as the executor initializer's argument, instead of once
    per work item; worker functions retrieve it here.  Under fork the
    workers inherit ``obj`` as it is in the parent, caches included;
    under spawn or forkserver it is pickled once per worker.  ``None``
    outside a ``common``-carrying map — both dispatch paths install the
    slot for exactly the duration of the map (the in-process path
    snapshots and restores it, the pool path re-initializes every
    worker), so a value left over from an earlier run is never visible.
    """
    return _WORKER_COMMON


@contextmanager
def _installed_common(value: Any) -> Iterator[None]:
    """Install *value* as the worker-common slot for one in-process map.

    The snapshot/restore is unconditional — it runs for ``None`` too,
    and the ``finally`` overwrites whatever the dispatched function left
    behind — so a worker that raises mid-map, or one that scribbles on
    the slot itself, cannot leak another run's store into the next
    ``pmap`` call.
    """
    previous = _WORKER_COMMON
    _set_common(value)
    try:
        yield
    finally:
        _set_common(previous)


def payload_nbytes(obj: Any) -> int:
    """Bytes *obj* ships across one process boundary (its pickled size).

    The sharded backend reports its spilled
    :class:`~repro.trace.store.PartitionStore` handle in these terms
    (``ShardStats.common_bytes``): metadata + file paths, never column
    data.
    """
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


@dataclass(frozen=True, eq=False)
class WorkerError:
    """Picklable record of one failed call, returned by :func:`run_guarded`.

    Attributes
    ----------
    error_type:
        Exception class name raised by the guarded call.
    message:
        Exception message.
    traceback:
        Formatted traceback captured where the call raised, for
        debugging failures that only reproduce under the pool.  A
        property: the record is built from a frame-free
        :class:`traceback.TracebackException` (or the text itself) and
        formats it on first read, since most callers keep only the type
        and message.  Its source lines are read then too.
    exception:
        The caught exception itself, so an in-process caller can
        re-raise it.  Detached from its traceback (whose text is
        ``traceback``), as are its causes and contexts: a live
        traceback would pin every frame up the call stack, and with
        them this record, in a reference cycle.  Not compared, and
        dropped when the record is pickled across a process boundary.

    Records compare and hash on ``error_type``, ``message`` and
    ``traceback``; pickling ships the formatted text.
    """

    error_type: str
    message: str
    _traceback: Union[str, TracebackException] = field(repr=False)
    exception: Optional[BaseException] = field(default=None, repr=False)

    @property
    def traceback(self) -> str:
        text = self._traceback
        if not isinstance(text, str):
            text = "".join(text.format())
            object.__setattr__(self, "_traceback", text)
        return text

    def _key(self) -> Tuple[str, str, str]:
        return (self.error_type, self.message, self.traceback)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkerError):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self) -> Tuple[Any, Tuple[str, str, str]]:
        return (WorkerError, self._key())

    def __str__(self) -> str:
        return f"{self.error_type}: {self.message}"


def _available_cpus() -> int:
    """CPUs actually usable by this process.

    ``os.cpu_count`` reports the machine, not the process: under CPU
    affinity masks or cgroup limits (typical CI runners) it
    oversubscribes the pool.  ``sched_getaffinity`` reflects the real
    allowance where the platform provides it.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - platform quirk
            pass
    return os.cpu_count() or 1


def default_workers(max_workers: Optional[int] = None) -> int:
    """Worker count: ``max_workers`` if given, else available CPUs capped at 8.

    An explicit ``max_workers`` must be an integral count ≥ 1 — zero,
    negatives, bools, and non-integral values raise here instead of
    silently spawning a broken pool downstream.  The derived default is
    clamped to ≥ 1 so a degenerate affinity mask can never produce an
    empty pool.  The cap keeps test/bench runs polite on shared
    machines while still exercising real multi-process execution.
    """
    if max_workers is not None:
        if isinstance(max_workers, bool) or not isinstance(
            max_workers, (int, np.integer)
        ):
            raise TypeError(
                f"max_workers must be an integer, "
                f"got {type(max_workers).__name__}"
            )
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        return int(max_workers)
    return max(1, min(_available_cpus(), 8))


def run_guarded(func: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Run ``func(*args, **kwargs)``, converting any exception into a
    :class:`WorkerError`.

    This is the sanctioned containment seam: code that must survive
    arbitrary failures routes the risky call through here and branches
    on ``isinstance(result, WorkerError)`` instead of writing its own
    catch-all handler — the REP002 invariant keeps broad ``except`` out
    of everywhere else.  The traceback is captured as the text
    ``traceback.format_exc(limit=20)`` would give, but formatted only
    when read.
    """
    try:
        return func(*args, **kwargs)
    except Exception as exc:  # repro: allow[REP002] - the containment seam itself
        trace = TracebackException(
            type(exc), exc, exc.__traceback__, limit=20, lookup_lines=False
        )
        return WorkerError(type(exc).__name__, str(exc), trace, _detached(exc))


def _detached(exc: BaseException) -> BaseException:
    """*exc* with its traceback dropped, and those of its chain.

    A cause or context raised deeper keeps its own traceback, which
    pins the frames it passed through just as the outer one does.
    """
    seen: Set[int] = set()
    chain: List[Optional[BaseException]] = [exc]
    while chain:
        link = chain.pop()
        if link is None or id(link) in seen:
            continue
        seen.add(id(link))
        link.__traceback__ = None
        chain += [link.__cause__, link.__context__]
    return exc


def pmap(
    func: Callable[[Any], Any],
    items: Sequence,
    *,
    max_workers: Optional[int] = None,
    common: Any = None,
) -> List:
    """Parallel ``[func(x) for x in items]`` preserving order.

    Parameters
    ----------
    func:
        Picklable callable (top-level function or functools.partial).
    items:
        Work items; results come back in the same order.  The first
        exception any item raises aborts the map and propagates.
    max_workers:
        Process count (default: capped available-CPU count).  One
        worker, or one item, runs in-process with no pool; otherwise
        the items go out in at most ``_CHUNKS_PER_WORKER`` tasks per
        worker.
    common:
        Optional shared object handed to each worker process **once**
        (executor initializer) rather than once per item; workers read
        it back with :func:`get_common`.  Used to share a
        :class:`~repro.trace.store.PartitionStore` across a citywide
        fan-out.  Identical semantics in-process or in the pool.
    """
    items = list(items)
    if not items:
        return []
    workers = default_workers(max_workers)
    if workers == 1 or len(items) == 1:
        with _installed_common(common):
            return [func(item) for item in items]
    chunksize = math.ceil(len(items) / (workers * _CHUNKS_PER_WORKER))
    # The initializer runs for common=None as well: with a fork start
    # method a fresh worker would otherwise inherit whatever slot value
    # the parent had installed, violating get_common()'s contract.
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_set_common, initargs=(common,)
    ) as ex:
        return list(ex.map(func, items, chunksize=chunksize))


def _call_seeded(
    func: Callable[[Any, np.random.Generator], Any],
    base_seed: int,
    indexed: Tuple[int, Any],
) -> Any:
    index, item = indexed
    return func(item, as_rng(seed_sequence_for(base_seed, index)))


def pmap_seeded(
    func: Callable[[Any, np.random.Generator], Any],
    items: Sequence,
    base_seed: int,
    *,
    max_workers: Optional[int] = None,
) -> List:
    """Like :func:`pmap` but passes each call an independent RNG.

    ``func(item, rng)`` receives a generator seeded from
    ``(base_seed, item_index)`` — bitwise-identical results whether run
    in-process or across any number of processes.
    """
    return pmap(
        partial(_call_seeded, func, base_seed),
        list(enumerate(items)),
        max_workers=max_workers,
    )
