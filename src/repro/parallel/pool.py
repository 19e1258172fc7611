"""Process-pool fan-out helpers.

The paper notes that after partitioning by nearest traffic light, "the
traffic light scheduling identification algorithm for different traffic
lights can be easily paralleled".  This module is that layer: a chunked,
deterministically-seeded ``pmap`` over processes, following the HPC
guide idioms (vectorized inner loops, process-level outer parallelism,
and measurement before optimization).

Workers receive picklable ``(func, item)`` pairs; per-item seeds are
derived with :func:`repro._util.seed_sequence_for` so results are
reproducible regardless of scheduling order or worker count.

Fault containment: by default an exception in any item aborts the whole
map (``on_error="raise"``, the historical behavior).  Citywide fan-outs
instead pass ``on_error="return"``, which converts each failed item
into a :class:`WorkerError` placed at the item's position — one
poisoned work item can no longer sink the other items sharing its
chunk, and the caller gets the exception class, message, and traceback
to report.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
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

#: Accepted ``on_error`` policies.
ON_ERROR = ("raise", "return")

#: Per-process shared object installed by ``pmap(..., common=...)``.
_WORKER_COMMON: Any = None


def _set_common(value: Any) -> None:
    global _WORKER_COMMON
    _WORKER_COMMON = value


def get_common() -> Any:
    """The object passed as ``pmap``'s ``common`` argument.

    ``pmap(..., common=obj)`` pickles ``obj`` **once per worker
    process** (via the executor initializer) instead of once per work
    item; worker functions retrieve it here.  ``None`` outside a
    ``common``-carrying map — both dispatch paths install the slot for
    exactly the duration of the map (the serial path snapshots and
    restores it, the pool path re-initializes every worker), so a
    value left over from an earlier run is never visible.
    """
    return _WORKER_COMMON


@contextmanager
def _installed_common(value: Any) -> Iterator[None]:
    """Install *value* as the worker-common slot for one serial dispatch.

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

    The sharded backend's zero-copy contract is stated in these terms:
    a spilled :class:`~repro.trace.store.PartitionStore` must pickle to
    metadata + file paths — never column data — and
    ``pmap(common_bytes_limit=...)`` enforces it at dispatch time.
    """
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


@dataclass(frozen=True, eq=False)
class WorkerError:
    """Picklable record of one failed work item (``on_error="return"``).

    Attributes
    ----------
    index:
        Position of the failed item in the input sequence.
    error_type:
        Exception class name raised by ``func(item)``.
    message:
        Exception message.
    traceback:
        Formatted traceback captured inside the worker, for debugging
        failures that only reproduce under the pool.  A property: the
        record is built from a frame-free
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

    Records compare and hash on ``index``, ``error_type``, ``message``
    and ``traceback``; pickling ships the formatted text.
    """

    index: int
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

    def _key(self) -> Tuple[int, str, str, str]:
        return (self.index, self.error_type, self.message, self.traceback)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkerError):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self) -> Tuple[Any, Tuple[int, str, str, str]]:
        return (WorkerError, self._key())

    def __str__(self) -> str:
        return f"item {self.index}: {self.error_type}: {self.message}"


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


def _chunks(items: Sequence, n_chunks: int) -> List[Sequence]:
    """Split *items* into at most *n_chunks* contiguous, balanced runs."""
    n = len(items)
    n_chunks = max(1, min(n_chunks, n))
    bounds = np.linspace(0, n, n_chunks + 1).astype(int)
    return [items[bounds[i]:bounds[i + 1]] for i in range(n_chunks) if bounds[i] < bounds[i + 1]]


def _check_on_error(on_error: str) -> None:
    if on_error not in ON_ERROR:
        raise ValueError(f"on_error must be one of {ON_ERROR}, got {on_error!r}")


def run_guarded(func: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Run ``func(*args, **kwargs)``, converting any exception into a
    :class:`WorkerError`.

    This is the sanctioned containment seam: code that must survive
    arbitrary per-item failures routes the risky call through here and
    branches on ``isinstance(result, WorkerError)`` instead of writing
    its own catch-all handler — the REP002 invariant keeps broad
    ``except`` out of everywhere else.

    ``index`` is ``-1`` until the caller fills in the item's position
    (``pmap`` does, via :func:`_fill_indices`).  The traceback is
    captured as the text ``traceback.format_exc(limit=20)`` would give,
    but formatted only when read.
    """
    try:
        return func(*args, **kwargs)
    except Exception as exc:  # repro: allow[REP002] - the containment seam itself
        trace = TracebackException(
            type(exc), exc, exc.__traceback__, limit=20, lookup_lines=False
        )
        return WorkerError(-1, type(exc).__name__, str(exc), trace, _detached(exc))


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


def _fill_indices(results: List) -> List:
    return [
        replace(r, index=i) if isinstance(r, WorkerError) else r
        for i, r in enumerate(results)
    ]


def _apply_chunk(func: Callable, chunk: Sequence, on_error: str) -> List:
    if on_error == "return":
        return [run_guarded(func, item) for item in chunk]
    return [func(item) for item in chunk]


def _apply_chunk_seeded(
    func: Callable, chunk: Sequence[Tuple[int, Any]], base_seed: int, on_error: str
) -> List:
    out = []
    for index, item in chunk:
        rng = as_rng(seed_sequence_for(base_seed, index))
        if on_error == "return":
            out.append(run_guarded(func, item, rng))
        else:
            out.append(func(item, rng))
    return out


def pmap(
    func: Callable[[Any], Any],
    items: Sequence,
    *,
    max_workers: Optional[int] = None,
    chunks_per_worker: int = 4,
    serial: bool = False,
    on_error: str = "raise",
    common: Any = None,
    common_bytes_limit: Optional[int] = None,
) -> List:
    """Parallel ``[func(x) for x in items]`` preserving order.

    Parameters
    ----------
    func:
        Picklable callable (top-level function or functools.partial).
    items:
        Work items; results come back in the same order.
    max_workers:
        Process count (default: capped available-CPU count).
    chunks_per_worker:
        Over-decomposition factor for load balance on skewed items
        (e.g. the 25× record-count imbalance of Table II).
    serial:
        Run in-process (debugging, or when *items* is tiny).
    on_error:
        ``"raise"`` propagates the first exception (aborting the map);
        ``"return"`` puts a :class:`WorkerError` at the failed item's
        position and keeps going.  Identical semantics serial or
        parallel.
    common:
        Optional shared object shipped to each worker process **once**
        (executor initializer) rather than once per item; workers read
        it back with :func:`get_common`.  Used to share a
        :class:`~repro.trace.store.PartitionStore` across a citywide
        fan-out.  Identical semantics serial or parallel.
    common_bytes_limit:
        Optional ceiling on the **pickled size** of ``common``; a
        larger payload raises ``ValueError`` before any dispatch.  This
        is the zero-copy guard of the sharded backend: a spilled store
        handle stays at metadata scale, so tripping the limit means
        column bytes leaked back into the per-worker pickle.  Checked
        on the serial path too — identical semantics either way.
    """
    _check_on_error(on_error)
    items = list(items)
    if not items:
        return []
    if common is not None and common_bytes_limit is not None:
        shipped = payload_nbytes(common)
        if shipped > common_bytes_limit:
            raise ValueError(
                f"common object pickles to {shipped:,} bytes, over the "
                f"{common_bytes_limit:,}-byte limit — spill the store "
                "to mmap-backed columns before fanning out"
            )
    workers = default_workers(max_workers)
    if serial or workers == 1 or len(items) == 1:
        with _installed_common(common):
            return _fill_indices(_apply_chunk(func, items, on_error))
    chunks = _chunks(items, workers * chunks_per_worker)
    results: List[List] = []
    # The initializer runs for common=None as well: with a fork start
    # method a fresh worker would otherwise inherit whatever slot value
    # the parent had installed, violating get_common()'s contract.
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_set_common, initargs=(common,)
    ) as ex:
        for part in ex.map(
            _apply_chunk, [func] * len(chunks), chunks, [on_error] * len(chunks)
        ):
            results.append(part)
    return _fill_indices([y for part in results for y in part])


def pmap_seeded(
    func: Callable[[Any, np.random.Generator], Any],
    items: Sequence,
    base_seed: int,
    *,
    max_workers: Optional[int] = None,
    chunks_per_worker: int = 4,
    serial: bool = False,
    on_error: str = "raise",
) -> List:
    """Like :func:`pmap` but passes each call an independent RNG.

    ``func(item, rng)`` receives a generator seeded from
    ``(base_seed, item_index)`` — bitwise-identical results whether run
    serially or across any number of processes.
    """
    _check_on_error(on_error)
    items = list(items)
    if not items:
        return []
    indexed = list(enumerate(items))
    workers = default_workers(max_workers)
    if serial or workers == 1 or len(items) == 1:
        with _installed_common(None):
            return _fill_indices(
                _apply_chunk_seeded(func, indexed, base_seed, on_error)
            )
    chunks = _chunks(indexed, workers * chunks_per_worker)
    results: List[List] = []
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_set_common, initargs=(None,)
    ) as ex:
        for part in ex.map(
            _apply_chunk_seeded,
            [func] * len(chunks),
            chunks,
            [base_seed] * len(chunks),
            [on_error] * len(chunks),
        ):
            results.append(part)
    return _fill_indices([y for part in results for y in part])
