"""One tenant: a bounded ingest queue, a single writer, many readers.

The concurrency protocol, in one place:

* **Writer** — exactly one asyncio task per tenant pops chunks off the
  bounded queue, applies them to the tenant's
  :class:`~repro.stream.session.StreamSession` (append + re-identify
  the dirty lights), builds an immutable
  :class:`~repro.serve.snapshot.Snapshot`, and publishes it with a
  single attribute assignment.  The risky application step routes
  through :func:`repro.parallel.pool.run_guarded` — the sanctioned
  containment seam — so a poisoned chunk kills *this* tenant's writer
  with a typed :class:`~repro.parallel.pool.WorkerError` instead of
  unwinding the event loop out from under every other tenant.

* **Readers** — :meth:`Tenant.evaluate` never touches the session or
  the queue: it reads the last published snapshot, which is why any
  number of concurrent readers cannot block ingest (and why a reader
  can never observe a half-applied chunk).  Readers that need freshness
  (``min_version`` / ``min_at_time``) park on a publish event the
  writer sets after every swap.

* **Backpressure** — producers ``await`` :meth:`Tenant.submit`; with
  the default ``on_full="wait"`` policy a full queue suspends the
  producer until the writer drains (classic backpressure), while
  ``on_full="reject"`` turns the same condition into an immediate typed
  :class:`~repro.serve.errors.IngestQueueFull`.

* **Shutdown** — :meth:`Tenant.close` refuses new chunks, lets the
  writer flush everything already queued (drain-on-close), then joins
  it.  Snapshots stay readable after close.

All latency samples come from the injected ``clock`` callable, so the
deterministic test suite drives the whole protocol on a virtual clock —
no wall-clock sleeps anywhere.
"""

from __future__ import annotations

import asyncio
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Set, Union

from ..core.monitor import PlanChange
from ..matching.partition import LightKey, LightPartition
from ..obs import ServiceStats
from ..parallel.pool import WorkerError, run_guarded
from ..stream.session import StreamSession
from .errors import (
    EvaluateOverload,
    IngestQueueFull,
    LightQuotaExceeded,
    TenantClosed,
    TenantCrashed,
)
from .snapshot import Snapshot

__all__ = ["Tenant", "TenantQuota"]

#: Percentiles exported into :class:`ServiceStats`.
_P50, _P99 = 50.0, 99.0


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant resource limits, each surfaced as a typed rejection.

    Attributes
    ----------
    max_queue_depth:
        Capacity of the bounded ingest queue.  With ``on_full="wait"``
        a producer hitting the cap suspends (backpressure); with
        ``"reject"`` it gets :class:`IngestQueueFull`.
    max_lights:
        Ceiling on distinct lights the tenant may track (``None`` for
        unlimited); a chunk that would cross it is rejected with
        :class:`LightQuotaExceeded` *before* it occupies a queue slot.
    max_inflight_evaluates:
        Ceiling on concurrently running :meth:`Tenant.evaluate` calls
        (``None`` for unlimited); the call over the cap gets
        :class:`EvaluateOverload` instead of queueing behind slower
        readers.
    on_full:
        Full-queue policy: ``"wait"`` (default) or ``"reject"``.
    """

    max_queue_depth: int = 64
    max_lights: Optional[int] = None
    max_inflight_evaluates: Optional[int] = None
    on_full: str = "wait"

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.max_lights is not None and self.max_lights < 1:
            raise ValueError(f"max_lights must be >= 1, got {self.max_lights}")
        if (
            self.max_inflight_evaluates is not None
            and self.max_inflight_evaluates < 1
        ):
            raise ValueError(
                f"max_inflight_evaluates must be >= 1, "
                f"got {self.max_inflight_evaluates}"
            )
        if self.on_full not in ("wait", "reject"):
            raise ValueError(
                f"on_full must be 'wait' or 'reject', got {self.on_full!r}"
            )


@dataclass(frozen=True)
class _QueuedChunk:
    """One enqueued ingest: the chunk plus its enqueue timestamp."""

    chunk: Mapping[LightKey, LightPartition]
    at_time: Optional[float]
    enqueued_at: float


class _Close:
    """Queue sentinel: everything ahead of it is flushed, then the writer exits."""


_CLOSE = _Close()


def _percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile without numpy (tiny lists, exact, no dtype)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, min(len(ordered), math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


class Tenant:
    """One city's serving state; create via ``StreamService.add_tenant``."""

    def __init__(
        self,
        name: str,
        *,
        session: StreamSession,
        quota: Optional[TenantQuota] = None,
        clock: Callable[[], float],
        executor: Optional[ThreadPoolExecutor] = None,
    ) -> None:
        self.name = name
        self.session = session
        self.quota = TenantQuota() if quota is None else quota
        self._clock = clock
        self._executor = executor
        self._queue: "asyncio.Queue[Union[_QueuedChunk, _Close]]" = asyncio.Queue(
            maxsize=self.quota.max_queue_depth
        )
        self._snapshot: Snapshot = Snapshot.initial(name)
        self._publish_event = asyncio.Event()
        self._known_lights: Set[LightKey] = set(session.store)
        self._closing = False
        self._close_queued = False
        self._finished = False
        self._failure: Optional[WorkerError] = None
        self._writer: Optional["asyncio.Task[None]"] = None
        self._inflight = 0
        self._plan_changes: Dict[LightKey, List[PlanChange]] = {}
        # -- stats accumulators ----------------------------------------
        self._high_water = 0
        self._n_records = 0
        self._n_evaluates = 0
        self._n_rejected_ingest = 0
        self._n_rejected_evaluate = 0
        self._n_dropped = 0
        self._ingest_lag: List[float] = []
        self._apply_lat: List[float] = []
        self._publish_lat: List[float] = []
        self._evaluate_lat: List[float] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the writer task (requires a running event loop)."""
        if self._writer is None:
            self._writer = asyncio.get_running_loop().create_task(
                self._run_writer(), name=f"serve-writer:{self.name}"
            )

    async def close(self) -> None:
        """Refuse new chunks, flush everything queued, join the writer.

        Idempotent; safe to call on a crashed tenant (the crash record
        wins — close never masks it).
        """
        first = not self._closing
        self._closing = True
        if first and self._failure is None:
            await self._queue.put(_CLOSE)
            # Set in the step that queued the sentinel: a chunk that
            # lands after this sits behind it, and nothing applies it.
            self._close_queued = True
        if self._writer is not None:
            await self._writer

    @property
    def closed(self) -> bool:
        """True once the writer has flushed its backlog and exited."""
        return self._finished and self._failure is None

    @property
    def failure(self) -> Optional[WorkerError]:
        """The writer's crash record, if it died."""
        return self._failure

    @property
    def snapshot(self) -> Snapshot:
        """The last published snapshot (lock-free read)."""
        return self._snapshot

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    async def submit(
        self,
        chunk: Mapping[LightKey, LightPartition],
        *,
        at_time: Optional[float] = None,
    ) -> None:
        """Enqueue one chunk for the writer.

        Raises :class:`TenantCrashed` / :class:`TenantClosed` when the
        tenant can no longer accept work, :class:`LightQuotaExceeded`
        when the chunk would cross ``max_lights``, and (under
        ``on_full="reject"``) :class:`IngestQueueFull` at capacity.
        Under the default wait policy a full queue suspends the caller
        until the writer frees a slot — the backpressure seam.  A
        producer parked when :meth:`close` begins is refused only if its
        chunk lands behind the close sentinel (:class:`TenantClosed`);
        one that lands ahead of it returns, and drain-on-close applies
        its chunk.  A writer crash refuses every chunk that lands after
        it (:class:`TenantCrashed`).
        """
        self._check_accepting()
        quota = self.quota
        new_lights = set(chunk) - self._known_lights
        if (
            quota.max_lights is not None
            and len(self._known_lights) + len(new_lights) > quota.max_lights
        ):
            self._n_rejected_ingest += 1
            raise LightQuotaExceeded(
                self.name,
                limit=quota.max_lights,
                observed=len(self._known_lights) + len(new_lights),
            )
        # Reserve the lights before any await so concurrent submits see
        # a consistent budget (asyncio interleaves only at awaits).  The
        # reserve must survive every exit path below or a cancellation
        # while parked on a full queue leaks light budget forever, so
        # the rollback lives in a finally keyed on whether the chunk
        # actually landed (test_serve.py's
        # test_cancelled_submit_releases_its_light_reserve pins it).
        self._known_lights |= new_lights
        item = _QueuedChunk(chunk=chunk, at_time=at_time, enqueued_at=self._clock())
        landed = False
        try:
            if quota.on_full == "reject":
                try:
                    self._queue.put_nowait(item)
                except asyncio.QueueFull:
                    self._n_rejected_ingest += 1
                    raise IngestQueueFull(
                        self.name, limit=quota.max_queue_depth
                    ) from None
                landed = True
            else:
                await self._queue.put(item)
                landed = True
                if self._failure is not None or self._close_queued:
                    # Nothing will apply this chunk: the writer died while
                    # we waited, or close() queued its sentinel first.  A
                    # finished writer frees no more slots, so pass this
                    # one on to the next parked producer, refused in turn.
                    if self._finished:
                        self._queue.get_nowait()
                    self._check_accepting()  # raises: crashed or closed
        finally:
            if not landed:
                self._known_lights -= new_lights  # the chunk never landed
        self._high_water = max(self._high_water, self._queue.qsize())

    def _check_accepting(self) -> None:
        if self._failure is not None:
            raise TenantCrashed(self.name, self._failure)
        if self._closing:
            raise TenantClosed(self.name, "closed to new chunks")

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------
    async def evaluate(
        self,
        *,
        min_version: Optional[int] = None,
        min_at_time: Optional[float] = None,
    ) -> Snapshot:
        """Serve the last published snapshot (never blocks ingest).

        With ``min_version`` / ``min_at_time`` the reader parks on the
        publish event until the snapshot is fresh enough — waiting on
        the *writer's* progress, not holding anything the writer needs.
        Raises :class:`EvaluateOverload` over the in-flight quota,
        :class:`TenantCrashed` if the writer died, and
        :class:`TenantClosed` if the tenant shut down before the
        requested freshness became reachable.  A closed tenant still
        serves its final snapshot to unconstrained readers.
        """
        if self._failure is not None:
            raise TenantCrashed(self.name, self._failure)
        quota = self.quota
        if (
            quota.max_inflight_evaluates is not None
            and self._inflight >= quota.max_inflight_evaluates
        ):
            self._n_rejected_evaluate += 1
            raise EvaluateOverload(self.name, limit=quota.max_inflight_evaluates)
        started = self._clock()
        self._inflight += 1
        try:
            # One cooperative yield while holding the slot: overlapping
            # readers genuinely overlap, so the in-flight quota (and its
            # deterministic tests) measure real concurrency.
            await asyncio.sleep(0)
            while not self._fresh_enough(min_version, min_at_time):
                if self._failure is not None:
                    raise TenantCrashed(self.name, self._failure)
                if self._finished:
                    raise TenantClosed(
                        self.name,
                        "closed before the requested snapshot freshness",
                    )
                await self._publish_event.wait()
            snap = self._snapshot
        finally:
            self._inflight -= 1
        self._evaluate_lat.append(self._clock() - started)
        self._n_evaluates += 1
        return snap

    def _fresh_enough(
        self, min_version: Optional[int], min_at_time: Optional[float]
    ) -> bool:
        snap = self._snapshot
        if min_version is not None and snap.version < min_version:
            return False
        if min_at_time is not None and (
            snap.at_time is None or snap.at_time < min_at_time
        ):
            return False
        return True

    # ------------------------------------------------------------------
    # Writer task
    # ------------------------------------------------------------------
    async def _run_writer(self) -> None:
        while True:
            item = await self._queue.get()
            if isinstance(item, _Close):
                break
            # Cooperative point between dequeue and apply: readers
            # scheduled here observe the previous snapshot — there is
            # never a moment where a half-applied chunk is visible.
            await asyncio.sleep(0)
            started = self._clock()
            if self._executor is not None:
                # Identification is sync CPU work; running it on the
                # service's apply executor keeps advisory reads
                # responsive while a tenant re-identifies.  The executor
                # is single-threaded and shared across tenants, so
                # applies serialize fleet-wide: no GIL thrash between
                # cities, and writer throughput stays at bare-session
                # parity instead of degrading with tenant count.
                outcome = await asyncio.get_running_loop().run_in_executor(
                    self._executor, run_guarded, self._apply, item
                )
            else:
                # Inline mode: fully deterministic loop scheduling, the
                # posture the virtual-clock concurrency tests run in.
                # Deliberately blocks the loop — sanctioned because the
                # virtual clock only advances between tasks anyway.
                outcome = run_guarded(self._apply, item)
            if isinstance(outcome, WorkerError):
                self._crash(outcome)
                return
            # Publish on the loop thread: one atomic attribute swap,
            # then wake freshness-waiting readers.
            self._snapshot = outcome
            self._wake()
            finished = self._clock()
            self._publish_lat.append(finished - started)
            self._ingest_lag.append(finished - item.enqueued_at)
        self._finished = True
        self._wake()  # release freshness-waiting readers so they see `closed`

    def _apply(self, item: _QueuedChunk) -> Snapshot:
        """Apply one chunk to the session; return the snapshot to publish.

        Runs inside :func:`run_guarded` (possibly on an executor
        thread): any exception here — a structurally broken partition
        blowing up the store append, say — becomes this tenant's crash
        record, not a loop-wide failure.  Only the writer calls this,
        one chunk at a time, so the session and the accumulators below
        are single-writer even in offload mode.

        Timed here, around the compute alone, so ``ingest_wall_s``
        compares apples-to-apples with a bare single-tenant session —
        the loop-side ``publish`` sample additionally counts executor
        queueing behind other tenants' applies.
        """
        started = self._clock()
        update = self.session.ingest(dict(item.chunk), at_time=item.at_time)
        for key, changes in update.plan_changes.items():
            self._plan_changes.setdefault(key, []).extend(changes)
        self._n_records += update.n_records
        self._apply_lat.append(self._clock() - started)
        prev = self._snapshot
        return Snapshot.from_results(
            self.name,
            version=prev.version + 1,
            at_time=update.at_time if update.at_time is not None else prev.at_time,
            n_records=self._n_records,
            results=self.session.results_view(),
            plan_changes=self._plan_changes,
        )

    def _crash(self, failure: WorkerError) -> None:
        """Contain a writer death: record it, drop the backlog, wake everyone.

        Draining the queue frees any producer suspended in ``put`` (it
        then re-checks and raises :class:`TenantCrashed`); waking the
        publish event does the same for freshness-waiting readers.
        """
        self._failure = failure
        self._finished = True
        while True:
            try:
                leftover = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if not isinstance(leftover, _Close):
                self._n_dropped += 1
        self._wake()

    def _wake(self) -> None:
        event = self._publish_event
        self._publish_event = asyncio.Event()
        event.set()

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """The tenant's :class:`~repro.obs.ServiceStats` so far."""
        return ServiceStats(
            tenant=self.name,
            n_chunks=self._snapshot.version,
            n_records=self._n_records,
            n_evaluates=self._n_evaluates,
            n_rejected_ingest=self._n_rejected_ingest,
            n_rejected_evaluate=self._n_rejected_evaluate,
            n_dropped_chunks=self._n_dropped,
            queue_high_water=self._high_water,
            ingest_wall_s=sum(self._apply_lat),
            ingest_lag_p50_s=_percentile(self._ingest_lag, _P50),
            ingest_lag_p99_s=_percentile(self._ingest_lag, _P99),
            publish_p50_s=_percentile(self._publish_lat, _P50),
            publish_p99_s=_percentile(self._publish_lat, _P99),
            evaluate_p50_s=_percentile(self._evaluate_lat, _P50),
            evaluate_p99_s=_percentile(self._evaluate_lat, _P99),
        )
