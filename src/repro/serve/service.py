"""The multi-tenant front door: many city tenants on one event loop.

``StreamService`` owns a set of named :class:`~repro.serve.tenant.Tenant`
objects, each wrapping its own
:class:`~repro.stream.session.StreamSession` and its own single-writer
task.  Tenants share nothing but the loop: a crashed writer, a full
queue, or a hot reader in one city is invisible to every other city
(``tests/test_serve.py`` pins the containment).

Typical shape::

    async def main() -> None:
        async with StreamService() as service:
            service.add_tenant("shenzhen")
            await service.submit("shenzhen", chunk)
            snap = await service.evaluate("shenzhen", min_version=1)
            print(len(snap.estimates), "lights at t =", snap.at_time)

All timing flows through the injected ``clock`` callable (default
:func:`time.perf_counter`), which is how the deterministic concurrency
tests run the whole service on a virtual clock.

The layer's concurrency contracts each have a runtime test in
``tests/test_serve.py::TestConcurrencyContracts``: kernel work runs off
the loop (``test_kernel_work_runs_off_the_loop``), only the writer task
writes a tenant's session (``test_only_the_writer_task_writes_the_session``),
a cancelled submit releases its light reserve
(``test_cancelled_submit_releases_its_light_reserve``), and parked
readers wake on every publish
(``test_parked_readers_wake_on_every_publish``).  Published snapshots
are frozen, so a write to one raises where it happens (DESIGN.md §9).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Mapping, Optional

from ..core.pipeline import PipelineConfig
from ..matching.partition import LightKey, LightPartition
from ..obs import RunReport, ServiceStats
from ..stream.session import StreamSession
from .errors import DuplicateTenant, UnknownTenant
from .snapshot import Snapshot
from .tenant import Tenant, TenantQuota

__all__ = ["StreamService"]


class StreamService:
    """An asyncio service multiplexing many concurrent city tenants.

    Each tenant's writer re-identifies dirty lights batched, in-process,
    as a bare :class:`StreamSession` does.

    Parameters
    ----------
    config:
        Default pipeline configuration for new tenants (overridable per
        tenant).
    clock:
        Monotonic clock used for every latency sample; inject a virtual
        clock for deterministic tests.
    offload:
        ``True`` (default) runs chunk applications on a dedicated
        single-threaded executor shared by every tenant, so advisory
        reads stay responsive while a tenant re-identifies *and*
        applies serialize fleet-wide (one CPU-bound apply at a time —
        no cross-tenant GIL thrash, writer throughput at bare-session
        parity).  ``False`` applies chunks inline on the loop — fully
        deterministic task scheduling, the posture the virtual-clock
        concurrency tests run in.  Either way snapshots publish on the
        loop thread.
    report:
        Optional :class:`RunReport`; :meth:`close` folds one
        :class:`ServiceStats` per tenant into it.
    """

    def __init__(
        self,
        *,
        config: Optional[PipelineConfig] = None,
        clock: Optional[Callable[[], float]] = None,
        offload: bool = True,
        report: Optional[RunReport] = None,
    ) -> None:
        self.config = config
        self.offload = offload
        self.report = report
        self._clock: Callable[[], float] = (
            time.perf_counter if clock is None else clock
        )
        self._tenants: Dict[str, Tenant] = {}
        self._stats_folded = False
        self._executor: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="serve-apply")
            if offload
            else None
        )

    # ------------------------------------------------------------------
    # Tenant lifecycle
    # ------------------------------------------------------------------
    def add_tenant(
        self,
        name: str,
        *,
        store: Optional[Mapping[LightKey, LightPartition]] = None,
        quota: Optional[TenantQuota] = None,
        monitor: bool = True,
        config: Optional[PipelineConfig] = None,
    ) -> Tenant:
        """Create a tenant and start its writer (needs a running loop)."""
        asyncio.get_running_loop()  # fail fast outside async context
        if name in self._tenants:
            raise DuplicateTenant(name)
        session = StreamSession(
            config=self.config if config is None else config,
            store=store,
            monitor=monitor,
        )
        tenant = Tenant(
            name,
            session=session,
            quota=quota,
            clock=self._clock,
            executor=self._executor,
        )
        self._tenants[name] = tenant
        tenant.start()
        return tenant

    def tenant(self, name: str) -> Tenant:
        """The named tenant, or a typed :class:`UnknownTenant`."""
        try:
            return self._tenants[name]
        except KeyError:
            raise UnknownTenant(name) from None

    @property
    def tenant_names(self) -> List[str]:
        return list(self._tenants)

    # ------------------------------------------------------------------
    # Data plane (thin per-tenant forwards)
    # ------------------------------------------------------------------
    async def submit(
        self,
        name: str,
        chunk: Mapping[LightKey, LightPartition],
        *,
        at_time: Optional[float] = None,
    ) -> None:
        """Enqueue one chunk for *name*'s writer (see :meth:`Tenant.submit`)."""
        await self.tenant(name).submit(chunk, at_time=at_time)

    async def evaluate(
        self,
        name: str,
        *,
        min_version: Optional[int] = None,
        min_at_time: Optional[float] = None,
    ) -> Snapshot:
        """Serve *name*'s last published snapshot (see :meth:`Tenant.evaluate`)."""
        return await self.tenant(name).evaluate(
            min_version=min_version, min_at_time=min_at_time
        )

    def snapshot(self, name: str) -> Snapshot:
        """Lock-free peek at *name*'s last published snapshot."""
        return self.tenant(name).snapshot

    # ------------------------------------------------------------------
    # Stats & shutdown
    # ------------------------------------------------------------------
    def stats(self) -> List[ServiceStats]:
        """One :class:`ServiceStats` per tenant, in creation order."""
        return [tenant.stats() for tenant in self._tenants.values()]

    async def close(self) -> None:
        """Drain and join every tenant, then fold stats into the report.

        Tenants close concurrently; queued chunks are flushed first
        (drain-on-close), and a crashed tenant's record is preserved,
        never raised from here.  Idempotent: the stats fold into the
        report once, however often the service is closed.
        """
        if self._tenants:
            await asyncio.gather(
                *(tenant.close() for tenant in self._tenants.values())
            )
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self.report is not None and not self._stats_folded:
            self._stats_folded = True
            for stats in self.stats():
                self.report.record_service(stats)

    async def __aenter__(self) -> "StreamService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()
