"""The multi-tenant serving layer (``repro.serve``) — deterministic suite.

Every test drives the full asyncio protocol on a **virtual clock**
(fixed tick per reading, no wall-clock sleeps), and all but the
loop-offload contract run with ``offload=False`` (applies run inline on
the loop), so task interleavings are decided by the event loop's
deterministic FIFO scheduling alone: the suite passes bit-identically
on every run.  Covered here: backpressure (both full-queue policies),
the typed quota rejections, per-tenant writer crash containment,
graceful shutdown with drain-on-close, freshness waits,
``ServiceStats`` serialization and its ``RunReport`` v1-schema guard,
end-to-end determinism, and the layer's four concurrency contracts
(``TestConcurrencyContracts``).  Every wait that can park is bounded
by ``_bounded`` and every publish event refuses a wait once set, so a
lost wakeup fails in seconds and names its test.  The
snapshot-isolation property oracle lives in
``tests/test_serve_isolation.py``.
"""

import asyncio
import dataclasses
import json

import pytest

from repro.core import PlanChange
from repro.obs import RunReport, ServiceStats
from repro.scenario import synthetic_lights, synthetic_partitions
from repro.serve import (
    DuplicateTenant,
    EvaluateOverload,
    IngestQueueFull,
    LightQuotaExceeded,
    LoadSpec,
    Snapshot,
    StreamService,
    Tenant,
    TenantClosed,
    TenantCrashed,
    TenantQuota,
    UnknownTenant,
)
from repro.stream import StreamSession, split_by_time

HORIZON = 1200.0

#: Seconds any one parked wait in this file may take.  A healthy wait
#: ends within one apply (milliseconds); a lost wakeup fails here
#: instead of hanging until the conftest watchdog.
WAIT_S = 5.0


class VirtualClock:
    """Monotonic fake clock: each reading advances a fixed tick.

    Strictly increasing (so every latency sample is positive) and a
    pure function of the call count, which is what makes the whole
    suite's timing telemetry reproducible bit-for-bit.
    """

    def __init__(self, tick: float = 1e-3) -> None:
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


@pytest.fixture(scope="module")
def serve_city():
    """One tiny synthetic intersection (2 lights), module-shared, read-only."""
    lights = synthetic_lights(1, seed=3)
    return synthetic_partitions(lights, 0.0, HORIZON, seed=4)


@pytest.fixture(scope="module")
def serve_chunks(serve_city):
    """The tiny city split into three equal time slices."""
    return split_by_time(
        serve_city, [0.0, 400.0, 800.0, HORIZON + 1e-9]
    )


def _service(**kwargs) -> StreamService:
    """A service on a virtual clock; applies run inline unless ``offload=True``."""
    kwargs.setdefault("offload", False)
    return StreamService(clock=VirtualClock(), **kwargs)


def _tenant(**kwargs) -> Tenant:
    """A bare unstarted tenant (lets tests freeze the writer)."""
    return Tenant(
        kwargs.pop("name", "solo"),
        session=StreamSession(monitor=False),
        clock=kwargs.pop("clock", VirtualClock()),
        **kwargs,
    )


async def _bounded(awaitable):
    """Await a task or coroutine that may park, failing after ``WAIT_S``."""
    return await asyncio.wait_for(awaitable, WAIT_S)


class _StrictEvent(asyncio.Event):
    """An ``asyncio.Event`` whose ``wait`` refuses an already-set event.

    ``Event.wait`` returns without yielding once the event is set, so a
    reader re-waiting on a publish event that was set in place would
    spin the loop forever, out of ``_bounded``'s reach; here that lost
    wakeup fails at once.
    """

    async def wait(self):
        assert not self.is_set(), "reader re-waited on a set publish event"
        return await super().wait()


@pytest.fixture(autouse=True)
def _strict_publish_events(monkeypatch):
    """Every tenant in this file builds its publish events as ``_StrictEvent``."""
    monkeypatch.setattr(asyncio, "Event", _StrictEvent)


def _poison(serve_city):
    """A chunk whose application blows up inside the store append."""
    key = sorted(serve_city)[0]
    return {key: None}


class TestLifecycle:
    def test_add_tenant_requires_running_loop(self):
        with pytest.raises(RuntimeError):
            _service().add_tenant("x")

    def test_duplicate_tenant_rejected(self):
        async def main():
            async with _service() as service:
                service.add_tenant("a")
                with pytest.raises(DuplicateTenant):
                    service.add_tenant("a")

        asyncio.run(main())

    def test_unknown_tenant_rejected(self):
        async def main():
            async with _service() as service:
                with pytest.raises(UnknownTenant):
                    await service.evaluate("ghost")

        asyncio.run(main())

    def test_submit_evaluate_roundtrip(self, serve_chunks):
        async def main():
            async with _service() as service:
                service.add_tenant("a")
                await service.submit("a", serve_chunks[0])
                snap = await _bounded(service.evaluate("a", min_version=1))
                assert snap.version == 1
                assert snap.tenant == "a"
                assert snap.n_records == sum(
                    len(p.trace) for p in serve_chunks[0].values()
                )
                assert snap.at_time is not None
                assert snap.integrity_errors() == []
                return snap

        snap = asyncio.run(main())
        # published snapshots are immutable: no field can be rebound ...
        for f in dataclasses.fields(snap):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(snap, f.name, getattr(snap, f.name))
        # ... no map takes an item write ...
        some_key = sorted(snap.eval_times)[0]
        for name in ("estimates", "failures", "eval_times", "data_versions", "plan_changes"):
            with pytest.raises(TypeError):
                getattr(snap, name)[some_key] = None
        # ... and plan-change lists are copied into tuples at build time,
        # so the writer extending its own list later changes nothing
        assert all(isinstance(v, tuple) for v in snap.plan_changes.values())
        first = PlanChange(at_time=100.0, old_cycle_s=90.0, new_cycle_s=100.0)
        changes = [first]
        built = Snapshot.from_results(
            "a", version=1, at_time=100.0, n_records=0, results={},
            plan_changes={some_key: changes},
        )
        changes.append(PlanChange(at_time=200.0, old_cycle_s=100.0, new_cycle_s=110.0))
        assert built.plan_changes[some_key] == (first,)

    def test_initial_snapshot_is_version_zero(self):
        snap = Snapshot.initial("a")
        assert snap.version == 0
        assert snap.at_time is None
        assert not snap.estimates and not snap.failures
        assert snap.integrity_errors() == []

    def test_close_flushes_queued_chunks(self, serve_chunks):
        async def main():
            async with _service() as service:
                tenant = service.add_tenant("a")
                for chunk in serve_chunks:
                    await service.submit("a", chunk)
            # __aexit__ closed the service: everything queued was applied
            assert tenant.closed
            assert tenant.snapshot.version == len(serve_chunks)
            assert tenant.stats().n_dropped_chunks == 0
            # the final snapshot stays readable after close ...
            snap = await tenant.evaluate()
            assert snap.version == len(serve_chunks)
            # ... but unreachable freshness is a typed refusal, not a hang
            with pytest.raises(TenantClosed):
                await _bounded(tenant.evaluate(min_version=len(serve_chunks) + 1))
            with pytest.raises(TenantClosed):
                await tenant.submit(serve_chunks[0])

        asyncio.run(main())

    def test_evaluate_min_version_waits_for_writer(self, serve_chunks):
        async def main():
            async with _service() as service:
                service.add_tenant("a")
                waiter = asyncio.create_task(
                    service.evaluate("a", min_version=2)
                )
                await asyncio.sleep(0)  # let the reader park on the event
                assert not waiter.done()
                await service.submit("a", serve_chunks[0])
                await service.submit("a", serve_chunks[1])
                snap = await _bounded(waiter)
                assert snap.version >= 2

        asyncio.run(main())

    def test_evaluate_min_at_time_waits_for_writer(self, serve_chunks):
        async def main():
            async with _service() as service:
                service.add_tenant("a")
                waiter = asyncio.create_task(
                    service.evaluate("a", min_at_time=500.0)
                )
                await asyncio.sleep(0)
                assert not waiter.done()
                await service.submit("a", serve_chunks[0])  # t < 500
                await service.submit("a", serve_chunks[1])  # t >= 500
                snap = await _bounded(waiter)
                assert snap.at_time is not None and snap.at_time >= 500.0

        asyncio.run(main())


class TestBackpressure:
    def test_wait_policy_suspends_producer_until_drain(self, serve_chunks):
        async def main():
            tenant = _tenant(quota=TenantQuota(max_queue_depth=1))
            await tenant.submit(serve_chunks[0])  # fills the only slot
            blocked = asyncio.create_task(tenant.submit(serve_chunks[1]))
            for _ in range(3):
                await asyncio.sleep(0)
            assert not blocked.done(), "full queue must suspend the producer"
            tenant.start()  # the writer drains a slot; the producer resumes
            await _bounded(blocked)
            await tenant.close()
            assert tenant.snapshot.version == 2

        asyncio.run(main())

    def test_producer_parked_at_close_is_delivered(self, serve_chunks):
        async def main():
            tenant = _tenant(quota=TenantQuota(max_queue_depth=1))
            await tenant.submit(serve_chunks[0])  # fills the only slot
            parked = asyncio.create_task(tenant.submit(serve_chunks[1]))
            await asyncio.sleep(0)
            assert not parked.done()
            closing = asyncio.create_task(tenant.close())
            tenant.start()
            # the parked chunk lands ahead of the close sentinel and
            # drain-on-close applies it, so its producer must not be
            # told the tenant refused it (a retry would ingest it twice)
            await _bounded(parked)
            await _bounded(closing)
            assert tenant.snapshot.version == 2
            assert tenant.snapshot.n_records == sum(
                len(p.trace) for chunk in serve_chunks[:2] for p in chunk.values()
            )

        asyncio.run(main())

    @pytest.mark.parametrize("n_parked", [1, 2])
    def test_producers_landing_behind_close_are_refused(self, serve_chunks, n_parked):
        async def main():
            tenant = _tenant(quota=TenantQuota(max_queue_depth=1))
            await tenant.submit(serve_chunks[0])  # fills the only slot
            parked = [
                asyncio.create_task(tenant.submit(chunk))
                for chunk in serve_chunks[1 : 1 + n_parked]
            ]
            await asyncio.sleep(0)
            tenant.start()
            closing = asyncio.create_task(tenant.close())
            # the writer's get wakes the first producer, but close() runs
            # first and queues its sentinel in the freed slot, so every
            # parked chunk lands behind it, where nothing applies it.
            # Each producer must be refused (a silent return would lose
            # its chunk), and none may stay parked: the exited writer
            # frees no slot, so each refused producer passes its own on
            done = await _bounded(asyncio.gather(*parked, return_exceptions=True))
            await _bounded(closing)
            assert all(isinstance(r, TenantClosed) for r in done), done
            assert tenant.snapshot.version == 1

        asyncio.run(main())

    def test_reject_policy_raises_typed_queue_full(self, serve_chunks):
        async def main():
            tenant = _tenant(
                quota=TenantQuota(max_queue_depth=1, on_full="reject")
            )
            await tenant.submit(serve_chunks[0])
            with pytest.raises(IngestQueueFull) as err:
                await tenant.submit(serve_chunks[1])
            assert err.value.tenant == "solo"
            assert err.value.limit == 1
            tenant.start()
            await tenant.close()
            stats = tenant.stats()
            assert stats.n_rejected_ingest == 1
            assert stats.n_chunks == 1  # the rejected chunk never landed

        asyncio.run(main())

    def test_high_water_is_bounded_by_depth(self, serve_chunks):
        async def main():
            tenant = _tenant(quota=TenantQuota(max_queue_depth=2))
            await tenant.submit(serve_chunks[0])
            await tenant.submit(serve_chunks[1])
            tenant.start()
            await tenant.close()
            assert tenant.stats().queue_high_water == 2

        asyncio.run(main())


class TestQuotas:
    def test_light_quota_rejects_before_queueing(self, serve_chunks):
        first = serve_chunks[0]
        keys = sorted(first)
        async def main():
            tenant = _tenant(quota=TenantQuota(max_lights=1))
            with pytest.raises(LightQuotaExceeded) as err:
                await tenant.submit(first)  # 2 lights > budget of 1
            assert err.value.limit == 1
            assert err.value.observed == len(keys)
            # the failed reservation rolled back: a within-budget chunk
            # is still accepted afterwards
            await tenant.submit({keys[0]: first[keys[0]]})
            tenant.start()
            await tenant.close()
            stats = tenant.stats()
            assert stats.n_rejected_ingest == 1
            assert stats.n_chunks == 1

        asyncio.run(main())

    def test_evaluate_overload_rejects_over_inflight_cap(self, serve_chunks):
        async def main():
            async with _service() as service:
                service.add_tenant(
                    "a", quota=TenantQuota(max_inflight_evaluates=1)
                )
                parked = asyncio.create_task(
                    service.evaluate("a", min_version=1)
                )
                await asyncio.sleep(0)  # reader holds the only slot
                await asyncio.sleep(0)
                with pytest.raises(EvaluateOverload) as err:
                    await service.evaluate("a")
                assert err.value.limit == 1
                await service.submit("a", serve_chunks[0])
                snap = await _bounded(parked)  # the parked reader completes normally
                assert snap.version == 1
                assert service.tenant("a").stats().n_rejected_evaluate == 1

        asyncio.run(main())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue_depth": 0},
            {"max_lights": 0},
            {"max_inflight_evaluates": 0},
            {"on_full": "drop"},
        ],
    )
    def test_quota_validation(self, kwargs):
        with pytest.raises(ValueError):
            TenantQuota(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"n_tenants": 0}, {"n_chunks": 0}, {"evaluates_per_chunk": 0},
         {"intersections_per_tenant": 0}, {"queue_depth": 0},
         {"horizon_s": 0.0}, {"horizon_s": float("inf")}, {"horizon_s": float("nan")}],
    )
    def test_load_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            LoadSpec(**kwargs)


class TestCrashContainment:
    def test_poison_chunk_crashes_only_its_tenant(self, serve_city, serve_chunks):
        async def main():
            async with _service() as service:
                service.add_tenant("sick")
                service.add_tenant("healthy")
                await service.submit("sick", _poison(serve_city))
                await service.submit("healthy", serve_chunks[0])
                with pytest.raises(TenantCrashed) as err:
                    await _bounded(service.evaluate("sick", min_version=1))
                assert err.value.failure.error_type == "AttributeError"
                with pytest.raises(TenantCrashed):
                    await service.submit("sick", serve_chunks[0])
                # the neighbour never noticed
                snap = await _bounded(service.evaluate("healthy", min_version=1))
                assert snap.version == 1
                assert service.tenant("healthy").failure is None
            # service close survives the crashed tenant (record preserved)
            assert service.tenant("sick").failure is not None
            assert not service.tenant("sick").closed

        asyncio.run(main())

    def test_crash_drops_backlog_and_wakes_everyone(self, serve_city, serve_chunks):
        async def main():
            tenant = _tenant(quota=TenantQuota(max_queue_depth=1))
            await tenant.submit(_poison(serve_city))
            blocked = asyncio.create_task(tenant.submit(serve_chunks[0]))
            waiting = asyncio.create_task(tenant.evaluate(min_version=1))
            await asyncio.sleep(0)
            tenant.start()
            # the freshness-waiting reader is released with the typed error
            with pytest.raises(TenantCrashed):
                await _bounded(waiting)
            # the blocked producer either landed before the crash (its
            # chunk is then dropped from the backlog) or observed it
            try:
                await _bounded(blocked)
            except TenantCrashed:
                pass
            await tenant.close()
            assert tenant.failure is not None
            assert tenant.stats().n_dropped_chunks == 1
            assert tenant.snapshot.version == 0  # nothing was published

        asyncio.run(main())

    def test_crash_releases_every_parked_producer(self, serve_city, serve_chunks):
        async def main():
            tenant = _tenant(quota=TenantQuota(max_queue_depth=1))
            await tenant.submit(_poison(serve_city))
            parked = [asyncio.create_task(tenant.submit(c)) for c in serve_chunks]
            await asyncio.sleep(0)
            tenant.start()
            # the crash's drain frees one slot per queued chunk; each
            # producer refused after it passes its slot on, so none
            # stays parked
            done = await _bounded(asyncio.gather(*parked, return_exceptions=True))
            refused = [r for r in done if r is not None]
            assert all(isinstance(r, TenantCrashed) for r in refused)
            # every chunk whose submit returned was dropped by the drain
            assert tenant.stats().n_dropped_chunks == len(done) - len(refused)
            await tenant.close()
            assert tenant.snapshot.version == 0

        asyncio.run(main())


class TestServiceStats:
    def _stats(self) -> ServiceStats:
        return ServiceStats(
            tenant="a", n_chunks=3, n_records=120, n_evaluates=9,
            n_rejected_ingest=1, n_rejected_evaluate=2, n_dropped_chunks=0,
            queue_high_water=2, ingest_wall_s=0.5,
            ingest_lag_p50_s=0.01, ingest_lag_p99_s=0.02,
            publish_p50_s=0.003, publish_p99_s=0.004,
            evaluate_p50_s=0.001, evaluate_p99_s=0.002,
        )

    def test_round_trip_is_exact(self):
        stats = self._stats()
        clone = ServiceStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert clone == stats

    def test_report_round_trip(self):
        report = RunReport()
        report.record_service(self._stats())
        clone = RunReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert clone.services == report.services

    def test_report_without_services_keeps_v1_shape(self):
        assert "services" not in RunReport().to_dict()

    def test_service_folds_stats_into_report(self, serve_chunks):
        async def main():
            report = RunReport()
            async with _service(report=report) as service:
                service.add_tenant("a")
                await service.submit("a", serve_chunks[0])
                await _bounded(service.evaluate("a", min_version=1))
            assert [s.tenant for s in report.services] == ["a"]
            stats = report.services[0]
            assert stats.n_chunks == 1
            assert stats.n_evaluates == 1
            assert stats.ingest_wall_s > 0.0

        asyncio.run(main())

    def test_repeated_close_folds_stats_once(self):
        async def main():
            report = RunReport()
            async with _service(report=report) as service:
                service.add_tenant("a")
                await service.close()
            await service.close()
            assert [s.tenant for s in report.services] == ["a"]

        asyncio.run(main())


class TestDeterminism:
    def test_two_runs_are_bit_identical(self, serve_chunks):
        async def run_once():
            async with _service() as service:
                service.add_tenant("a")
                service.add_tenant("b")
                coros = []
                for name in ("a", "b"):
                    async def produce(name=name):
                        for chunk in serve_chunks:
                            await service.submit(name, chunk)

                    async def consume(name=name):
                        for version in range(1, len(serve_chunks) + 1):
                            await service.evaluate(name, min_version=version)

                    coros.append(produce())
                    coros.append(consume())
                # one bound over the whole schedule keeps its task steps
                await _bounded(asyncio.gather(*coros))
                snaps = {n: service.snapshot(n) for n in ("a", "b")}
                return snaps, [s.to_dict() for s in service.stats()]

        snaps1, stats1 = asyncio.run(run_once())
        snaps2, stats2 = asyncio.run(run_once())
        # virtual clock + inline applies: even the latency telemetry is
        # reproducible, not just the estimates
        assert stats1 == stats2
        for name in ("a", "b"):
            a, b = snaps1[name], snaps2[name]
            assert a.version == b.version
            assert sorted(a.estimates) == sorted(b.estimates)
            for key in a.estimates:
                ea, eb = a.estimates[key], b.estimates[key]
                assert (ea.cycle_s, ea.red_s, ea.green_s) == (
                    eb.cycle_s, eb.red_s, eb.green_s
                )


# ----------------------------------------------------------------------
# The concurrency contracts, one runtime test each
# ----------------------------------------------------------------------


def _guard_session(monkeypatch, check):
    """Run ``check(method)`` ahead of every session write; count calls per method.

    ``StreamSession.ingest`` and ``StreamSession.evaluate`` are the two
    entry points that write a session's state and run the kernels.
    """
    calls = {"ingest": 0, "evaluate": 0}

    def guard(method):
        original = getattr(StreamSession, method)

        def guarded(session, *args, **kwargs):
            check(method)
            calls[method] += 1
            return original(session, *args, **kwargs)

        return guarded

    for method in calls:
        monkeypatch.setattr(StreamSession, method, guard(method))
    return calls


class TestConcurrencyContracts:
    def test_cancelled_submit_releases_its_light_reserve(self):
        city = synthetic_partitions(synthetic_lights(2, seed=3), 0.0, 400.0, seed=4)
        k0, k1, k2 = ({key: city[key]} for key in sorted(city)[:3])

        async def main():
            tenant = _tenant(quota=TenantQuota(max_queue_depth=1, max_lights=2))
            await tenant.submit(k0)  # fills the only slot
            parked = asyncio.create_task(tenant.submit(k1))
            await asyncio.sleep(0)  # k1 reserves its light, then parks
            assert not parked.done()
            parked.cancel()
            with pytest.raises(asyncio.CancelledError):
                await parked
            tenant.start()
            # the cancelled submit gave its light back, so k2 still fits
            await _bounded(tenant.submit(k2))
            await _bounded(tenant.close())
            assert tenant.snapshot.version == 2

        asyncio.run(main())

    def test_only_the_writer_task_writes_the_session(self, serve_chunks, monkeypatch):
        def on_the_writer_task(method):
            name = asyncio.current_task().get_name()
            assert name == "serve-writer:a", f"StreamSession.{method} called from task {name!r}"

        calls = _guard_session(monkeypatch, on_the_writer_task)

        async def main():
            async with _service() as service:
                service.add_tenant("a")
                by_time = asyncio.create_task(service.evaluate("a", min_at_time=500.0))
                for version, chunk in enumerate(serve_chunks, start=1):
                    await service.submit("a", chunk)
                    await service.evaluate("a")
                    snap = await _bounded(service.evaluate("a", min_version=version))
                    assert snap.version == version
                snap = await _bounded(by_time)
                assert snap.at_time is not None and snap.at_time >= 500.0

        asyncio.run(main())
        assert calls == {"ingest": len(serve_chunks), "evaluate": 0}

    def test_kernel_work_runs_off_the_loop(self, serve_chunks, monkeypatch):
        def off_the_loop(method):
            try:
                asyncio.get_running_loop()
            except RuntimeError:
                return
            raise AssertionError(f"StreamSession.{method} ran on the event loop")

        calls = _guard_session(monkeypatch, off_the_loop)

        async def main():
            # offload=True is StreamService's default
            async with _service(offload=True) as service:
                service.add_tenant("a")
                for chunk in serve_chunks:
                    await service.submit("a", chunk)
                snap = await _bounded(
                    service.evaluate("a", min_version=len(serve_chunks))
                )
                assert snap.version == len(serve_chunks)

        asyncio.run(main())
        assert calls == {"ingest": len(serve_chunks), "evaluate": 0}

    def test_parked_readers_wake_on_every_publish(self, serve_chunks):
        # an in-place set fails in _StrictEvent, a dropped set in _bounded
        async def main():
            async with _service() as service:
                service.add_tenant("a")
                await service.submit("a", serve_chunks[0])
                await _bounded(service.evaluate("a", min_version=1))
                # the writer is idle at version 1: park one reader per
                # coming publish
                readers = [
                    asyncio.create_task(service.evaluate("a", min_version=v))
                    for v in (2, 3)
                ]
                for _ in range(2):
                    await asyncio.sleep(0)  # both park on version 1's event
                await service.submit("a", serve_chunks[1])
                await service.submit("a", serve_chunks[2])
                snaps = await _bounded(asyncio.gather(*readers))
                assert snaps[0].version >= 2 and snaps[1].version == 3

        asyncio.run(main())
