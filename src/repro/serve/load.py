"""Latency-SLO load generation for the multi-tenant serving layer.

:func:`run_load` replays N synthetic city tenants through one
:class:`~repro.serve.service.StreamService`: per tenant, a producer
coroutine streams time-sliced chunks through the bounded ingest queue
while a consumer coroutine fires advisory queries that pace themselves
on snapshot freshness (``min_version``) — thousands of interleaved
ingests and evaluates on one event loop.  The harness measures
end-to-end reader latency around every query and audits, on every
response:

* **stale reads** — a consumer observing a snapshot version smaller
  than one it already saw (must never happen: publishes are atomic and
  monotonic);
* **torn snapshots** — structural integrity violations
  (:meth:`Snapshot.integrity_errors`), i.e. a mixed-publish map;
* **final parity** — after shutdown, every tenant's published estimate
  is re-derived by a fresh batched run over the same rows at the
  snapshot's recorded per-light eval time and compared bit-for-bit.

It also times a *bare* single-tenant :class:`StreamSession` replaying
identical chunks, so the service's writer-side overhead is a measured
ratio rather than a claim (the SLO bench bounds it at +10 %).

``benchmarks/bench_serve_slo.py`` asserts the SLOs; ``repro
serve-bench`` prints the same numbers from the command line.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from .._util import check_positive
from ..core.pipeline import PipelineConfig
from ..core.signal_types import ScheduleEstimate
from ..matching.partition import LightKey, LightPartition
from ..obs import RunReport, ServiceStats
from ..scenario.synthetic import synthetic_lights, synthetic_partitions
from ..stream.chunking import split_by_time
from ..stream.session import StreamSession
from ..trace.store import PartitionStore
from .service import StreamService
from .snapshot import Snapshot
from .tenant import TenantQuota, _percentile

__all__ = ["LoadResult", "LoadSpec", "run_load", "verify_snapshot_parity"]


@dataclass(frozen=True)
class LoadSpec:
    """Knobs of one load run.

    ``intersections_per_tenant`` intersections yield twice as many
    lights (NS + EW).  Each tenant replays ``n_chunks`` equal time
    slices of an ``horizon_s``-second synthetic trace; its consumer
    issues ``evaluates_per_chunk`` advisory queries per published
    version.
    """

    n_tenants: int = 8
    intersections_per_tenant: int = 4
    n_chunks: int = 24
    horizon_s: float = 5400.0
    evaluates_per_chunk: int = 6
    queue_depth: int = 8
    seed: int = 7

    def __post_init__(self) -> None:
        for name in ("n_tenants", "intersections_per_tenant", "n_chunks",
                     "evaluates_per_chunk", "queue_depth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        check_positive("horizon_s", self.horizon_s)


@dataclass(frozen=True)
class LoadResult:
    """What one :func:`run_load` measured."""

    n_tenants: int
    n_ingests: int
    n_evaluates: int
    evaluate_p50_s: float
    evaluate_p99_s: float
    service_ingest_s: float
    baseline_ingest_s: float
    stale_violations: int
    torn_violations: int
    parity_mismatches: int
    tenant_stats: Tuple[ServiceStats, ...]

    @property
    def ingest_overhead(self) -> float:
        """Writer-side cost over the bare session, as a ratio (1.0 = parity)."""
        if self.baseline_ingest_s <= 0.0:
            return 1.0
        return self.service_ingest_s / self.baseline_ingest_s

    @property
    def isolation_violations(self) -> int:
        """Total snapshot-isolation violations (the bench asserts 0)."""
        return self.stale_violations + self.torn_violations + self.parity_mismatches

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_tenants": self.n_tenants,
            "n_ingests": self.n_ingests,
            "n_evaluates": self.n_evaluates,
            "evaluate_p50_s": self.evaluate_p50_s,
            "evaluate_p99_s": self.evaluate_p99_s,
            "service_ingest_s": self.service_ingest_s,
            "baseline_ingest_s": self.baseline_ingest_s,
            "ingest_overhead": self.ingest_overhead,
            "stale_violations": self.stale_violations,
            "torn_violations": self.torn_violations,
            "parity_mismatches": self.parity_mismatches,
            "tenants": [s.to_dict() for s in self.tenant_stats],
        }

    def summary(self) -> str:
        lines = [
            f"tenants: {self.n_tenants}  ingests: {self.n_ingests}  "
            f"evaluates: {self.n_evaluates}",
            f"evaluate latency: p50 {1e3 * self.evaluate_p50_s:.3f} ms   "
            f"p99 {1e3 * self.evaluate_p99_s:.3f} ms",
            f"writer ingest: {self.service_ingest_s:.2f} s vs bare session "
            f"{self.baseline_ingest_s:.2f} s  "
            f"({100.0 * (self.ingest_overhead - 1.0):+.1f}% overhead)",
            f"isolation: {self.stale_violations} stale, "
            f"{self.torn_violations} torn, "
            f"{self.parity_mismatches} parity mismatches",
        ]
        return "\n".join(lines)


def _tenant_name(index: int) -> str:
    return f"city-{index:02d}"


def _tenant_chunks(
    spec: LoadSpec, index: int
) -> Tuple[Dict[LightKey, LightPartition], List[Dict[LightKey, LightPartition]]]:
    """One tenant's full synthetic city and its time-sliced replay chunks."""
    seed = spec.seed + 1000 * index
    lights = synthetic_lights(spec.intersections_per_tenant, seed=seed)
    partitions = synthetic_partitions(lights, 0.0, spec.horizon_s, seed=seed + 1)
    step = spec.horizon_s / spec.n_chunks
    edges = [i * step for i in range(spec.n_chunks)] + [spec.horizon_s + 1e-9]
    return partitions, split_by_time(partitions, edges)


def _est_tuple(est: ScheduleEstimate) -> Tuple[float, ...]:
    """The bit-for-bit comparison key used across the parity suites."""
    return (
        est.cycle_s,
        est.red_s,
        est.green_s,
        est.schedule.offset_s,
        est.change.red_to_green_s,
        est.change.green_to_red_s,
    )


def verify_snapshot_parity(
    snapshot: Snapshot,
    partitions: Mapping[LightKey, LightPartition],
    *,
    config: Optional[PipelineConfig] = None,
) -> List[str]:
    """Re-derive every published estimate from scratch; list mismatches.

    For each resolved light the snapshot records the eval time its
    entry was computed at; a fresh batched run over the full rows at
    that time must reproduce the estimate bit-for-bit (grouping lights
    by eval time keeps this to a few batched calls).  Any difference —
    estimate bits, failure identity, or a light resolved on one side
    only — is a snapshot-isolation violation.
    """
    from ..core.batch import identify_batch

    mismatches: List[str] = []
    store = PartitionStore.from_partitions(partitions)
    by_time: Dict[float, List[LightKey]] = {}
    for key in sorted(snapshot.eval_times):
        by_time.setdefault(snapshot.eval_times[key], []).append(key)
    for eval_time in sorted(by_time):
        keys = by_time[eval_time]
        ref_est, ref_fail, _ = identify_batch(
            store, eval_time, config=config, keys=keys
        )
        for key in keys:
            est, ref = snapshot.estimates.get(key), ref_est.get(key)
            if (est is None) != (ref is None):
                mismatches.append(f"{key}@{eval_time}: estimate presence differs")
            elif est is not None and ref is not None and (
                _est_tuple(est) != _est_tuple(ref)
            ):
                mismatches.append(f"{key}@{eval_time}: estimate bits differ")
            fail, rfail = snapshot.failures.get(key), ref_fail.get(key)
            if (fail is None) != (rfail is None):
                mismatches.append(f"{key}@{eval_time}: failure presence differs")
            elif fail is not None and rfail is not None and (
                (fail.stage, fail.error_type, fail.message)
                != (rfail.stage, rfail.error_type, rfail.message)
            ):
                mismatches.append(f"{key}@{eval_time}: failure identity differs")
    return mismatches


async def _producer(
    service: StreamService,
    name: str,
    chunks: List[Dict[LightKey, LightPartition]],
) -> None:
    for chunk in chunks:
        await service.submit(name, chunk)


async def _consumer(
    service: StreamService,
    name: str,
    spec: LoadSpec,
    clock: Callable[[], float],
    latencies: List[float],
    violations: Dict[str, int],
) -> None:
    last_version = -1

    def audit(snap: Snapshot) -> None:
        nonlocal last_version
        if snap.version < last_version:
            violations["stale"] += 1
        last_version = max(last_version, snap.version)
        if snap.integrity_errors():
            violations["torn"] += 1

    for version in range(1, spec.n_chunks + 1):
        # Pace on the writer's progress: this wait measures freshness
        # (ingest lag), so it is audited but not SLO-timed.
        audit(await service.evaluate(name, min_version=version))
        # The advisory-query workload the SLO binds: unconstrained
        # reads of the published snapshot, timed end to end.
        for _ in range(spec.evaluates_per_chunk):
            started = clock()
            snap = await service.evaluate(name)
            latencies.append(clock() - started)
            audit(snap)


async def _drive(
    spec: LoadSpec,
    service: StreamService,
    chunks_by_tenant: Dict[str, List[Dict[LightKey, LightPartition]]],
    clock: Callable[[], float],
    latencies: List[float],
    violations: Dict[str, int],
) -> None:
    coros = []
    for name, chunks in chunks_by_tenant.items():
        service.add_tenant(
            name, quota=TenantQuota(max_queue_depth=spec.queue_depth)
        )
        coros.append(_producer(service, name, chunks))
        coros.append(_consumer(service, name, spec, clock, latencies, violations))
    await asyncio.gather(*coros)
    await service.close()


def run_load(
    spec: LoadSpec,
    *,
    config: Optional[PipelineConfig] = None,
    report: Optional[RunReport] = None,
    clock: Optional[Callable[[], float]] = None,
) -> LoadResult:
    """Run one full load: replay, audit, baseline, measure."""
    tick: Callable[[], float] = time.perf_counter if clock is None else clock
    cities: Dict[str, Mapping[LightKey, LightPartition]] = {}
    chunks_by_tenant: Dict[str, List[Dict[LightKey, LightPartition]]] = {}
    for i in range(spec.n_tenants):
        name = _tenant_name(i)
        partitions, chunks = _tenant_chunks(spec, i)
        cities[name] = partitions
        chunks_by_tenant[name] = chunks

    # Bare single-tenant baseline: the same chunks through a plain
    # StreamSession, no queue/snapshot machinery in the way.
    baseline_s = 0.0
    for name in chunks_by_tenant:
        session = StreamSession(config=config)
        started = tick()
        for chunk in chunks_by_tenant[name]:
            session.ingest(dict(chunk))
        baseline_s += tick() - started

    service = StreamService(config=config, clock=tick, report=report)
    latencies: List[float] = []
    violations = {"stale": 0, "torn": 0}
    asyncio.run(
        _drive(spec, service, chunks_by_tenant, tick, latencies, violations)
    )

    stats = service.stats()
    parity = 0
    for name in chunks_by_tenant:
        snapshot = service.snapshot(name)
        parity += len(verify_snapshot_parity(snapshot, cities[name], config=config))

    return LoadResult(
        n_tenants=spec.n_tenants,
        n_ingests=sum(s.n_chunks for s in stats),
        n_evaluates=len(latencies),
        evaluate_p50_s=_percentile(latencies, 50.0),
        evaluate_p99_s=_percentile(latencies, 99.0),
        service_ingest_s=sum(s.ingest_wall_s for s in stats),
        baseline_ingest_s=baseline_s,
        stale_violations=violations["stale"],
        torn_violations=violations["torn"],
        parity_mismatches=parity,
        tenant_stats=tuple(stats),
    )
