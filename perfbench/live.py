"""``live-bursty``: several city tenants streaming into one ``StreamService``.

Each tenant is a synthetic city whose taxi coverage rotates in bursts:
intersection ``i`` reports only during minutes ``m`` with
``m % groups == i % groups``, so each 1-min chunk dirties about 1/8 to
1/16 of the tenant's lights.  Every fourth intersection reports at
Table II's lowest-to-highest record-rate ratio (198/5071), so a steady
share of lights never has enough data — as sparse real lights do.

Two phases, each on a fresh service with ``offload=True`` (one shared
apply thread, the only thread besides the event loop):

1. **open loop** — a generator submits the chunks round-robin over the
   tenants on a fixed schedule, one every ``Size.period_s``, whether or not
   the service keeps up; a reader issues snapshot reads every
   ``READ_EVERY_S``.  A chunk's freshness runs from when it was *due*
   to when a reader waiting on its tenant observes a snapshot version
   that includes it, so a stalled generator shows up as staleness.
2. **closed loop** — the same chunks are drained into a fresh service
   as fast as backpressure admits them, ``DRAINS`` times, each time into
   a fresh service.

The open loop takes ``OPEN_SHARE`` of ``--seconds``; the drains about
the rest.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.lights.schedule import LightSchedule
from repro.obs import LightFailure, RunReport
from repro.scenario import synthetic_lights, synthetic_partitions
from repro.serve import StreamService, TenantQuota, verify_snapshot_parity
from repro.stream import split_by_time

from common import (
    PER_LAYER,
    HostClock,
    Scores,
    WorkloadResult,
    check,
    count_errors,
    pctl,
    peak_rss_mb,
    result_mismatches,
    taxonomy,
)
from tracing import LayerTrace, identify_peak_mb

CHUNK_S = 60.0
#: Visits per light per hour of active time, and the sparse lights' share.
RATE_PER_HOUR = 1600.0
SPARSE_EVERY = 4
SPARSE_FACTOR = 198.0 / 5071.0
#: Reads go out every READ_EVERY_S during the open loop.
READ_EVERY_S = 0.005
START_DELAY_S = 0.05
#: p95 needs at least ten samples beyond it.
MIN_SNAPSHOTS = 200
#: The open loop lasts this share of ``--seconds``; the drains, which
#: apply the same chunks about three times faster, take about the rest.
OPEN_SHARE = 0.46
DRAINS = 3
OPEN_QUEUE = 64
#: A tenant's third chunk in a segment waits for room in its queue.
DRAIN_QUEUE = 1
#: Chunks per tenant in one timed segment of a drain: a short segment
#: lies close to the reference runs on either side of it.
DRAIN_SEGMENT = 3
#: The open loop runs the reference kernel only when the next chunk is
#: due at least this far ahead.
IDLE_GAP_S = 0.05


@dataclass(frozen=True)
class Size:
    tenants: int
    intersections: int
    groups: int
    #: Open-loop schedule: one chunk (any tenant) every ``period_s``;
    #: at full size this keeps the apply thread 30-40 % busy.
    period_s: float
    #: Trace history each tenant starts from, so every streamed chunk
    #: meets full identification windows (steady-state per-chunk work).
    history_s: float


FULL = Size(tenants=4, intersections=16, groups=16, period_s=0.1, history_s=3600.0)
SMOKE = Size(tenants=2, intersections=4, groups=4, period_s=0.06, history_s=1800.0)


@dataclass
class TenantInput:
    name: str
    lights: Dict
    partitions: Dict
    history: Dict
    chunks: List[Dict]

    def truth(self, key, t: float) -> LightSchedule:
        cycle_s, red_s, offset_s = self.lights[key].params_at(t)
        return LightSchedule(cycle_s=cycle_s, red_s=red_s, offset_s=offset_s)


@dataclass(frozen=True)
class Inputs:
    tenants: List[TenantInput]
    size: Size
    smoke: bool


@dataclass
class PhaseResult:
    #: Wall seconds of the timed phase.
    wall_s: float
    snapshots: Dict
    stats: List
    reports: Dict[str, RunReport]
    sessions: Dict[str, int]
    #: A drain's ``(wall seconds, scale to reference-host seconds)`` per
    #: segment (``HostClock.scale_around``).
    segments: List[Tuple[float, float]] = field(default_factory=list)
    observed: Dict[str, List[float]] = field(default_factory=dict)
    #: Every distinct outcome the watchers saw published:
    #: ``(tenant, light, eval time) -> estimate or failure``.
    published: Dict = field(default_factory=dict)
    due: List[float] = field(default_factory=list)
    submitted: Dict[str, List[float]] = field(default_factory=dict)
    late: List[float] = field(default_factory=list)
    reads: List[float] = field(default_factory=list)
    violations: Dict[str, int] = field(default_factory=dict)


def make_inputs(seed: int, smoke: bool, seconds: float) -> Inputs:
    size = SMOKE if smoke else FULL
    n_chunks = int(round(OPEN_SHARE * seconds / size.period_s)) // size.tenants
    check(n_chunks >= 1, f"--seconds {seconds} leaves no chunk to stream")
    history_s = size.history_s
    horizon = history_s + n_chunks * CHUNK_S
    minutes = int(horizon // CHUNK_S)
    tenants = []
    for i in range(size.tenants):
        # Each tenant's city and signal plans are a fixed synthetic build,
        # as the Table II city is offline; the seed drives the taxi visits.
        lights = synthetic_lights(size.intersections, seed=1000 * i)
        traffic = 1000 * seed + i
        active = {
            lt.key: [
                (CHUNK_S * m, CHUNK_S * (m + 1))
                for m in range(minutes)
                if m % size.groups == lt.intersection_id % size.groups
            ]
            for lt in lights
        }
        sparse = [lt for lt in lights if lt.intersection_id % SPARSE_EVERY == SPARSE_EVERY - 1]
        dense = [lt for lt in lights if lt not in sparse]
        parts = synthetic_partitions(
            dense, 0.0, horizon, rate_per_hour=RATE_PER_HOUR, seed=traffic, active=active,
        )
        parts.update(synthetic_partitions(
            sparse, 0.0, horizon, rate_per_hour=RATE_PER_HOUR * SPARSE_FACTOR,
            seed=traffic, active=active,
        ))
        edges = [history_s + CHUNK_S * m for m in range(n_chunks + 1)]
        tenants.append(TenantInput(
            name=f"city-{i:02d}",
            lights={lt.key: lt for lt in lights},
            partitions=parts,
            history=split_by_time(parts, [0.0, history_s])[0],
            chunks=split_by_time(parts, edges),
        ))
    return Inputs(tenants=tenants, size=size, smoke=smoke)


def _start(service: StreamService, inp: Inputs, depth: int) -> Dict[str, RunReport]:
    """Add every tenant with its history, identified as of the history's end.

    The tenant's writer is idle until the first submit, so the session can
    be primed directly; afterwards each session gets a report that
    collects its per-chunk stats.
    """
    reports = {}
    for tn in inp.tenants:
        tenant = service.add_tenant(
            tn.name, store=tn.history, quota=TenantQuota(max_queue_depth=depth)
        )
        tenant.session.evaluate(inp.size.history_s)
        reports[tn.name] = tenant.session.report = RunReport()
    return reports


def _finish(service: StreamService, inp: Inputs, res: PhaseResult) -> None:
    res.stats = service.stats()
    res.snapshots = {tn.name: service.snapshot(tn.name) for tn in inp.tenants}
    res.sessions = {tn.name: id(service.tenant(tn.name).session) for tn in inp.tenants}
    for tn in inp.tenants:
        failure = service.tenant(tn.name).failure
        check(failure is None, f"tenant {tn.name} crashed: {failure}")


async def _open_loop(
    inp: Inputs, host: HostClock, tracer: Optional[LayerTrace]
) -> PhaseResult:
    clock = time.perf_counter
    service = StreamService()
    res = PhaseResult(0.0, {}, [], _start(service, inp, OPEN_QUEUE), {})
    names = [tn.name for tn in inp.tenants]
    n_chunks = len(inp.tenants[0].chunks)
    slots = [(inp.tenants[j % len(names)], j // len(names)) for j in range(len(names) * n_chunks)]
    t0 = clock() + START_DELAY_S
    res.due = [t0 + j * inp.size.period_s for j in range(len(slots))]
    res.observed = {name: [0.0] * n_chunks for name in names}
    res.submitted = {name: [] for name in names}
    res.violations = {"stale": 0, "torn": 0, "skipped": 0}
    seen = dict.fromkeys(names, 0)
    done = asyncio.Event()

    def audit(name: str, snap) -> None:
        if snap.version < seen[name]:
            res.violations["stale"] += 1
        seen[name] = max(seen[name], snap.version)
        if snap.integrity_errors():
            res.violations["torn"] += 1

    async def generator() -> None:
        for due, (tn, k) in zip(res.due, slots):
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            res.late.append(clock() - due)
            await service.submit(tn.name, tn.chunks[k])
            res.submitted[tn.name].append(clock())

    async def watcher(name: str) -> None:
        # The writer publishes, wakes this task, then yields before its next
        # apply, so the watcher sees every version: the published outcomes
        # are a deterministic function of the chunks.
        for k in range(1, n_chunks + 1):
            snap = await service.evaluate(name, min_version=k)
            res.observed[name][k - 1] = clock()
            audit(name, snap)
            if snap.version != k:
                res.violations["skipped"] += 1
            for key, t in snap.eval_times.items():
                res.published[(name, key, t)] = (
                    snap.estimates.get(key) or snap.failures[key]
                )
            # The reference kernel runs after every chunk, but only in an
            # idle gap: every chunk sent so far is published and the next
            # is not due for a while, so it delays no chunk and shares the
            # host with no apply.
            n_sent = len(res.late)
            if (sum(seen.values()) == n_sent
                    and (n_sent == len(res.due) or res.due[n_sent] - clock() > IDLE_GAP_S)):
                host.checkpoint()

    async def reader() -> None:
        j = 0
        while not done.is_set():
            delay = t0 + j * READ_EVERY_S - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            name = names[j % len(names)]
            started = clock()
            snap = await service.evaluate(name)
            res.reads.append(clock() - started)
            audit(name, snap)
            j += 1

    with _installed(tracer):
        reading = asyncio.get_running_loop().create_task(reader())
        await asyncio.gather(generator(), *(watcher(name) for name in names))
        done.set()
        await reading
    res.wall_s = clock() - t0
    _finish(service, inp, res)
    await service.close()
    return res


async def _drain(
    inp: Inputs, host: HostClock, tracer: Optional[LayerTrace]
) -> PhaseResult:
    service = StreamService()
    res = PhaseResult(0.0, {}, [], _start(service, inp, DRAIN_QUEUE), {})

    async def producer(tn: TenantInput, lo: int, hi: int) -> None:
        for chunk in tn.chunks[lo:hi]:
            await service.submit(tn.name, chunk)
        await service.evaluate(tn.name, min_version=hi)

    # Timed in segments of DRAIN_SEGMENT chunks per tenant: each segment
    # ends when every tenant has published it, and the reference kernel
    # runs before and after each segment, while the service is idle.
    n_chunks = len(inp.tenants[0].chunks)
    clock = time.perf_counter
    host.checkpoint()
    with _installed(tracer):
        for lo in range(0, n_chunks, DRAIN_SEGMENT):
            start = clock()
            await asyncio.gather(*(
                producer(tn, lo, min(lo + DRAIN_SEGMENT, n_chunks)) for tn in inp.tenants
            ))
            end = clock()
            host.checkpoint()
            res.segments.append((end - start, host.scale_around(start, end)))
    res.wall_s = sum(raw for raw, _ in res.segments)
    _finish(service, inp, res)
    await service.close()
    return res


def _installed(tracer: Optional[LayerTrace]):
    """The tracer's wrappers, installed after set-up (tenant priming)."""
    return tracer.installed() if tracer is not None else nullcontext()


def _check(inp: Inputs, open_res: PhaseResult, drains: List[PhaseResult]) -> None:
    # The open loop is only open if the generator kept its schedule: a run
    # whose p99 lateness exceeds one schedule period is invalid.
    late_p99, period = pctl(open_res.late, 99), inp.size.period_s
    check(late_p99 <= period,
          f"open loop invalid: generator p99 lateness {1e3 * late_p99:.1f} ms "
          f"> one period ({1e3 * period:.0f} ms)")
    check(inp.smoke or len(open_res.due) >= MIN_SNAPSHOTS,
          f"open loop published {len(open_res.due)} < {MIN_SNAPSHOTS} snapshots; "
          f"raise --seconds")
    check(not any(open_res.violations.values()), f"read audit: {open_res.violations}")
    for phase in (open_res, *drains):
        for s in phase.stats:
            check(s.n_rejected_ingest == 0 and s.n_dropped_chunks == 0,
                  f"{s.tenant}: rejected or dropped chunks")
    for tn in inp.tenants:
        snap = open_res.snapshots[tn.name]
        check(snap.version == len(tn.chunks),
              f"{tn.name}: open loop published {snap.version} of {len(tn.chunks)}")
        bad = verify_snapshot_parity(snap, tn.partitions)
        check(not bad, f"{tn.name}: snapshot parity {bad[:3]}")
        for drain in drains:
            other = drain.snapshots[tn.name]
            keys = sorted(set(snap.eval_times) | set(other.eval_times))
            bad = result_mismatches(keys, snap.estimates, snap.failures,
                                    other.estimates, other.failures)
            check(other.version == snap.version and not bad
                  and dict(snap.eval_times) == dict(other.eval_times),
                  f"{tn.name}: open-loop and drained snapshots differ {bad[:3]}")


def _fresh_ms(res: PhaseResult) -> List[float]:
    n = len(res.due)
    names = list(res.observed)
    return [
        1e3 * (res.observed[names[j % len(names)]][j // len(names)] - res.due[j])
        for j in range(n)
    ]


def _segment_medians(drains: List[PhaseResult], seconds) -> float:
    """Sum over drain segments ``k`` (chunks ``lo:hi`` of every tenant) of
    the median over drains of ``seconds(drain, k, lo, hi)``."""
    return sum(
        float(np.median([seconds(d, k, lo, lo + DRAIN_SEGMENT) for d in drains]))
        for k, lo in enumerate(range(0, len(drains[0].segments) * DRAIN_SEGMENT, DRAIN_SEGMENT))
    )


def run(inp: Inputs, seconds: float, trace: bool, clock: HostClock) -> WorkloadResult:
    if trace:
        return _run_traced(inp)
    open_res = asyncio.run(_open_loop(inp, clock, None))
    # Each drain goes into a fresh service.
    drains = [asyncio.run(_drain(inp, clock, None)) for _ in range(DRAINS)]
    _check(inp, open_res, drains)

    # Accuracy and the failure share over every distinct outcome the open
    # loop published (a final snapshot alone holds too few to be steady).
    scores, tenants, failures = Scores(), {tn.name: tn for tn in inp.tenants}, []
    for (name, key, t), outcome in sorted(open_res.published.items()):
        if isinstance(outcome, LightFailure):
            failures.append(outcome)
        else:
            scores.add(outcome, tenants[name].truth(key, t))
    # Every drain applies the same chunks in the same segments, so records
    # and refreshes match, and a drain's time is the sum over segments of
    # the median over drains: a burst of host contention that slows one
    # drain's segment does not count.
    records = sum(s.n_records for s in drains[0].stats)
    refreshed = sum(c.n_refreshed for r in drains[0].reports.values() for c in r.chunks)
    wall_s = _segment_medians(
        drains, lambda d, k, lo, hi: d.segments[k][0] * d.segments[k][1]
    )
    ingest_s = _segment_medians(
        drains, lambda d, k, lo, hi: d.segments[k][1] * sum(
            c.wall_s for r in d.reports.values() for c in r.chunks[lo:hi]
        ),
    )
    # Each chunk's freshness is scaled by the reference runs just before
    # it was due and just after it was observed.
    fresh = [
        ms * clock.scale_around(due, due + 1e-3 * ms)
        for ms, due in zip(_fresh_ms(open_res), open_res.due)
    ]
    metrics = {
        "wall_s": wall_s,
        "estimates_per_s": refreshed / ingest_s,
        "fresh_p50_ms": pctl(fresh, 50),
        "fresh_p95_ms": pctl(fresh, 95),
        "drain_records_per_s": records / wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "fail_frac": len(failures) / len(open_res.published),
        **scores.metrics(),
    }
    busy = sum(s.ingest_wall_s for s in open_res.stats) / open_res.wall_s
    summary = [
        f"live-bursty: {len(inp.tenants)} tenants x {len(inp.tenants[0].lights)} lights, "
        f"{len(open_res.due)} open-loop chunks (apply thread {100 * busy:.0f}% busy), "
        f"{len(open_res.reads)} reads, generator late p99 "
        f"{1e3 * pctl(open_res.late, 99):.1f} ms, {len(drains)} drain(s); "
        f"{len(open_res.published)} published outcomes, failures: {taxonomy(failures)}",
    ]
    attempted = (1 + len(drains)) * len(open_res.due) + len(open_res.reads)
    return WorkloadResult(attempted, count_errors(failures), metrics, summary)


def _run_traced(inp: Inputs) -> WorkloadResult:
    plain = HostClock(calibrated=False)
    plain_drain = asyncio.run(_drain(inp, plain, None))
    open_tr, drain_tr = LayerTrace(), LayerTrace()
    open_res = asyncio.run(_open_loop(inp, plain, open_tr))
    drain = asyncio.run(_drain(inp, plain, drain_tr))
    _check(inp, open_res, [drain])

    queue_wait, publish = [], []
    for tn in inp.tenants:
        spans = open_tr.ingests[open_res.sessions[tn.name]]
        for (start, end), sent, seen in zip(
            spans, open_res.submitted[tn.name], open_res.observed[tn.name]
        ):
            queue_wait.append(start - sent)
            publish.append(seen - end)
    snaps = open_res.snapshots.values()
    last = inp.tenants[0]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(open_tr.identify_metrics())
    metrics.update({
        "trace.store.append_ms": 1e3 * pctl(open_tr.spans["trace.store.append"], 50),
        "trace.store.append_calls": float(len(open_tr.spans["trace.store.append"])),
        "core.batch.identify_peak_mb": identify_peak_mb(
            last.partitions, open_res.snapshots[last.name].at_time,
            keys=sorted(last.chunks[-1]),
        ),
        "core.monitor.detect_ms": 1e3 * open_tr.total("core.monitor.detect"),
        "core.monitor.plan_changes": float(
            sum(len(c) for s in snaps for c in s.plan_changes.values())
        ),
        "stream.ingest_ms": 1e3 * pctl(open_tr.spans["stream.ingest"], 50),
        "stream.refresh_frac": float(np.mean(open_tr.refresh_fracs)),
        "serve.queue_wait_ms": 1e3 * pctl(queue_wait, 95),
        "serve.publish_ms": 1e3 * pctl(publish, 95),
        "serve.queue_hwm": float(max(s.queue_high_water for s in open_res.stats)),
        "serve.read_p50_ms": 1e3 * pctl(open_res.reads, 50),
        "serve.read_p99_ms": 1e3 * pctl(open_res.reads, 99),
        "serve.apply_busy_frac": (
            sum(s.ingest_wall_s for s in open_res.stats) / open_res.wall_s
        ),
        "loadgen.late_p99_ms": 1e3 * pctl(open_res.late, 99),
        "bench.trace_overhead_frac": drain.wall_s / plain_drain.wall_s - 1.0,
        "bench.accounted_frac": drain_tr.total("stream.ingest") / drain.wall_s,
    })
    failures = [f for s in snaps for f in s.failures.values()]
    summary = [f"live-bursty traced: drain {drain.wall_s:.2f} s vs {plain_drain.wall_s:.2f} s untraced"]
    attempted = 2 * len(open_res.due) + len(open_res.reads)
    return WorkloadResult(attempted, count_errors(failures), metrics, summary)
