"""``offline-shenzhen``: the paper's own evaluation flow on the Table II city.

One pass is one simulated morning: it simulates 05:00-11:30 (spanning
the 07:00 and 10:00 peak-plan switches at the two pre-programmed
intersections), samples taxi reports, map-matches and partitions them,
packs a ``PartitionStore``, identifies every light every 5 min from
06:00 (67 spots) through the batched backend, scores each estimate
against ground truth, and runs every light's cycle series through the
plan-change monitor.  Each layer's public function is called in turn,
as ``simulate_and_partition`` and ``evaluate_at_times`` do, so every
call can be timed.

A run makes one pass per morning; ``--seconds`` sets how many mornings
(one per ``MORNING_S``) and ``--seed`` which ones.  18 lights give few
independent identification windows, so one morning's failure share,
errors and identification cost swing by up to a third from seed to
seed; the run pools every figure over its mornings.  Three mornings
give 201 spots, so ``fresh_p95_ms`` has ten samples beyond it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.monitor import MonitorSeries, detect_plan_changes, repair_outliers
from repro.core.pipeline import identify_many
from repro.matching.mapmatch import match_trace
from repro.matching.partition import partition_by_light
from repro.scenario import shenzhen_scenario
from repro.trace.generator import TraceGenerator
from repro.trace.store import PartitionStore

from common import (
    PER_LAYER,
    HostClock,
    Scores,
    Stopwatch,
    WorkloadResult,
    check,
    count_errors,
    pctl,
    peak_rss_mb,
    result_mismatches,
    taxonomy,
)
from tracing import LayerTrace, identify_peak_mb

T0_S = 5 * 3600.0
EVERY_S = 300.0
#: First spot: one full stop-statistics window (PipelineConfig.stop_window_s)
#: after the start, so every spot sees complete windows.
WARM_WINDOW_S = 3600.0
#: A run makes one morning per MORNING_S of ``--seconds`` (a morning's
#: pass takes 12-18 s on a shared 2-vCPU host).
MORNING_S = 15.0


@dataclass(frozen=True)
class Inputs:
    scenario: object
    #: One simulation seed per morning; taxi reporting uses seed + 1.
    seeds: Tuple[int, ...]
    t1: float


@dataclass
class PassResult:
    #: Wall time of the whole pass, reference runs included.
    elapsed_s: float
    spot_s: List[float]
    layers: Stopwatch
    n_lights: int
    n_records: int
    n_vehicles: int
    matched_frac: float
    n_partitioned: int
    columns_mb: float
    failures: List
    scores: Scores
    plan_changes: int
    partitions: Dict
    gate: Tuple[float, Dict, Dict]

    @property
    def wall_s(self) -> float:
        """Every layer call of the pass: the stopwatch plus the spots."""
        return sum(self.layers.totals.values()) + sum(self.spot_s)


def make_inputs(seed: int, smoke: bool, seconds: float) -> Inputs:
    """``seconds`` sets the number of mornings, ``seed`` their traffic."""
    # The city and its signal plans are the canonical Table II build;
    # the seeds drive vehicle arrivals and taxi reporting.
    t1 = T0_S + (4500.0 if smoke else 6.5 * 3600.0)
    mornings = max(1, round(seconds / MORNING_S))
    seeds = tuple(1000 * seed + 2 * m for m in range(mornings))
    return Inputs(scenario=shenzhen_scenario(), seeds=seeds, t1=t1)


def _spots(inp: Inputs) -> np.ndarray:
    return np.arange(T0_S + WARM_WINDOW_S, inp.t1 + 1e-9, EVERY_S)


def _score(scores: Scores, sc, est: Dict, at: float) -> None:
    for key in sorted(est):
        scores.add(est[key], sc.truth_at(key[0], key[1], at))


def _monitor(history: Dict) -> int:
    plan_changes = 0
    for samples in history.values():
        series = MonitorSeries.from_samples(*zip(*samples))
        plan_changes += len(detect_plan_changes(repair_outliers(series)))
    return plan_changes


def one_pass(inp: Inputs, seed: int, clock: HostClock) -> PassResult:
    sc, sw = inp.scenario, Stopwatch(clock)
    spots = _spots(inp)
    gate_at = float(spots[len(spots) // 2])
    start = time.perf_counter()

    sim = sw.time("sim.run", sc.simulation().run, T0_S, inp.t1, seed=seed, serial=True)
    trace = sw.time("trace.generate", TraceGenerator(sc.net).generate, sim, rng=seed + 1)
    matched = sw.time("matching.match", match_trace, trace, sc.net)
    parts = sw.time("matching.partition", partition_by_light, matched, sc.net)
    store = sw.time("trace.store.build", PartitionStore.from_partitions, parts)

    scores, spot_s, failures = Scores(), [], []
    history: Dict = {key: [] for key in sorted(parts)}
    gate: Optional[Tuple[float, Dict, Dict]] = None
    for at in spots:
        at = float(at)
        # A spot is short, so the reference kernel runs right after each
        # one, and its time is scaled by the runs on either side of it.
        started = time.perf_counter()
        est, fail = identify_many(parts, at, backend="batched", store=store)
        ended = time.perf_counter()
        clock.checkpoint()
        spot_s.append((ended - started) * clock.scale_around(started, ended))
        check(set(est) | set(fail) == set(parts) and not set(est) & set(fail),
              f"spot {at}: lights missing or both estimated and failed")
        sw.time("eval.score", _score, scores, sc, est, at)
        failures.extend(fail.values())
        for key in history:
            e = est.get(key)
            history[key].append(
                (at, e.cycle.cycle_s, e.cycle.quality) if e is not None
                else (at, np.nan, np.nan)
            )
        if at == gate_at:
            gate = (at, est, fail)
    plan_changes = sw.time("core.monitor.detect", _monitor, history)

    check(gate is not None, "gate spot never identified")
    return PassResult(
        elapsed_s=time.perf_counter() - start, spot_s=spot_s, layers=sw,
        n_lights=len(parts),
        n_records=len(trace), n_vehicles=sim.n_vehicles(),
        matched_frac=matched.matched_fraction,
        n_partitioned=sum(len(p) for p in parts.values()),
        columns_mb=store.columns_nbytes / 1e6, failures=failures,
        scores=scores, plan_changes=plan_changes, partitions=parts, gate=gate,
    )


def _check_gate(res: PassResult) -> None:
    """Batched estimates equal the serial backend's bit for bit at one spot."""
    at, est, fail = res.gate
    s_est, s_fail = identify_many(res.partitions, at, backend="serial")
    bad = result_mismatches(sorted(res.partitions), est, fail, s_est, s_fail)
    check(not bad, f"batched != serial at {at}: {bad[:3]}")


def run(inp: Inputs, seconds: float, trace: bool, clock: HostClock) -> WorkloadResult:
    if trace:
        return _run_traced(inp)
    passes = [one_pass(inp, seed, clock) for seed in inp.seeds]
    _check_gate(passes[0])

    # Mornings differ in traffic, so every figure pools them: totals over
    # all mornings, wall_s per morning, fresh_* over every spot of every
    # morning.  Host noise is the clock's concern.
    scores, failures = Scores(), [f for p in passes for f in p.failures]
    for p in passes:
        scores.extend(p.scores)
    total_s = sum(p.wall_s for p in passes)
    spot_ms = [1e3 * s for p in passes for s in p.spot_s]
    attempted = sum(len(p.spot_s) * p.n_lights for p in passes)
    metrics = {
        "wall_s": total_s / len(passes),
        "estimates_per_s": attempted / (1e-3 * sum(spot_ms)),
        "fresh_p50_ms": pctl(spot_ms, 50),
        "fresh_p95_ms": pctl(spot_ms, 95),
        "drain_records_per_s": sum(p.n_records for p in passes) / total_s,
        "peak_rss_mb": peak_rss_mb(),
        "fail_frac": len(failures) / attempted,
        **scores.metrics(),
    }
    first = passes[0]
    summary = [
        f"offline-shenzhen: {first.n_lights} lights x {len(first.spot_s)} spots x "
        f"{len(passes)} morning(s), {sum(p.n_records for p in passes)} records, "
        f"{sum(p.plan_changes for p in passes)} plan changes; "
        f"light failures: {taxonomy(failures)}",
    ]
    return WorkloadResult(attempted, count_errors(failures), metrics, summary)


def _run_traced(inp: Inputs) -> WorkloadResult:
    seed = inp.seeds[0]
    plain = one_pass(inp, seed, HostClock(calibrated=False))
    tracer = LayerTrace()
    with tracer.installed():
        res = one_pass(inp, seed, HostClock(calibrated=False))
    _check_gate(res)
    sw = res.layers
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(tracer.identify_metrics())
    metrics.update({
        "sim.run_s": sw.get("sim.run"),
        "sim.vehicles": float(res.n_vehicles),
        "trace.generate_s": sw.get("trace.generate"),
        "trace.records": float(res.n_records),
        "matching.match_s": sw.get("matching.match"),
        "matching.matched_frac": res.matched_frac,
        "matching.partition_s": sw.get("matching.partition"),
        "matching.records_partitioned": float(res.n_partitioned),
        "eval.score_s": sw.get("eval.score"),
        "trace.store.build_s": sw.get("trace.store.build"),
        "trace.store.columns_mb": res.columns_mb,
        "core.batch.identify_peak_mb": identify_peak_mb(res.partitions, res.gate[0]),
        "core.monitor.detect_ms": 1e3 * sw.get("core.monitor.detect"),
        "core.monitor.plan_changes": float(res.plan_changes),
        "bench.trace_overhead_frac": res.elapsed_s / plain.elapsed_s - 1.0,
        # Every layer call of the pass (sim, generate, match, partition,
        # store build, identify per spot, score, monitor) over its wall.
        "bench.accounted_frac": res.wall_s / res.elapsed_s,
    })
    attempted = len(res.spot_s) * res.n_lights
    summary = [
        f"offline-shenzhen traced: wall {res.elapsed_s:.2f} s vs "
        f"{plain.elapsed_s:.2f} s untraced"
    ]
    return WorkloadResult(attempted, count_errors(res.failures), metrics, summary)
