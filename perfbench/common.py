"""Shared pieces of the repository benchmark: metric tables, scoring,
correctness comparisons and warm-up.

The metric tables here are the single in-code statement of every
metric name and unit; ``BENCHMARK.json`` lists the same names and
``test_smoke.py`` checks the two agree.
"""

from __future__ import annotations

import bisect
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Tuple

import numpy as np

from repro.core.pipeline import identify_many
from repro.eval.errors import compare
from repro.scenario import synthetic_lights, synthetic_partitions

#: End-to-end metrics (printed with ``--trace 0``): name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "estimates_per_s": "1/s",
    "fresh_p50_ms": "ms",
    "fresh_p95_ms": "ms",
    "drain_records_per_s": "rec/s",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
    "cycle_mae_s": "s",
    "red_mae_s": "s",
    "change_mae_s": "s",
}

#: Stages of the per-light ``StageTelemetry`` (and of ``LightFailure.stage``).
STAGES = ("samples", "stops", "cycle", "red", "superposition", "changepoint", "refine")

#: Per-layer metrics (printed with ``--trace 1``): name -> unit.
PER_LAYER: Dict[str, str] = {
    "sim.run_s": "s",
    "sim.vehicles": "count",
    "trace.generate_s": "s",
    "trace.records": "count",
    "matching.match_s": "s",
    "matching.matched_frac": "ratio",
    "matching.partition_s": "s",
    "matching.records_partitioned": "count",
    "eval.score_s": "s",
    "trace.store.build_s": "s",
    "trace.store.columns_mb": "MB",
    "trace.store.append_ms": "ms",
    "trace.store.append_calls": "count",
    "core.batch.identify_s": "s",
    "core.batch.lights_per_call": "count",
    "core.batch.identify_peak_mb": "MB",
    "core.batch.fallback_frac": "ratio",
    "core.batch.accounted_frac": "ratio",
    **{f"core.stage.{s}_s": "s" for s in STAGES},
    "core.kernel.spectra_s": "s",
    "core.kernel.profile_s": "s",
    "core.kernel.moving_avg_s": "s",
    "core.kernel.spectra_mb": "MB",
    **{f"core.fail.{s}": "count" for s in STAGES},
    "core.monitor.detect_ms": "ms",
    "core.monitor.plan_changes": "count",
    "stream.ingest_ms": "ms",
    "stream.refresh_frac": "ratio",
    "serve.queue_wait_ms": "ms",
    "serve.publish_ms": "ms",
    "serve.queue_hwm": "count",
    "serve.read_p50_ms": "ms",
    "serve.read_p99_ms": "ms",
    "serve.apply_busy_frac": "ratio",
    "loadgen.late_p99_ms": "ms",
    "bench.trace_overhead_frac": "ratio",
    "bench.accounted_frac": "ratio",
}


class CheckFailed(Exception):
    """A correctness gate failed: the run prints no metrics."""


def check(ok: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with *message* unless *ok*."""
    if not ok:
        raise CheckFailed(message)


def pctl(values: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for no samples."""
    arr = np.asarray(list(values), dtype=np.float64)
    return float(np.percentile(arr, q)) if arr.size else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: About the median time of one :meth:`HostClock.reference` call on a
#: 2-vCPU Intel Xeon VM (Python 3.11, NumPy 2.4); see ``HostClock``.
REF_S = 0.015
#: A timed call reuses a reference measurement at most this old, and one
#: that runs longer is measured again after it and the two averaged.
REF_EVERY_S = 0.5


class HostClock:
    """Times program calls in reference-host seconds.

    The benchmark shares its host's cores with other tenants, so the same
    program work takes anywhere from 0.7x to 1.5x its quiet wall time,
    both within a run and from one run to the next (CPU time varies just
    as much: the slowdown is contention for the core, not time stolen
    from the process).  The clock therefore runs a fixed reference kernel
    — an interpreter loop over a dict, an FFT and a sort of cache-sized
    rows, the program's own mix — next to every timed call, and reports
    the call's wall time scaled by ``REF_S / reference time``: what the
    call would have taken on the host whose reference time is ``REF_S``.
    The kernel is benchmark code, so no program change moves it.  It has
    no pass over a large array: memory bandwidth swings about twice as
    much as the program's speed, and a kernel with a 16 MB pass
    over-corrected the drains of ``live-bursty`` (a 21 % range across
    processes instead of 8 %).

    ``calibrated=False`` skips the kernel and reports plain wall time;
    the traced run uses it so its spans and the layer totals agree.
    """

    def __init__(self, calibrated: bool = True) -> None:
        self.calibrated = calibrated
        #: ``(end time, duration)`` of every reference measurement.
        self.refs: List[Tuple[float, float]] = []
        if calibrated:
            self._rows = np.random.default_rng(0).standard_normal((128, 2048))

    def reference(self) -> float:
        """Run the reference kernel once; its wall time in seconds."""
        start = time.perf_counter()
        acc: Dict[int, float] = {}
        for i in range(100_000):
            acc[i % 97] = acc.get(i % 97, 0.0) + 0.5 * i
        np.fft.rfft(self._rows, axis=1)
        np.sort(self._rows, axis=1)
        end = time.perf_counter()
        self.refs.append((end, end - start))
        return end - start

    def stale(self) -> bool:
        """Whether the last reference run is older than ``REF_EVERY_S``."""
        return not self.refs or time.perf_counter() - self.refs[-1][0] > REF_EVERY_S

    def _recent(self) -> float:
        return self.reference() if self.stale() else self.refs[-1][1]

    def checkpoint(self) -> None:
        """Run the reference kernel now, for :meth:`scale_around` (a no-op
        uncalibrated)."""
        if self.calibrated:
            self.reference()

    def scale_around(self, t0: float, t1: float) -> float:
        """Scale for a span from ``perf_counter`` time *t0* to *t1*: ``REF_S``
        over the mean of the last reference run ended by *t0* and the first
        begun after *t1* (whichever exist); 1.0 uncalibrated.

        Contention on a shared host switches on and off every few tenths
        of a second, so only reference runs right next to a short span
        tell how fast the host ran during it.
        """
        if not self.calibrated:
            return 1.0
        ends = [end for end, _ in self.refs]
        i = bisect.bisect_right(ends, t0) - 1
        j = bisect.bisect_left([end - d for end, d in self.refs], t1)
        near = [self.refs[k][1] for k in (i, j) if 0 <= k < len(self.refs)]
        check(bool(near), "no reference run to scale by")
        return REF_S / float(np.mean(near))

    def start(self) -> Tuple[float, float]:
        """Open a timed span: ``(reference time, start)`` for :meth:`stop`."""
        ref = self._recent() if self.calibrated else REF_S
        return ref, time.perf_counter()

    def stop(self, started: Tuple[float, float]) -> Tuple[float, float]:
        """Close a span: ``(wall seconds, scale to reference-host seconds)``."""
        ref, start = started
        raw = time.perf_counter() - start
        if self.calibrated and raw > REF_EVERY_S:
            ref = 0.5 * (ref + self.reference())
        return raw, REF_S / ref

    def time(self, fn, *args, **kwargs) -> Tuple[Any, float]:
        """``(fn(*args, **kwargs), its time in reference-host seconds)``."""
        started = self.start()
        out = fn(*args, **kwargs)
        raw, scale = self.stop(started)
        return out, raw * scale

    def scale(self) -> float:
        """``REF_S`` over the median reference time so far (1.0 uncalibrated)."""
        if not self.calibrated:
            return 1.0
        if not self.refs:
            self.reference()
        return REF_S / float(np.median([d for _, d in self.refs]))


@dataclass
class Stopwatch:
    """Accumulates the time of each named layer call a workload makes."""

    clock: HostClock
    totals: Dict[str, float] = field(default_factory=dict)

    def time(self, name: str, fn, *args, **kwargs):
        out, seconds = self.clock.time(fn, *args, **kwargs)
        self.totals[name] = self.totals.get(name, 0.0) + seconds
        return out

    def get(self, name: str) -> float:
        return self.totals.get(name, 0.0)


@dataclass
class Scores:
    """Absolute identification errors against ground truth."""

    cycle: List[float] = field(default_factory=list)
    red: List[float] = field(default_factory=list)
    change: List[float] = field(default_factory=list)

    def add(self, estimate, truth) -> None:
        err = compare(estimate, truth)
        self.cycle.append(abs(err.cycle_s))
        self.red.append(abs(err.red_s))
        self.change.append(abs(err.change_s))

    def extend(self, other: "Scores") -> None:
        self.cycle += other.cycle
        self.red += other.red
        self.change += other.change

    def metrics(self) -> Dict[str, float]:
        check(len(self.cycle) > 0, "no estimate to score")
        return {
            "cycle_mae_s": float(np.mean(self.cycle)),
            "red_mae_s": float(np.mean(self.red)),
            "change_mae_s": float(np.mean(self.change)),
        }


def est_tuple(est) -> Tuple[float, ...]:
    """The fields two backends must agree on bit for bit."""
    return (
        est.cycle_s,
        est.red_s,
        est.green_s,
        est.schedule.offset_s,
        est.change.red_to_green_s,
        est.change.green_to_red_s,
    )


def fail_tuple(fail) -> Tuple[str, str, str]:
    return (fail.stage, fail.error_type, fail.message)


def result_mismatches(
    keys: Iterable,
    est_a: Mapping, fail_a: Mapping,
    est_b: Mapping, fail_b: Mapping,
) -> List[str]:
    """Lights whose estimate bits or failure identity differ between runs."""
    bad = []
    for key in keys:
        a, b = est_a.get(key), est_b.get(key)
        fa, fb = fail_a.get(key), fail_b.get(key)
        if (a is None) != (b is None) or (a is not None and est_tuple(a) != est_tuple(b)):
            bad.append(f"{key}: estimate differs")
        elif (fa is None) != (fb is None) or (
            fa is not None and fail_tuple(fa) != fail_tuple(fb)
        ):
            bad.append(f"{key}: failure differs")
    return bad


def count_errors(failures: Iterable) -> int:
    """Failures other than expected data poverty (those are bugs)."""
    return sum(1 for f in failures if not f.insufficient_data)


def taxonomy(failures: Iterable) -> str:
    """``stage/ErrorType=count`` for every failure kind, for the run summary."""
    kinds: Dict[str, int] = {}
    for f in failures:
        kinds[f.kind] = kinds.get(f.kind, 0) + 1
    return ", ".join(f"{k}={n}" for k, n in sorted(kinds.items())) or "none"


def warm_up() -> None:
    """Run the batched and serial identification paths once on a tiny city,
    so first-call costs land in set-up rather than in the first timed call."""
    lights = synthetic_lights(2, seed=0)
    parts = synthetic_partitions(lights, 0.0, 2400.0, seed=1)
    identify_many(parts, 2400.0, backend="batched")
    identify_many(parts, 2400.0, backend="serial")


@dataclass
class WorkloadResult:
    """What one workload run hands back to ``run.py``."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    summary: List[str] = field(default_factory=list)
