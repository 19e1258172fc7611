"""End-to-end identification entry points (Fig. 4's flow chart).

Chains the paper's stages for each traffic light at one point in time:

    partitioned records ─→ cycle length (DFT, §V, optionally enhanced
    by the perpendicular direction, §V.B; sharpened by epoch folding)
    ─→ red duration (border-interval, §VI.A) ─→ superposition +
    sliding-window change point (§VI.B/C) ─→ a fitted absolute-time
    LightSchedule.

The stages themselves are written once, in :mod:`repro.core.batch`.
This module holds their configuration and the two entry points over
them: :func:`identify_light` (one light, raising) and
:func:`identify_many` (a city, every failure contained per light, on
the backend of your choice).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import ContextManager, Dict, List, Optional, Tuple

import numpy as np

from .._util import check_positive
from ..matching.partition import LightKey, LightPartition, partner_of
from ..obs import LightFailure, RunReport, ShardStats, StageTelemetry
from ..trace.store import PartitionStore
from .cycle import CycleConfig
from .redlight import RedConfig
from .signal_types import ScheduleEstimate

__all__ = [
    "PipelineConfig",
    "identify_light",
    "identify_many",
    "measured_mean_interval",
    "BACKENDS",
]

#: Execution backends accepted by :func:`identify_many`.
BACKENDS = ("serial", "batched", "shard")


@dataclass(frozen=True)
class PipelineConfig:
    """Tunables of the full identification pipeline.

    Parameters
    ----------
    window_s:
        How much history feeds the cycle DFT and the superposition
        (paper examples use 30–60 min).
    stop_window_s:
        How much history feeds the stop-duration statistics; red
        durations change rarely, so a longer window is safe and much
        more accurate on sparse lights.
    phase_window_s:
        How much history feeds the superposition/change-point step.
        Shorter than ``window_s``: a period error δc smears the folded
        phase by (window/cycle)·δc, so the phase estimate prefers a
        tighter window than the frequency estimate.
    max_sample_dist_m:
        Only reports within this distance of the stop line feed the
        speed signal — upstream free-flow traffic is not modulated by
        the light and only adds noise.  ``math.inf`` keeps every report
        (the §VII monitor's rule).
    cycle, red:
        Stage configurations.
    use_enhancement:
        Mirror the perpendicular direction's samples when the primary
        direction is sparse (§V.B).
    enhancement_threshold:
        Enhancement kicks in when the primary window holds fewer raw
        samples than this.
    measure_interval:
        Use the partition's own measured mean update interval as the
        red histogram's bin width instead of the configured constant.
    fusion_weight:
        Weight of the stop-end density in the change-point fusion
        (0 = the paper-literal sliding-window detector alone).
    refine_red:
        Re-estimate the red duration from stops aligned with the
        identified red→green instant (one-sided truncation only).
    """

    window_s: float = 1800.0
    stop_window_s: float = 3600.0
    phase_window_s: float = 1200.0
    max_sample_dist_m: float = 150.0
    cycle: CycleConfig = field(default_factory=CycleConfig)
    red: RedConfig = field(default_factory=RedConfig)
    use_enhancement: bool = True
    enhancement_threshold: int = 60
    measure_interval: bool = True
    fusion_weight: float = 0.5
    refine_red: bool = True

    def __post_init__(self) -> None:
        check_positive("window_s", self.window_s)
        check_positive("stop_window_s", self.stop_window_s)
        check_positive("phase_window_s", self.phase_window_s)
        if not self.max_sample_dist_m > 0:  # NaN fails too; +inf is allowed
            raise ValueError(
                f"max_sample_dist_m must be positive (or +inf), "
                f"got {self.max_sample_dist_m!r}"
            )


def measured_mean_interval(partition: LightPartition, default_s: float = 20.14) -> float:
    """Mean time between consecutive same-taxi reports in a partition.

    Falls back to ``default_s`` (the paper's fleet-wide figure) when the
    partition holds no consecutive pairs.
    """
    trace = partition.trace
    if len(trace) < 2:
        return default_s
    order = np.lexsort((trace.t, trace.taxi_id))
    tid = trace.taxi_id[order]
    t = trace.t[order]
    same = tid[1:] == tid[:-1]
    dt = np.diff(t)[same]
    dt = dt[(dt > 0) & (dt <= 120.0)]  # ignore cross-visit gaps
    return float(dt.mean()) if dt.size else default_s


def identify_light(
    partition: LightPartition,
    at_time: float,
    *,
    perpendicular: Optional[LightPartition] = None,
    config: Optional[PipelineConfig] = None,
    telemetry: Optional[StageTelemetry] = None,
) -> ScheduleEstimate:
    """Identify one light's schedule as of ``at_time``.

    Runs :mod:`repro.core.batch`'s passes on a store holding only this
    light (and its perpendicular partner), so the estimate has the same
    bits as the light's entry in any :func:`identify_many` result.

    Parameters
    ----------
    partition:
        The target light's records (its own approach group).
    perpendicular:
        The crossing approach group at the same intersection, used for
        §V.B enhancement on sparse windows.
    telemetry:
        Optional :class:`~repro.obs.telemetry.StageTelemetry` that
        accumulates per-stage wall time and pipeline counters; its
        ``last_stage`` names the stage that raised when this call
        fails.

    Raises
    ------
    InsufficientDataError:
        When even the enhanced window can't support the DFT, or too few
        stop events survive filtering.  Any other exception a stage
        raises is re-raised as is.
    """
    from .batch import _run_passes

    key = partition.key
    lights = {key: partition}
    if perpendicular is not None:
        lights[partner_of(key)] = perpendicular
    tel = StageTelemetry() if telemetry is None else telemetry
    estimates, errors = _run_passes(
        PartitionStore.from_partitions(lights), at_time, config, {key: tel}
    )
    if key in errors:
        # Popped, so no local still refers to the exception once it is
        # raised: its new traceback would tie it to this frame in a cycle.
        raise errors.pop(key).exception or RuntimeError(f"{key} failed")
    return estimates[key]


def identify_many(
    partitions: Dict[LightKey, LightPartition],
    at_time: float,
    *,
    config: Optional[PipelineConfig] = None,
    max_workers: Optional[int] = None,
    report: Optional[RunReport] = None,
    backend: str = "batched",
    store: Optional[PartitionStore] = None,
) -> Tuple[Dict[LightKey, ScheduleEstimate], Dict[LightKey, LightFailure]]:
    """Identify every partitioned light at ``at_time``.

    Returns ``(estimates, failures)``.  Every light that produced no
    estimate — from an expectedly sparse window up to a genuinely
    poisoned partition — lands in *failures* as a
    :class:`~repro.obs.report.LightFailure` (exception class + pipeline
    stage + message); one bad partition never aborts the others.

    ``backend`` selects how :func:`repro.core.batch.identify_batch`
    runs; all three give the same estimates and failures bit for bit:

    * ``"batched"`` (default) — the whole city in one call, through
      shared vectorized kernels (one FFT, one superposition fold, one
      moving-average pass); the cycle stage's fold scan runs per light
      through a :class:`~repro.core.cycle.FoldScanner`;
    * ``"serial"`` — one call per light (batch-of-one), the reference
      the others are checked against;
    * ``"shard"`` — :func:`repro.core.shard.identify_shard`: the
      batched call sharded by light partition across a process pool,
      with the column store spilled to mmap-backed files so each
      worker receives only a metadata handle (zero column bytes
      pickled); ``max_workers`` sizes the pool.  The scaling backend
      for large cities on multi-core hosts.

    ``partitions`` may be a plain dict or a ``PartitionStore``; passing
    the same store across repeated calls (one per time spot) reuses its
    cached stop events and report intervals (speed grids depend on the
    spot and are rebuilt every call).

    Pass a :class:`~repro.obs.report.RunReport` as ``report`` to
    aggregate per-stage wall times, pipeline counters, and the failure
    map; repeated calls (e.g. one per time spot) keep folding into the
    same report.
    """
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    estimates: Dict[LightKey, ScheduleEstimate] = {}
    failures: Dict[LightKey, LightFailure] = {}
    tels: Dict[LightKey, StageTelemetry] = {}
    shard_stats: List[ShardStats] = []
    # The only clock in this module is the report's own timer: REP004
    # keeps repro.core free of wall-clock reads, so run timing lives in
    # repro.obs and is engaged only when a report asks for it.
    timer: ContextManager[object] = (
        nullcontext() if report is None else report.run_timer()
    )
    with timer:
        store = PartitionStore.from_partitions(partitions) if store is None else store
        if backend == "shard":
            from .shard import identify_shard

            estimates, failures, tels, shard_stats = identify_shard(
                store, at_time, config=config, max_workers=max_workers
            )
        else:
            from .batch import identify_batch

            keys = sorted(store)
            groups = [keys] if backend == "batched" else [[key] for key in keys]
            for group in groups:
                g_est, g_fail, g_tels = identify_batch(
                    store, at_time, config=config, keys=group
                )
                estimates.update(g_est)
                failures.update(g_fail)
                tels.update(g_tels)
        if report is not None:
            for key in sorted(tels):
                report.record_light(key, tels[key], failures.get(key))
            for stats in shard_stats:
                report.record_shard(stats)
    return estimates, failures
