"""Identifiability-frontier evaluation: adaptivity vs identification.

The paper's pipeline (§IV–§VII) assumes fixed or pre-programmed plans.
This module quantifies what happens when that assumption erodes: it
sweeps the responsiveness knob ``alpha`` of the adaptive synthetic
scenarios (:func:`repro.scenario.adaptive_synthetic_lights`, 0 = fixed
plan, 1 = fully demand-driven) and runs the full identify/monitor
pipeline on each generated city, producing one frontier point per
``alpha``:

* **cycle-estimate error** — mean/p90 absolute error of the identified
  cycle against the controller's *effective* realized schedule at each
  eval time, plus per-stage failure counts;
* **changepoint false alarms** — plan changes reported by
  ``detect_plan_changes`` on a steady (no programmed switch) adaptive
  city, where every detection is spurious, normalized per light-hour;
* **changepoint miss rate and lag** — on a twin city with a programmed
  plan switch under adaptation, the fraction of lights whose switch is
  never detected within ``detect_window_s`` and the mean detection lag
  of the hits.

Identification runs batched; backend parity on these cities is pinned
in ``tests/test_batch_parity.py``.

The ``alpha = 0`` point doubles as a regression anchor: its partitions
and estimates are compared bit-for-bit against the pre-existing
fixed-plan pipeline (``fixed_plan_bitwise_match``), proving the
adaptive machinery is a strict superset of the paper's workload.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.monitor import detect_plan_changes, monitor_cycle, repair_outliers
from ..core.pipeline import identify_many
from ..core.signal_types import ScheduleEstimate
from ..matching.partition import LightKey, LightPartition
from ..obs.report import LightFailure
from ..scenario.synthetic import (
    AdaptiveSyntheticLight,
    adaptive_synthetic_lights,
    synthetic_lights,
    synthetic_partitions,
)
from ..trace.store import PartitionStore

__all__ = ["FrontierSpec", "FrontierPoint", "FrontierResult", "run_frontier"]

_EstTuple = Tuple[float, float, float, float]


@dataclass(frozen=True)
class FrontierSpec:
    """Configuration of one identifiability-frontier sweep."""

    alphas: Tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    kind: str = "gap"
    n_intersections: int = 4
    horizon_s: float = 9000.0
    seed: int = 0
    rate_per_hour: float = 240.0
    eval_start_s: float = 3600.0
    eval_every_s: float = 1800.0
    monitor_every_s: float = 300.0
    monitor_window_s: float = 1800.0
    switch_fraction: float = 0.5
    detect_window_s: float = 2700.0

    def __post_init__(self) -> None:
        if not self.alphas:
            raise ValueError("alphas must be non-empty")
        for a in self.alphas:
            if not 0.0 <= a <= 1.0:
                raise ValueError(f"alpha must be in [0, 1], got {a}")
        if self.n_intersections < 1:
            raise ValueError("n_intersections must be >= 1")
        if not 0.0 < self.eval_start_s <= self.horizon_s:
            raise ValueError("eval_start_s must lie in (0, horizon_s]")
        if not 0.0 < self.switch_fraction < 1.0:
            raise ValueError("switch_fraction must lie in (0, 1)")

    def eval_times(self) -> List[float]:
        """Identification eval instants over the horizon."""
        return [
            float(t)
            for t in np.arange(self.eval_start_s, self.horizon_s + 1e-9, self.eval_every_s)
        ]

    @property
    def switch_at_s(self) -> float:
        """Programmed plan-switch instant of the switch variant."""
        return self.horizon_s * self.switch_fraction


@dataclass(frozen=True)
class FrontierPoint:
    """Pipeline health at one responsiveness level."""

    alpha: float
    cycle_mae_s: float
    cycle_p90_s: float
    n_estimates: int
    n_failures: int
    false_alarms: int
    false_alarms_per_light_hour: float
    miss_rate: float
    mean_lag_s: float
    n_lights: int


@dataclass(frozen=True)
class FrontierResult:
    """One full sweep: the frontier curve plus its regression anchor."""

    spec: FrontierSpec
    points: Tuple[FrontierPoint, ...]
    #: ``alpha = 0`` partitions and estimates bit-for-bit equal to the
    #: fixed-plan pipeline; ``None`` when 0 was not in the sweep.
    fixed_plan_bitwise_match: Optional[bool]

    def degradation_monotone(self) -> bool:
        """Direction check: the most responsive point's cycle error
        strictly exceeds the least responsive point's."""
        pts = sorted(self.points, key=lambda p: p.alpha)
        return pts[-1].cycle_mae_s > pts[0].cycle_mae_s

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": asdict(self.spec),
            "points": [asdict(p) for p in sorted(self.points, key=lambda p: p.alpha)],
            "fixed_plan_bitwise_match": self.fixed_plan_bitwise_match,
            "degradation_monotone": self.degradation_monotone(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary(self) -> str:
        """Human-readable frontier table."""
        lines = [
            f"identifiability frontier — kind={self.spec.kind} "
            f"intersections={self.spec.n_intersections} seed={self.spec.seed}",
            f"{'alpha':>6} {'cycMAE':>8} {'cycP90':>8} {'ok':>5} {'fail':>5} "
            f"{'FA/lh':>7} {'miss%':>6} {'lag_s':>7}",
        ]
        for p in sorted(self.points, key=lambda q: q.alpha):
            lines.append(
                f"{p.alpha:>6.2f} {p.cycle_mae_s:>8.2f} {p.cycle_p90_s:>8.2f} "
                f"{p.n_estimates:>5d} {p.n_failures:>5d} "
                f"{p.false_alarms_per_light_hour:>7.3f} {100.0 * p.miss_rate:>6.1f} "
                f"{p.mean_lag_s:>7.1f}"
            )
        anchor = self.fixed_plan_bitwise_match
        if anchor is not None:
            lines.append(
                "fixed-plan (alpha=0) bitwise anchor: "
                + ("MATCH" if anchor else "MISMATCH")
            )
        return "\n".join(lines)


def _est_tuple(est: ScheduleEstimate) -> _EstTuple:
    s = est.schedule
    return (s.cycle_s, s.red_s, s.green_s, s.offset_s)


def _estimate_map(
    estimates: Mapping[LightKey, ScheduleEstimate],
    failures: Mapping[LightKey, LightFailure],
) -> Tuple[Dict[LightKey, _EstTuple], Tuple[LightKey, ...]]:
    return (
        {key: _est_tuple(est) for key, est in estimates.items()},
        tuple(sorted(failures)),
    )


def _partitions_bitwise_equal(
    a: Mapping[LightKey, LightPartition], b: Mapping[LightKey, LightPartition]
) -> bool:
    if sorted(a) != sorted(b):
        return False
    for key in a:
        pa, pb = a[key], b[key]
        cols = (
            (pa.trace.t, pb.trace.t),
            (pa.trace.speed_kmh, pb.trace.speed_kmh),
            (pa.trace.lon, pb.trace.lon),
            (pa.trace.lat, pb.trace.lat),
            (pa.trace.heading_deg, pb.trace.heading_deg),
            (pa.trace.taxi_id, pb.trace.taxi_id),
            (pa.dist_to_stopline_m, pb.dist_to_stopline_m),
            (pa.segment_id, pb.segment_id),
        )
        for x, y in cols:
            if x.shape != y.shape or not np.array_equal(x, y):
                return False
    return True


def _changepoint_metrics(
    partitions: Mapping[LightKey, LightPartition],
    spec: FrontierSpec,
    *,
    switch_at_s: Optional[float],
) -> Tuple[int, float, float]:
    """(false_alarms, miss_rate, mean_lag_s) from the plan-change
    monitor over every light.  On the steady city (``switch_at_s`` is
    None) every detection is a false alarm; on the switch city,
    detections inside the post-switch window are hits."""
    false_alarms = 0
    lags: List[float] = []
    missed = 0
    monitored = monitor_cycle(
        partitions,
        0.0,
        spec.horizon_s,
        every_s=spec.monitor_every_s,
        window_s=spec.monitor_window_s,
    )
    for key in sorted(partitions):
        changes = detect_plan_changes(repair_outliers(monitored[key]))
        if switch_at_s is None:
            false_alarms += len(changes)
            continue
        hits = [
            c.at_time - switch_at_s
            for c in changes
            if switch_at_s <= c.at_time <= switch_at_s + spec.detect_window_s
        ]
        if hits:
            lags.append(hits[0])
        else:
            missed += 1
    if switch_at_s is None:
        return false_alarms, float("nan"), float("nan")
    n = max(len(partitions), 1)
    mean_lag = float(np.mean(lags)) if lags else float("nan")
    return 0, missed / n, mean_lag


def _run_point(spec: FrontierSpec, alpha: float) -> Tuple[FrontierPoint, Optional[bool]]:
    lights = adaptive_synthetic_lights(
        spec.n_intersections, alpha=alpha, kind=spec.kind, seed=spec.seed
    )
    partitions = synthetic_partitions(
        lights, 0.0, spec.horizon_s, rate_per_hour=spec.rate_per_hour, seed=spec.seed
    )
    truth: Dict[LightKey, AdaptiveSyntheticLight] = {lt.key: lt for lt in lights}
    store = PartitionStore.from_partitions(partitions)
    times = spec.eval_times()

    abs_errors: List[float] = []
    n_estimates = 0
    n_failures = 0
    snapshots: List[Tuple[float, Dict[LightKey, _EstTuple], Tuple[LightKey, ...]]] = []
    for at in times:
        estimates, failures = identify_many(partitions, at, store=store)
        n_estimates += len(estimates)
        n_failures += len(failures)
        for key, est in estimates.items():
            true_cycle = truth[key].true_schedule(at).cycle_s
            abs_errors.append(abs(est.schedule.cycle_s - true_cycle))
        if alpha == 0.0:
            est_map, failed_keys = _estimate_map(estimates, failures)
            snapshots.append((at, est_map, failed_keys))

    false_alarms, _, _ = _changepoint_metrics(partitions, spec, switch_at_s=None)
    light_hours = len(partitions) * max(spec.horizon_s - spec.monitor_window_s, 0.0) / 3600.0

    switch_lights = adaptive_synthetic_lights(
        spec.n_intersections,
        alpha=alpha,
        kind=spec.kind,
        seed=spec.seed,
        switch_at_s=spec.switch_at_s,
    )
    switch_partitions = synthetic_partitions(
        switch_lights, 0.0, spec.horizon_s, rate_per_hour=spec.rate_per_hour, seed=spec.seed
    )
    _, miss_rate, mean_lag = _changepoint_metrics(
        switch_partitions, spec, switch_at_s=spec.switch_at_s
    )

    point = FrontierPoint(
        alpha=alpha,
        cycle_mae_s=float(np.mean(abs_errors)) if abs_errors else float("nan"),
        cycle_p90_s=float(np.percentile(abs_errors, 90.0)) if abs_errors else float("nan"),
        n_estimates=n_estimates,
        n_failures=n_failures,
        false_alarms=false_alarms,
        false_alarms_per_light_hour=false_alarms / light_hours if light_hours > 0 else 0.0,
        miss_rate=miss_rate,
        mean_lag_s=mean_lag,
        n_lights=len(partitions),
    )

    anchor: Optional[bool] = None
    if alpha == 0.0:
        anchor = _fixed_plan_anchor(spec, partitions, snapshots)
    return point, anchor


def _fixed_plan_anchor(
    spec: FrontierSpec,
    adaptive_partitions: Mapping[LightKey, LightPartition],
    snapshots: List[Tuple[float, Dict[LightKey, _EstTuple], Tuple[LightKey, ...]]],
) -> bool:
    """The regression anchor: regenerate the city through the original
    fixed-plan path and demand bit-identical partitions *and* estimates
    at every eval instant."""
    fixed_partitions = synthetic_partitions(
        synthetic_lights(spec.n_intersections, seed=spec.seed),
        0.0,
        spec.horizon_s,
        rate_per_hour=spec.rate_per_hour,
        seed=spec.seed,
    )
    if not _partitions_bitwise_equal(adaptive_partitions, fixed_partitions):
        return False
    store = PartitionStore.from_partitions(fixed_partitions)
    for at, est_map, failed_keys in snapshots:
        estimates, failures = identify_many(fixed_partitions, at, store=store)
        if _estimate_map(estimates, failures) != (est_map, failed_keys):
            return False
    return True


def run_frontier(spec: FrontierSpec) -> FrontierResult:
    """Run the full sweep: one :class:`FrontierPoint` per ``alpha``."""
    points: List[FrontierPoint] = []
    fixed_match: Optional[bool] = None
    for alpha in spec.alphas:
        point, anchor = _run_point(spec, float(alpha))
        points.append(point)
        if anchor is not None:
            fixed_match = anchor
    return FrontierResult(
        spec=spec, points=tuple(points), fixed_plan_bitwise_match=fixed_match
    )
