"""City-scale simulation driver.

Runs one :class:`~repro.sim.queueing.SignalizedApproachSim` per incoming
segment of every signalized intersection, optionally fanning out over a
process pool (the approaches are independent by construction, mirroring
the paper's per-light data partitioning).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .._util import check_nonnegative
from ..lights.intersection import IntersectionSignals
from ..network.roadnet import RoadNetwork, Segment
from ..parallel.pool import pmap_seeded
from .arrivals import PoissonArrivals, TimeVaryingArrivals
from .queueing import ApproachConfig, SignalizedApproachSim
from .vehicle import VehicleTrack

__all__ = ["ApproachSpec", "SimulationResult", "CitySimulation"]


@dataclass(frozen=True)
class ApproachSpec:
    """Everything needed to simulate one approach in a worker process."""

    segment_id: int
    intersection_id: int
    approach: str
    arrivals: object  # PoissonArrivals | TimeVaryingArrivals
    controller: object  # LightController
    config: ApproachConfig
    t0: float
    t1: float


@dataclass
class SimulationResult:
    """Tracks produced by a city run, indexed by segment.

    Attributes
    ----------
    tracks_by_segment:
        ``{segment_id: [VehicleTrack, ...]}`` sorted by entry time.
    t0, t1:
        Simulated window.
    """

    tracks_by_segment: Dict[int, List[VehicleTrack]]
    t0: float
    t1: float

    def all_tracks(self) -> List[VehicleTrack]:
        """All tracks across segments (segment order, then entry time)."""
        out: List[VehicleTrack] = []
        for sid in sorted(self.tracks_by_segment):
            out.extend(self.tracks_by_segment[sid])
        return out

    def tracks_for_segments(self, segment_ids: Sequence[int]) -> List[VehicleTrack]:
        """Tracks on a subset of segments."""
        out: List[VehicleTrack] = []
        for sid in segment_ids:
            out.extend(self.tracks_by_segment.get(sid, []))
        return out

    def n_vehicles(self) -> int:
        """Total vehicles recorded."""
        return sum(len(v) for v in self.tracks_by_segment.values())


def _run_approach(spec: ApproachSpec, rng: np.random.Generator) -> tuple:
    """Worker: simulate one approach (top-level for picklability)."""
    sim = SignalizedApproachSim(
        controller=spec.controller,
        arrivals=spec.arrivals,
        config=spec.config,
        segment_id=spec.segment_id,
    )
    return spec.segment_id, sim.run(spec.t0, spec.t1, rng=rng)


class CitySimulation:
    """Simulate all signalized approaches of a road network.

    Parameters
    ----------
    net:
        The road network.
    signals:
        ``{intersection_id: IntersectionSignals}`` (see
        :func:`repro.lights.attach_signals_to_network`).
    rate_per_segment:
        Arrival rate (vehicles/hour) for each simulated segment.
        Segments absent from the mapping are skipped — scenarios only
        simulate the approaches they care about, like the paper only
        monitors its 9 chosen intersections.
    config:
        Shared approach configuration; ``config_per_segment`` overrides
        individual segments.
    hourly_profile:
        Optional 24-entry relative day profile (Fig. 2(a) shape).  When
        given, arrivals are time-varying.
    """

    def __init__(
        self,
        net: RoadNetwork,
        signals: Dict[int, IntersectionSignals],
        rate_per_segment: Dict[int, float],
        config: Optional[ApproachConfig] = None,
        config_per_segment: Optional[Dict[int, ApproachConfig]] = None,
        hourly_profile: Optional[Sequence[float]] = None,
    ) -> None:
        self.net = net
        self.signals = signals
        self.rate_per_segment = {
            sid: check_nonnegative(f"rate_per_segment[{sid}]", r)
            for sid, r in rate_per_segment.items()
        }
        self.config = ApproachConfig() if config is None else config
        self.config_per_segment = dict(config_per_segment or {})
        self.hourly_profile = None if hourly_profile is None else np.asarray(hourly_profile, float)
        for sid in self.rate_per_segment:
            seg = net.segments[sid]
            if seg.to_id not in signals:
                raise ValueError(
                    f"segment {sid} ends at unsignalized/uncontrolled intersection {seg.to_id}"
                )

    def _make_arrivals(self, rate: float):
        if self.hourly_profile is not None:
            return TimeVaryingArrivals(rate, self.hourly_profile)
        return PoissonArrivals(rate)

    def specs(self, t0: float, t1: float) -> List[ApproachSpec]:
        """Build per-approach work specs for the window."""
        out: List[ApproachSpec] = []
        for sid in sorted(self.rate_per_segment):
            seg: Segment = self.net.segments[sid]
            controller = self.signals[seg.to_id].controller_for_segment(seg)
            cfg = self.config_per_segment.get(sid, self.config)
            if abs(cfg.segment_length_m - seg.length) > 1e-6:
                # Clamp the simulated run-up to the physical segment.
                cfg = ApproachConfig(
                    segment_length_m=min(cfg.segment_length_m, seg.length),
                    taxi_fraction=cfg.taxi_fraction,
                    dwell_probability=cfg.dwell_probability,
                    dwell_duration_range_s=cfg.dwell_duration_range_s,
                    record_all_vehicles=cfg.record_all_vehicles,
                    params=cfg.params,
                )
            out.append(
                ApproachSpec(
                    segment_id=sid,
                    intersection_id=seg.to_id,
                    approach=seg.approach,
                    arrivals=self._make_arrivals(self.rate_per_segment[sid]),
                    controller=controller,
                    config=cfg,
                    t0=t0,
                    t1=t1,
                )
            )
        return out

    def run(
        self,
        t0: float,
        t1: float,
        *,
        seed: int = 0,
        max_workers: Optional[int] = None,
        serial: bool = False,
    ) -> SimulationResult:
        """Simulate ``[t0, t1)`` across all configured approaches.

        Deterministic for a given ``seed`` regardless of worker count.
        ``serial=True`` runs in-process, as ``max_workers=1`` does.
        """
        specs = self.specs(t0, t1)
        results = pmap_seeded(
            _run_approach, specs, base_seed=seed,
            max_workers=1 if serial else max_workers,
        )
        by_segment = {sid: tracks for sid, tracks in results}
        return SimulationResult(tracks_by_segment=by_segment, t0=t0, t1=t1)
