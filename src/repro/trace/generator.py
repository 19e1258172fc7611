"""Trace generation: sample simulated motion into Table I records.

Bridges the microsimulator (ground-truth 1 Hz motion) and the
identification pipeline (sparse noisy reports): each simulated taxi gets
a fixed reporting interval from the fleet mixture, its track is sampled
on that grid, GPS noise is applied, and the result is emitted as
:class:`~repro.trace.records.TraceArrays`.

Every entry point draws per taxi and emits once: a loop makes each
taxi's random draws in stream order (interval, report grid, loss,
jitter, GPS, heading), and :meth:`TraceGenerator._emit` then runs the
deterministic arithmetic over all records at once.  The draws of one
call equal those of a per-taxi loop, so the trace is the same bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .._util import RngLike, as_rng, check_nonnegative
from ..network.roadnet import RoadNetwork
from ..sim.engine import SimulationResult
from ..sim.vehicle import VehicleTrack
from .fleet import (
    ReportingPolicy,
    draw_report_grid,
    jitter_report_times,
    sample_report_times,
)
from .gps import GPSDraws, GPSErrorModel
from .records import TraceArrays

__all__ = ["TraceGenerator", "OVERSPEED_KMH"]

#: Speed above which the onboard unit raises the overspeed warning
#: (Table I field 9); urban arterials in Shenzhen post 60-80 km/h.
OVERSPEED_KMH = 80.0

#: Pieces between compactions of the draws: a morning's ~20k pieces
#: would otherwise hold ~140k small arrays until they are emitted.
_COMPACT_EVERY = 1024


@dataclass
class _Pieces:
    """Draws made so far, one piece per (taxi, track) pair.

    A piece holds the report times a taxi leaves on one track, the
    track's first and last recorded second, and the per-report GPS and
    heading draws.  ``jitter`` holds each piece's network-delay jitter
    when the times still need it, and is empty when they are final.
    ``counts`` holds each piece's number of reports.

    Every ``_COMPACT_EVERY`` pieces, the per-piece arrays drawn since
    the last compaction are concatenated into one array each, in piece
    order, so the lists hold blocks of pieces and not a small array per
    piece.
    """

    tracks: List[VehicleTrack] = field(default_factory=list)
    taxi_ids: List[int] = field(default_factory=list)
    spans: List[Tuple[float, float]] = field(default_factory=list)
    counts: List[int] = field(default_factory=list)
    times: List[np.ndarray] = field(default_factory=list)
    jitter: List[np.ndarray] = field(default_factory=list)
    gps: List[GPSDraws] = field(default_factory=list)
    heading: List[np.ndarray] = field(default_factory=list)

    def add(
        self,
        track: VehicleTrack,
        taxi_id: int,
        span: Tuple[float, float],
        times: np.ndarray,
        jitter: Optional[np.ndarray],
        gps: GPSDraws,
        heading: np.ndarray,
    ) -> None:
        """Record one piece's draws (``jitter`` is ``None`` when its times
        are final), compacting every ``_COMPACT_EVERY`` pieces."""
        self.tracks.append(track)
        self.taxi_ids.append(taxi_id)
        self.spans.append(span)
        self.counts.append(times.size)
        self.times.append(times)
        if jitter is not None:
            self.jitter.append(jitter)
        self.gps.append(gps)
        self.heading.append(heading)
        n = _COMPACT_EVERY
        if len(self.counts) % n == 0:
            for parts in (self.times, self.jitter, self.heading):
                if parts:
                    parts[-n:] = [np.concatenate(parts[-n:])]
            self.gps[-n:] = [_concat_gps(self.gps[-n:])]


@dataclass(frozen=True)
class TraceGenerator:
    """Turn :class:`VehicleTrack` ground truth into raw taxi reports.

    Parameters
    ----------
    net:
        Road network providing segment geometry and the geographic frame.
    policy:
        Fleet reporting behaviour.
    gps:
        GPS error model.
    heading_noise_sd_deg:
        Compass noise on the reported heading.
    """

    net: RoadNetwork
    policy: ReportingPolicy = field(default_factory=ReportingPolicy)
    gps: GPSErrorModel = field(default_factory=GPSErrorModel)
    heading_noise_sd_deg: float = 4.0

    def __post_init__(self) -> None:
        check_nonnegative("heading_noise_sd_deg", self.heading_noise_sd_deg)

    # ------------------------------------------------------------------
    def sample_track(
        self,
        track: VehicleTrack,
        taxi_id: int,
        rng: RngLike = None,
    ) -> Optional[TraceArrays]:
        """Sample one track into reports; ``None`` if no report survives."""
        out = self._sample_tracks([(track, taxi_id)], as_rng(rng))
        return out if len(out) else None

    def generate(
        self,
        result: SimulationResult,
        rng: RngLike = None,
        *,
        first_taxi_id: int = 10_000,
    ) -> TraceArrays:
        """Generate the full raw trace for a simulation run.

        Taxi ids are assigned sequentially from ``first_taxi_id`` in a
        deterministic (segment id, entry time) order, so a fixed seed
        reproduces the identical trace.
        """
        taxis = [
            track
            for sid in sorted(result.tracks_by_segment)
            for track in result.tracks_by_segment[sid]
            if track.is_taxi
        ]
        return self._sample_tracks(
            zip(taxis, range(first_taxi_id, first_taxi_id + len(taxis))), as_rng(rng)
        )

    def generate_for_segment(
        self,
        tracks: Sequence[VehicleTrack],
        rng: RngLike = None,
        *,
        first_taxi_id: int = 10_000,
    ) -> TraceArrays:
        """Generate a trace for a single approach's tracks."""
        return self._sample_tracks(
            ((tr, first_taxi_id + i) for i, tr in enumerate(tracks) if tr.is_taxi),
            as_rng(rng),
        )

    # ------------------------------------------------------------------
    # Multi-segment journeys (corridor simulation)
    # ------------------------------------------------------------------
    def sample_journey(
        self,
        legs: Sequence[VehicleTrack],
        taxi_id: int,
        rng: RngLike = None,
    ) -> Optional[TraceArrays]:
        """Sample one multi-segment journey as a single taxi.

        Unlike per-track sampling, the reporting grid (interval and
        phase) is drawn once and spans every leg, so the emitted trace
        shows one taxi moving through consecutive intersections — the
        structure real fleet data has.
        """
        out = self._sample_journeys([(legs, taxi_id)], as_rng(rng))
        return out if len(out) else None

    def generate_journeys(
        self,
        journeys: Sequence[Sequence[VehicleTrack]],
        rng: RngLike = None,
        *,
        taxi_fraction: float = 0.85,
        first_taxi_id: int = 50_000,
    ) -> TraceArrays:
        """Generate the raw trace of a corridor run.

        Taxi-ness is decided per journey (a vehicle either reports for
        its whole trip or not at all).
        """
        rng = as_rng(rng)
        # Lazy, so each journey's taxi draw precedes its reports' draws.
        taxis = (
            (legs, first_taxi_id + i)
            for i, legs in enumerate(journeys)
            if rng.uniform() < taxi_fraction
        )
        return self._sample_journeys(taxis, rng)

    # ------------------------------------------------------------------
    # Draw per taxi, emit once
    # ------------------------------------------------------------------
    def _sample_tracks(
        self,
        taxis: Iterable[Tuple[VehicleTrack, int]],
        rng: np.random.Generator,
    ) -> TraceArrays:
        """Each track is one taxi with its own interval and grid."""
        pieces = _Pieces()
        for track, taxi_id in taxis:
            t_start, t_end = float(track.t[0]), float(track.t[-1])
            interval = self.policy.sample_interval(rng)
            ticks, jitter = draw_report_grid(self.policy, interval, t_start, t_end, rng)
            if ticks.size:
                self._draw_piece(pieces, track, taxi_id, t_start, t_end, ticks, rng, jitter)
        return self._emit(pieces)

    def _sample_journeys(
        self,
        journeys: Iterable[Tuple[Sequence[VehicleTrack], int]],
        rng: np.random.Generator,
    ) -> TraceArrays:
        """Each journey is one taxi whose grid spans all of its legs."""
        pieces = _Pieces()
        for legs, taxi_id in journeys:
            if not legs:
                continue
            interval = self.policy.sample_interval(rng)
            times = sample_report_times(
                self.policy, interval, float(legs[0].t[0]), float(legs[-1].t[-1]), rng
            )
            if times.size == 0:
                continue
            starts = np.array([float(tr.t[0]) for tr in legs])
            ends = np.array([float(tr.t[-1]) for tr in legs])
            leg_idx = np.clip(
                np.searchsorted(starts, times, side="right") - 1, 0, len(legs) - 1
            )
            # clamp report times into the leg's recorded span (tiny gaps
            # can exist at segment handovers)
            times = np.clip(times, starts[leg_idx], ends[leg_idx])
            for li in np.unique(leg_idx).tolist():
                self._draw_piece(
                    pieces, legs[li], taxi_id, float(starts[li]), float(ends[li]),
                    times[leg_idx == li], rng,
                )
        return self._emit(pieces)

    def _draw_piece(
        self,
        pieces: _Pieces,
        track: VehicleTrack,
        taxi_id: int,
        t_start: float,
        t_end: float,
        times: np.ndarray,
        rng: np.random.Generator,
        jitter: Optional[np.ndarray] = None,
    ) -> None:
        """Make a piece's per-report draws and record it.

        ``jitter`` is the network-delay jitter already drawn for
        ``times``, if they still need it.
        """
        gps = self.gps.draw(times.size, rng)
        heading = rng.normal(0.0, self.heading_noise_sd_deg, size=times.size)
        pieces.add(track, taxi_id, (t_start, t_end), times, jitter, gps, heading)

    def _emit(self, pieces: _Pieces) -> TraceArrays:
        """All pieces' records, sorted by time (stable in piece order).

        Consumes ``pieces``: each list of draw arrays is released as
        soon as it is concatenated.
        """
        if not pieces.tracks:
            return TraceArrays.empty()
        counts = np.array(pieces.counts, dtype=np.int64)
        piece = np.repeat(np.arange(counts.size), counts)
        t_start, t_end = np.array(pieces.spans).T[:, piece]
        times = _drain(pieces.times)
        if pieces.jitter:
            times = jitter_report_times(times, _drain(pieces.jitter), t_start, t_end)
            # each taxi's times are sorted after jittering
            times = times[np.lexsort((times, piece))]
        gps = _concat_gps(pieces.gps)
        pieces.gps.clear()
        heading_noise = _drain(pieces.heading)

        # Nearest 1 Hz simulation sample for each report time.
        last = np.array([len(tr.t) - 1 for tr in pieces.tracks])
        idx = np.clip(np.round(times - t_start).astype(np.int64), 0, last[piece])
        stops = np.cumsum(counts).tolist()
        dist, speed = np.empty(idx.size), np.empty(idx.size)
        passenger = np.empty(idx.size, dtype=bool)
        for tr, lo, hi in zip(pieces.tracks, [0] + stops, stops):
            at = idx[lo:hi]
            dist[lo:hi] = tr.dist_to_stopline_m[at]
            speed[lo:hi] = tr.speed_mps[at]
            passenger[lo:hi] = tr.passenger[at]
        speed_kmh = speed * 3.6

        # Geometry: position along the directed segment, then GPS noise.
        sids, seg_of_piece = np.unique(
            [tr.segment_id for tr in pieces.tracks], return_inverse=True
        )
        segs = [self.net.segments[int(s)] for s in sids]
        ax, ay, bx, by, L, heading = np.array(
            [(s.ax, s.ay, s.bx, s.by, max(s.length, 1e-9), s.heading) for s in segs]
        )[seg_of_piece[piece]].T
        frac = 1.0 - np.clip(dist, 0.0, L) / L
        x = ax + frac * (bx - ax)
        y = ay + frac * (by - ay)
        xn, yn, gps_ok = self.gps.perturb(x, y, gps)
        lon, lat = self.net.frame.to_geographic(xn, yn)
        heading = np.mod(heading + heading_noise, 360.0)
        return TraceArrays(
            taxi_id=np.repeat(np.array(pieces.taxi_ids, dtype=np.int64), counts),
            t=times,
            lon=lon,
            lat=lat,
            speed_kmh=speed_kmh,
            heading_deg=heading,
            gps_ok=gps_ok,
            overspeed=speed_kmh > OVERSPEED_KMH,
            passenger=passenger,
        ).sorted_by_time()


def _drain(parts: List[np.ndarray]) -> np.ndarray:
    """Concatenate ``parts`` and empty the list, freeing its arrays."""
    out = np.concatenate(parts)
    parts.clear()
    return out


def _concat_gps(parts: List[GPSDraws]) -> GPSDraws:
    """One :class:`GPSDraws` holding ``parts``' draws in order."""
    return GPSDraws(*map(np.concatenate, zip(*parts)))
