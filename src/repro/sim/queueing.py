"""Single-approach signalized queue simulation.

This is the kernel of the trace substrate: one directed road segment
feeding one traffic light, simulated at 1 s resolution with a FIFO
single-lane car-following model.  It produces exactly the phenomena the
paper's algorithms key on:

* vehicles stack up behind the stop line while the light is red and the
  queue discharges with ≈ 2 s headways on green — so "longest stop
  duration ≈ red duration" (§VI.A) holds;
* mean approach speed oscillates with the signal period — the
  periodicity the DFT step (§V) extracts;
* taxis additionally make curbside passenger stops (dwells) that
  corrupt the stop-duration statistics the way the paper describes.

The model is deliberately *per-approach*: the paper partitions all data
by nearest traffic light and processes lights independently, so no
cross-intersection coupling is needed to exercise its pipeline.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import List, Optional, Tuple

import numpy as np

from .._util import RngLike, as_rng, check_in_range, check_positive
from ..lights.controller import AdaptiveController, DemandSignal, LightController
from .arrivals import PoissonArrivals
from .vehicle import DwellPlan, VehicleParams, VehicleTrack

__all__ = ["ApproachConfig", "ApproachDemandRecorder", "SignalizedApproachSim"]


class ApproachDemandRecorder:
    """Per-approach demand log — the live feedback source for adaptive
    controllers.

    The sim appends one queue sample per step and one entry per admitted
    vehicle; :meth:`signal` summarizes a half-open window ``[t0, t1)``
    as the :class:`DemandSignal` an adaptive controller consumes.  The
    controller only asks about windows that end where the cycle it is
    deciding starts, and every queue sample of such a window is recorded
    before the query.  Arrivals are not: one is logged when its vehicle
    is admitted, stamped with its arrival time, and admission waits
    while the last vehicle is still within a jam gap of the entry.  A
    vehicle that arrived just before a cycle start but is admitted after
    the controller's first query past it is missing from that decision,
    so a headway-driven controller's realized timeline depends on when
    it is queried.  The sim queries on every occupied step.
    """

    def __init__(self) -> None:
        self._step_t: List[float] = []
        self._queue: List[int] = []
        self._arrival_t: List[float] = []

    def record_step(self, t: float, queue_len: int) -> None:
        """Record the queue length observed at step ``t`` (appended in
        time order by the sim loop)."""
        self._step_t.append(t)
        self._queue.append(queue_len)

    def record_arrival(self, t: float) -> None:
        """Record one vehicle admitted to the segment at ``t``."""
        self._arrival_t.append(t)

    def signal(self, t0: float, t1: float) -> DemandSignal:
        """Demand over ``[t0, t1)``: peak queue length and mean arrival
        headway (``inf`` with fewer than two arrivals)."""
        lo = bisect_left(self._step_t, t0)
        hi = bisect_left(self._step_t, t1)
        queue = float(max(self._queue[lo:hi], default=0))
        a_lo = bisect_left(self._arrival_t, t0)
        a_hi = bisect_left(self._arrival_t, t1)
        arrivals = self._arrival_t[a_lo:a_hi]
        if len(arrivals) >= 2:
            headway = max((arrivals[-1] - arrivals[0]) / (len(arrivals) - 1), 1e-6)
        else:
            headway = math.inf
        return DemandSignal(queue_len=queue, headway_s=headway)


@dataclass(frozen=True)
class ApproachConfig:
    """Configuration of one simulated approach.

    Parameters
    ----------
    segment_length_m:
        Distance from segment entry to the stop line.
    taxi_fraction:
        Share of vehicles that are GPS-reporting taxis (the rest are
        ambient cars that shape queues but emit no records).
    dwell_probability:
        Probability that a taxi makes one passenger stop on this
        segment.
    dwell_duration_range_s:
        Uniform range of dwell lengths.
    record_all_vehicles:
        Keep tracks for ambient cars too (tests use this; the trace
        generator does not).
    """

    segment_length_m: float = 400.0
    taxi_fraction: float = 0.85
    dwell_probability: float = 0.08
    dwell_duration_range_s: Tuple[float, float] = (15.0, 90.0)
    record_all_vehicles: bool = False
    params: VehicleParams = field(default_factory=VehicleParams)

    def __post_init__(self) -> None:
        check_positive("segment_length_m", self.segment_length_m)
        check_in_range("taxi_fraction", self.taxi_fraction, 0.0, 1.0)
        check_in_range("dwell_probability", self.dwell_probability, 0.0, 1.0)
        lo, hi = self.dwell_duration_range_s
        if not (0 < lo <= hi):
            raise ValueError("dwell_duration_range_s must satisfy 0 < lo <= hi")


#: ``dwell_at`` / ``dwell_until`` of a vehicle with no curb stop pending
#: or under way.
_NO_DWELL = -math.inf
_BY_POS = attrgetter("pos")


class _Active:
    """Mutable state of one vehicle currently on the segment.

    ``dwell_at`` is the curb point of a passenger stop not yet begun and
    ``dwell_until`` the end of one under way; each is ``_NO_DWELL``
    otherwise.  Only kept vehicles (``keep``) record positions and
    speeds in ``xs`` and ``vs``.  A vehicle is on the segment
    at every step from its spawn step ``first`` until it leaves, so its
    times follow from ``first``, and its passenger flags from
    ``passenger`` (the flag at entry) and ``flip``, the step at which a
    finished passenger stop toggled it.
    """

    __slots__ = (
        "vid", "first", "pos", "speed", "desired", "passenger", "is_taxi",
        "dwell_at", "dwell_s", "dwell_until", "flip", "keep", "xs", "vs",
    )

    def __init__(self, vid: int, first: int, pos: float, desired: float, passenger: bool,
                 is_taxi: bool, dwell: Optional[DwellPlan], keep: bool) -> None:
        self.vid = vid
        self.first = first
        self.pos = pos
        self.speed = desired
        self.desired = desired
        self.passenger = passenger
        self.is_taxi = is_taxi
        self.dwell_at = _NO_DWELL if dwell is None else dwell.at_distance_m
        self.dwell_s = 0.0 if dwell is None else dwell.duration_s
        self.dwell_until = _NO_DWELL
        self.flip: Optional[int] = None
        self.keep = keep
        self.xs: List[float] = []
        self.vs: List[float] = []


class SignalizedApproachSim:
    """Simulate one approach over a time window.

    Parameters
    ----------
    controller:
        The light controller governing this approach's stop line.
    arrivals:
        Arrival process (e.g. :class:`PoissonArrivals`).
    config:
        Approach configuration.
    segment_id:
        Id stamped on emitted tracks.
    """

    DT = 1.0  # simulation step, seconds

    def __init__(
        self,
        controller: LightController,
        arrivals,
        config: Optional[ApproachConfig] = None,
        segment_id: int = 0,
    ) -> None:
        self.controller = controller
        self.arrivals = arrivals
        self.config = ApproachConfig() if config is None else config
        self.segment_id = segment_id
        #: Live demand log of the most recent :meth:`run`; only set when
        #: the controller is adaptive and asked for feedback.
        self.demand_recorder: Optional[ApproachDemandRecorder] = None

    # ------------------------------------------------------------------
    def _spawn(self, vid: int, step: int, rng: np.random.Generator) -> _Active:
        cfg = self.config
        is_taxi = bool(rng.uniform() < cfg.taxi_fraction)
        dwell: Optional[DwellPlan] = None
        if is_taxi and rng.uniform() < cfg.dwell_probability:
            lo, hi = cfg.dwell_duration_range_s
            dwell = DwellPlan(
                at_distance_m=float(rng.uniform(0.0, cfg.segment_length_m)),
                duration_s=float(rng.uniform(lo, hi)),
            )
        return _Active(
            vid=vid,
            first=step,
            pos=cfg.segment_length_m,
            desired=cfg.params.sample_desired_speed(rng),
            passenger=bool(rng.uniform() < 0.5),
            is_taxi=is_taxi,
            dwell=dwell,
            keep=is_taxi or cfg.record_all_vehicles,
        )

    def _track(self, veh: _Active, t0: float) -> VehicleTrack:
        n = len(veh.xs)
        passenger = np.full(n, veh.passenger, dtype=bool)
        if veh.flip is not None:
            passenger[veh.flip - veh.first:] = not veh.passenger
        return VehicleTrack(
            vehicle_id=veh.vid,
            segment_id=self.segment_id,
            t=t0 + np.arange(veh.first, veh.first + n) * self.DT,
            dist_to_stopline_m=np.asarray(veh.xs),
            speed_mps=np.asarray(veh.vs),
            passenger=passenger,
            is_taxi=veh.is_taxi,
        )

    def run(self, t0: float, t1: float, rng: RngLike = None) -> List[VehicleTrack]:
        """Simulate ``[t0, t1)`` and return completed + in-flight tracks.

        Only taxi tracks are returned unless
        ``config.record_all_vehicles`` is set.  The light is queried on
        every step with a vehicle on the segment: an adaptive
        controller's realized timeline depends on when it is first
        queried after a cycle starts (see :class:`ApproachDemandRecorder`).
        """
        if t1 <= t0:
            raise ValueError("t1 must be greater than t0")
        rng = as_rng(rng)
        cfg = self.config
        p = cfg.params
        dt = self.DT
        is_red = self.controller.is_red
        jam = p.jam_gap_m
        entry_limit = cfg.segment_length_m - jam
        accel_dt = p.accel_mps2 * dt

        # Sorted arrival times, then a sentinel no step ever reaches.
        arrival_times = np.asarray(self.arrivals.sample(t0, t1, rng)).tolist()
        arrival_times.append(math.inf)
        next_arrival = 0
        active: List[_Active] = []   # FIFO: index 0 is closest to stop line
        finished: List[_Active] = []  # kept vehicles, in exit order
        vid_counter = 0

        # Adaptive controllers that need live feedback get this run's
        # demand recorder bound (re-anchored at t0, restarting their
        # realized timeline for this run); a recorder left over from a
        # previous run is stale and gets replaced the same way.
        recorder: Optional[ApproachDemandRecorder] = None
        if isinstance(self.controller, AdaptiveController) and (
            self.controller.needs_feedback or self.controller.sim_bound
        ):
            recorder = ApproachDemandRecorder()
            self.controller.bind_sim_demand(recorder.signal, anchor_t=t0)
        self.demand_recorder = recorder

        # Moving vehicles keep their lane order (each stays behind its
        # leader and never moves backwards), and an entering one joins
        # behind the last.  Only a vehicle parked at the curb lets
        # traffic pass it, so the lane is re-sorted by position only on
        # the step after one was parked.
        resort = False
        n_steps = int(np.ceil((t1 - t0) / dt))
        for step in range(n_steps):
            t = t0 + step * dt
            # -- spawn vehicles whose arrival time has come and whose
            #    entry is not blocked by queue spillback.
            while arrival_times[next_arrival] <= t:
                if active and not active[-1].pos < entry_limit:
                    break  # spillback: retry next second
                if recorder is not None:
                    recorder.record_arrival(float(arrival_times[next_arrival]))
                active.append(self._spawn(vid_counter, step, rng))
                vid_counter += 1
                next_arrival += 1

            if not active:
                if recorder is not None:
                    recorder.record_step(t, 0)
                continue

            red = is_red(t)
            if resort:
                active.sort(key=_BY_POS)
                resort = False

            # -- movement: front-to-back with leader constraint.  Each
            #    clamp keeps the first operand on a tie, as builtin
            #    max/min do (max(a, b) is b only if b > a).
            prev_new_pos: Optional[float] = None
            exited: List[int] = []
            for i, veh in enumerate(active):
                until = veh.dwell_until
                if until > _NO_DWELL:
                    if t < until:
                        # parked at the curb: not part of the lane queue
                        veh.speed = 0.0
                        resort = True
                        if veh.keep:
                            pos = veh.pos
                            veh.xs.append(0.0 if pos < 0.0 else pos)
                            veh.vs.append(0.0)
                        continue
                    # curb stop over: toggle occupancy, rejoin the lane
                    veh.flip = step
                    veh.dwell_until = _NO_DWELL
                v_target = veh.speed + accel_dt
                if veh.desired < v_target:
                    v_target = veh.desired
                pos = veh.pos
                new_pos = pos - v_target * dt
                if red and new_pos < 0.0:
                    new_pos = 0.0
                if prev_new_pos is not None:
                    behind = prev_new_pos + jam
                    if behind > new_pos:
                        new_pos = behind
                    if pos < new_pos:
                        new_pos = pos  # never move backwards
                if new_pos <= veh.dwell_at:
                    # first time at/below the planned curb point
                    veh.dwell_until = t + veh.dwell_s
                    veh.dwell_at = _NO_DWELL

                speed = (pos - new_pos) / dt
                veh.speed = speed
                veh.pos = new_pos
                prev_new_pos = new_pos
                if veh.keep:
                    veh.xs.append(0.0 if new_pos < 0.0 else new_pos)
                    veh.vs.append(speed)

                if new_pos <= 0.0 and not red:
                    exited.append(i)

            # -- remove stop-line crossers (front of FIFO only, in order)
            for i in reversed(exited):
                veh = active.pop(i)
                if veh.keep:
                    finished.append(veh)

            if recorder is not None:
                queued = sum(
                    1 for veh in active
                    if veh.speed < 0.5 and not t < veh.dwell_until
                )
                recorder.record_step(t, queued)

        finished.extend(veh for veh in active if veh.keep)  # in flight at window end
        out = [self._track(veh, t0) for veh in finished]
        out.sort(key=lambda tr: tr.entered_at)
        return out
