"""Unit tests for the signalized-approach queue simulator.

These check the *physical invariants* the identification algorithms
rely on: no red-running, FIFO lane order, jam spacing, stop durations
bounded by the signal, and dwell behaviour.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro._util import as_rng
from repro.lights.controller import (
    SECONDS_PER_DAY,
    ActuatedController,
    AdaptiveController,
    FuzzyController,
    GapActuatedController,
    PlanSwitch,
    PreProgrammedController,
    StaticController,
)
from repro.lights.schedule import LightSchedule
from repro.sim.arrivals import PoissonArrivals
from repro.sim.queueing import ApproachConfig, ApproachDemandRecorder, SignalizedApproachSim
from repro.sim.vehicle import DwellPlan, VehicleParams, VehicleTrack


SCHED = LightSchedule(cycle_s=90.0, red_s=40.0, offset_s=0.0)


def make_sim(rate=400.0, taxi_fraction=1.0, dwell_probability=0.0, **kw):
    cfg = ApproachConfig(
        segment_length_m=kw.pop("segment_length_m", 400.0),
        taxi_fraction=taxi_fraction,
        dwell_probability=dwell_probability,
        record_all_vehicles=True,
        **kw,
    )
    return SignalizedApproachSim(
        StaticController(SCHED), PoissonArrivals(rate), cfg, segment_id=0
    )


@pytest.fixture(scope="module")
def tracks():
    return make_sim().run(0.0, 1800.0, rng=5)


class TestBasics:
    def test_produces_tracks(self, tracks):
        assert len(tracks) > 50

    def test_positions_nonincreasing(self, tracks):
        for tr in tracks:
            assert np.all(np.diff(tr.dist_to_stopline_m) <= 1e-9)

    def test_positions_nonnegative(self, tracks):
        for tr in tracks:
            assert np.all(tr.dist_to_stopline_m >= 0)

    def test_speeds_nonnegative_and_bounded(self, tracks):
        for tr in tracks:
            assert np.all(tr.speed_mps >= -1e-9)
            assert np.all(tr.speed_mps <= 25.0)

    def test_times_are_1hz(self, tracks):
        for tr in tracks:
            assert np.all(np.diff(tr.t) == pytest.approx(1.0))

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            make_sim().run(10.0, 10.0, rng=0)


class TestSignalCompliance:
    def test_no_crossing_during_red(self, tracks):
        """A crossing vehicle's final (exit) second must be green.

        A vehicle merely *stopped at the line* when the window ends is
        not a crossing — distinguish by its final speed.
        """
        for tr in tracks:
            if tr.dist_to_stopline_m[-1] <= 0.5 and tr.speed_mps[-1] > 0.5:
                t_exit = tr.t[-1]
                assert not bool(SCHED.is_red(t_exit)), f"vehicle {tr.vehicle_id} exited at red"

    def test_front_vehicle_waits_at_line_during_red(self):
        # a single vehicle arriving at strong red must stop at the line
        sim = make_sim(rate=30.0)
        tracks = sim.run(0.0, 900.0, rng=8)
        waited = 0
        for tr in tracks:
            stopped_at_line = (tr.dist_to_stopline_m < 1.0) & (tr.speed_mps < 0.2)
            if stopped_at_line.any():
                waited += 1
                for t in tr.t[stopped_at_line]:
                    # stopping right at the line only happens under red
                    # (or in the discharge second right after)
                    assert SCHED.time_in_cycle(t) <= SCHED.red_s + 2.0
        assert waited > 0

    def test_stop_durations_bounded_by_red_without_dwells(self, tracks):
        durations = [
            e - s for tr in tracks for (s, e) in tr.stop_intervals()
        ]
        assert durations, "expected some queue waits"
        # without passenger dwells, no single stop can out-last red by
        # more than the discharge transient
        assert max(durations) <= SCHED.red_s + 15.0


class TestLaneDiscipline:
    def test_jam_spacing_between_moving_vehicles(self):
        sim = make_sim(rate=700.0)
        tracks = sim.run(0.0, 900.0, rng=3)
        # reconstruct per-second positions and check pairwise gaps
        by_time = {}
        for tr in tracks:
            for t, x in zip(tr.t, tr.dist_to_stopline_m):
                by_time.setdefault(t, []).append(x)
        p = VehicleParams()
        for t, xs in by_time.items():
            # exclude vehicles mid-crossing: their negative positions are
            # recorded clipped to 0, which fakes a short gap
            xs = np.sort([x for x in xs if x > 0.5])
            if xs.size > 1:
                gaps = np.diff(xs)
                assert gaps.min() >= p.jam_gap_m - 1.5, f"gap violation at t={t}"


class TestDwells:
    def test_dwell_produces_long_stop_and_flag_flip(self):
        sim = make_sim(rate=150.0, dwell_probability=1.0,
                       dwell_duration_range_s=(40.0, 50.0))
        tracks = sim.run(0.0, 1200.0, rng=4)
        flips = sum(1 for tr in tracks if (tr.passenger != tr.passenger[0]).any())
        assert flips > 0, "dwells must toggle the passenger flag"

    def test_dwellers_do_not_block_lane(self):
        # with pull-over dwells, a dwelling taxi must not trap followers:
        # traffic continues to exit at a similar rate as without dwells
        base = make_sim(rate=400.0, dwell_probability=0.0).run(0.0, 1500.0, rng=6)
        dwell = make_sim(rate=400.0, dwell_probability=0.5,
                         dwell_duration_range_s=(60.0, 90.0)).run(0.0, 1500.0, rng=6)
        exits_base = sum(1 for tr in base if tr.dist_to_stopline_m[-1] <= 0.5)
        exits_dwell = sum(1 for tr in dwell if tr.dist_to_stopline_m[-1] <= 0.5)
        assert exits_dwell >= 0.6 * exits_base


class TestTaxiFraction:
    def test_only_taxis_recorded_by_default(self):
        cfg = ApproachConfig(segment_length_m=400.0, taxi_fraction=0.5,
                             record_all_vehicles=False)
        sim = SignalizedApproachSim(
            StaticController(SCHED), PoissonArrivals(400.0), cfg, segment_id=0
        )
        tracks = sim.run(0.0, 900.0, rng=2)
        assert all(tr.is_taxi for tr in tracks)

    def test_record_all_includes_ambient(self):
        tracks = make_sim(taxi_fraction=0.5).run(0.0, 900.0, rng=2)
        assert any(not tr.is_taxi for tr in tracks)
        assert any(tr.is_taxi for tr in tracks)


class TestDeterminism:
    def test_same_seed_same_tracks(self):
        a = make_sim().run(0.0, 600.0, rng=11)
        b = make_sim().run(0.0, 600.0, rng=11)
        assert len(a) == len(b)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.t, tb.t)
            np.testing.assert_array_equal(ta.dist_to_stopline_m, tb.dist_to_stopline_m)

    def test_different_seed_differs(self):
        a = make_sim().run(0.0, 600.0, rng=11)
        b = make_sim().run(0.0, 600.0, rng=12)
        assert len(a) != len(b) or any(
            len(x) != len(y) or not np.array_equal(x.t, y.t) for x, y in zip(a, b)
        )


class TestPropertyRandomSchedules:
    """Signal-compliance invariants must hold for arbitrary timings."""

    @given(
        cycle=st.floats(40.0, 200.0),
        red_frac=st.floats(0.2, 0.7),
        offset=st.floats(0.0, 200.0),
        rate=st.floats(100.0, 600.0),
    )
    @settings(max_examples=12, deadline=None)
    def test_no_red_crossing_any_schedule(self, cycle, red_frac, offset, rate):
        sched = LightSchedule(cycle, cycle * red_frac, offset)
        sim = SignalizedApproachSim(
            StaticController(sched),
            PoissonArrivals(rate),
            ApproachConfig(segment_length_m=300.0, taxi_fraction=1.0,
                           dwell_probability=0.0, record_all_vehicles=True),
            segment_id=0,
        )
        t0, t1 = 0.0, 900.0
        tracks = sim.run(t0, t1, rng=1)
        for tr in tracks:
            assert np.all(np.diff(tr.dist_to_stopline_m) <= 1e-9)
            assert np.all(tr.dist_to_stopline_m >= 0.0)
            # crossing = reached the line while still moving.  A track
            # cut off by the simulation horizon is excluded: a vehicle
            # braking into the stop line at t1 can show a positive
            # step-average speed at distance ~0 without ever crossing.
            truncated = tr.t[-1] >= t1 - 1.0
            if (not truncated and tr.dist_to_stopline_m[-1] <= 0.5
                    and tr.speed_mps[-1] > 0.5):
                assert not bool(sched.is_red(float(tr.t[-1])))


class TestAdaptiveLiveFeedback:
    """The sim binds its demand recorder to adaptive controllers and the
    realized schedule responds to the approach's own traffic."""

    def _adaptive_sim(self, controller, rate):
        cfg = ApproachConfig(
            segment_length_m=400.0, taxi_fraction=1.0,
            dwell_probability=0.0, record_all_vehicles=True,
        )
        return SignalizedApproachSim(controller, PoissonArrivals(rate), cfg)

    def test_recorder_bound_only_for_adaptive(self):
        from repro.lights.controller import GapActuatedController

        sim = make_sim()
        sim.run(0.0, 300.0, rng=1)
        assert sim.demand_recorder is None

        adaptive = GapActuatedController(SCHED, alpha=1.0)
        sim_a = self._adaptive_sim(adaptive, rate=300.0)
        sim_a.run(0.0, 600.0, rng=1)
        assert sim_a.demand_recorder is not None
        assert adaptive.sim_bound

    def test_green_tracks_approach_demand(self):
        from repro.lights.controller import GapActuatedController

        heavy_ctrl = GapActuatedController(SCHED, alpha=1.0)
        self._adaptive_sim(heavy_ctrl, rate=500.0).run(0.0, 3600.0, rng=3)
        heavy_green = np.mean(
            [s.green_s for _, s in heavy_ctrl.realized_cycles(600.0, 3600.0)]
        )

        light_ctrl = GapActuatedController(SCHED, alpha=1.0)
        self._adaptive_sim(light_ctrl, rate=30.0).run(0.0, 3600.0, rng=3)
        light_green = np.mean(
            [s.green_s for _, s in light_ctrl.realized_cycles(600.0, 3600.0)]
        )
        assert heavy_green > light_green

    def test_live_bound_controller_keeps_interface_contract(self):
        from repro.lights.controller import ActuatedController
        from repro.lights.schedule import Phase

        ctrl = ActuatedController(SCHED, alpha=1.0)
        self._adaptive_sim(ctrl, rate=400.0).run(0.0, 1800.0, rng=5)
        for t in np.linspace(0.0, 1795.0, 120):
            t = float(t)
            sched = ctrl.schedule_at(t)
            assert ctrl.is_red(t) == bool(sched.is_red(t))
            assert ctrl.wait_if_arriving(t) == sched.wait_if_arriving(t)
            assert ctrl.phase(t) in (Phase.RED, Phase.GREEN)

    def test_rerun_replaces_stale_recorder(self):
        from repro.lights.controller import FuzzyController

        ctrl = FuzzyController(SCHED, alpha=1.0)
        sim = self._adaptive_sim(ctrl, rate=300.0)
        sim.run(0.0, 900.0, rng=2)
        first = sim.demand_recorder
        sim.run(0.0, 900.0, rng=2)
        assert sim.demand_recorder is not first
        # determinism: same seed, same realized timeline
        a = [s.cycle_s for _, s in ctrl.realized_cycles(0.0, 900.0)]
        sim.run(0.0, 900.0, rng=2)
        b = [s.cycle_s for _, s in ctrl.realized_cycles(0.0, 900.0)]
        assert a == b

    def test_recorder_signal_windows(self):
        from repro.sim.queueing import ApproachDemandRecorder

        rec = ApproachDemandRecorder()
        for i in range(10):
            rec.record_step(float(i), i % 4)
        rec.record_arrival(2.5)
        rec.record_arrival(4.5)
        rec.record_arrival(8.5)
        sig = rec.signal(0.0, 10.0)
        assert sig.queue_len == 3.0
        assert sig.headway_s == pytest.approx((8.5 - 2.5) / 2)
        empty = rec.signal(20.0, 30.0)
        assert empty.queue_len == 0.0
        assert empty.headway_s == float("inf")
        one = rec.signal(8.0, 10.0)
        assert one.headway_s == float("inf")  # single arrival: no headway


# -- the step loop before the rewrite, kept as the oracle -------------------


class _RefVehicle:
    """One vehicle of the reference loop: all four columns recorded as
    lists on every step, for every vehicle."""

    __slots__ = (
        "vid", "pos", "speed", "desired", "passenger", "is_taxi",
        "dwell", "dwell_until", "dwell_done",
        "ts", "xs", "vs", "ps",
    )

    def __init__(self, vid, pos, desired, passenger, is_taxi, dwell):
        self.vid = vid
        self.pos = pos
        self.speed = desired
        self.desired = desired
        self.passenger = passenger
        self.is_taxi = is_taxi
        self.dwell = dwell
        self.dwell_until = -np.inf
        self.dwell_done = dwell is None
        self.ts, self.xs, self.vs, self.ps = [], [], [], []


def _reference_spawn(cfg, vid, rng):
    is_taxi = bool(rng.uniform() < cfg.taxi_fraction)
    dwell = None
    if is_taxi and rng.uniform() < cfg.dwell_probability:
        lo, hi = cfg.dwell_duration_range_s
        dwell = DwellPlan(
            at_distance_m=float(rng.uniform(0.0, cfg.segment_length_m)),
            duration_s=float(rng.uniform(lo, hi)),
        )
    return _RefVehicle(
        vid=vid,
        pos=cfg.segment_length_m,
        desired=cfg.params.sample_desired_speed(rng),
        passenger=bool(rng.uniform() < 0.5),
        is_taxi=is_taxi,
        dwell=dwell,
    )


def _reference_run(sim, t0, t1, rng):
    """``SignalizedApproachSim.run`` as it was before the rewrite: sort
    the lane every occupied step and record every column of every
    vehicle.  Returns the tracks and the demand recorder it bound."""
    rng = as_rng(rng)
    cfg = sim.config
    p = cfg.params
    dt = sim.DT

    arrival_times = sim.arrivals.sample(t0, t1, rng)
    next_arrival = 0
    active, finished = [], []
    vid_counter = 0

    recorder = None
    if isinstance(sim.controller, AdaptiveController) and (
        sim.controller.needs_feedback or sim.controller.sim_bound
    ):
        recorder = ApproachDemandRecorder()
        sim.controller.bind_sim_demand(recorder.signal, anchor_t=t0)

    n_steps = int(np.ceil((t1 - t0) / dt))
    for step in range(n_steps):
        t = t0 + step * dt
        while next_arrival < len(arrival_times) and arrival_times[next_arrival] <= t:
            entry_clear = (not active) or (
                active[-1].pos < cfg.segment_length_m - p.jam_gap_m
            )
            if not entry_clear:
                break
            if recorder is not None:
                recorder.record_arrival(float(arrival_times[next_arrival]))
            veh = _reference_spawn(cfg, vid_counter, rng)
            vid_counter += 1
            active.append(veh)
            next_arrival += 1

        if not active:
            if recorder is not None:
                recorder.record_step(t, 0)
            continue

        red = sim.controller.is_red(t)
        active.sort(key=lambda veh: veh.pos)

        prev_new_pos = None
        exited = []
        for i, veh in enumerate(active):
            if t < veh.dwell_until:
                veh.speed = 0.0
                veh.ts.append(t)
                veh.xs.append(max(veh.pos, 0.0))
                veh.vs.append(0.0)
                veh.ps.append(veh.passenger)
                continue
            if not veh.dwell_done and t >= veh.dwell_until > -np.inf:
                veh.passenger = not veh.passenger
                veh.dwell_done = True
            v_target = min(veh.speed + p.accel_mps2 * dt, veh.desired)
            new_pos = veh.pos - v_target * dt
            if red:
                new_pos = max(new_pos, 0.0)
            if prev_new_pos is not None:
                new_pos = max(new_pos, prev_new_pos + p.jam_gap_m)
                new_pos = min(new_pos, veh.pos)
            if (not veh.dwell_done) and veh.dwell_until == -np.inf \
                    and new_pos <= veh.dwell.at_distance_m:
                veh.dwell_until = t + veh.dwell.duration_s

            veh.speed = (veh.pos - new_pos) / dt
            veh.pos = new_pos
            prev_new_pos = new_pos

            veh.ts.append(t)
            veh.xs.append(max(new_pos, 0.0))
            veh.vs.append(veh.speed)
            veh.ps.append(veh.passenger)

            if new_pos <= 0.0 and not red:
                exited.append(i)

        for i in reversed(exited):
            finished.append(active.pop(i))

        if recorder is not None:
            queued = sum(
                1 for veh in active
                if veh.speed < 0.5 and not t < veh.dwell_until
            )
            recorder.record_step(t, queued)

    finished.extend(active)
    out = []
    for veh in finished:
        if not veh.ts:
            continue
        if not (veh.is_taxi or cfg.record_all_vehicles):
            continue
        out.append(
            VehicleTrack(
                vehicle_id=veh.vid,
                segment_id=sim.segment_id,
                t=np.asarray(veh.ts),
                dist_to_stopline_m=np.asarray(veh.xs),
                speed_mps=np.asarray(veh.vs),
                passenger=np.asarray(veh.ps, dtype=bool),
                is_taxi=veh.is_taxi,
            )
        )
    out.sort(key=lambda tr: tr.entered_at)
    return out, recorder


_TRACK_COLUMNS = ("t", "dist_to_stopline_m", "speed_mps", "passenger")


def assert_same_tracks(got, want):
    """Same vehicles in the same order, every column byte-equal."""
    assert [(tr.vehicle_id, tr.segment_id, tr.is_taxi) for tr in got] == [
        (tr.vehicle_id, tr.segment_id, tr.is_taxi) for tr in want
    ]
    for a, b in zip(got, want):
        for name in _TRACK_COLUMNS:
            x, y = getattr(a, name), getattr(b, name)
            assert (x.dtype, x.shape) == (y.dtype, y.shape), (a.vehicle_id, name)
            assert x.tobytes() == y.tobytes(), (a.vehicle_id, name)


def assert_same_recorders(got, want):
    assert (got is None) == (want is None)
    if got is not None:
        assert got._step_t == want._step_t
        assert got._queue == want._queue
        assert got._arrival_t == want._arrival_t


def _run_both(make_controller, arrivals, cfg, t0, t1, seed, segment_id=0):
    """Run the simulator and the reference loop, each on a fresh
    controller, and assert equal tracks and demand logs.  Returns the
    tracks and both controllers."""
    ctrl, ref_ctrl = make_controller(), make_controller()
    sim = SignalizedApproachSim(ctrl, arrivals, cfg, segment_id=segment_id)
    got = sim.run(t0, t1, rng=seed)
    ref_sim = SignalizedApproachSim(ref_ctrl, arrivals, cfg, segment_id=segment_id)
    want, ref_recorder = _reference_run(ref_sim, t0, t1, seed)
    assert_same_tracks(got, want)
    assert_same_recorders(sim.demand_recorder, ref_recorder)
    return got, ctrl, ref_ctrl


def _flag_flips(tracks):
    return sum(1 for tr in tracks if (tr.passenger != tr.passenger[0]).any())


_ADAPTIVE = {
    "actuated": ActuatedController,
    "gap": GapActuatedController,
    "fuzzy": FuzzyController,
}


class TestLoopEqualsReference:
    """The step loop emits the reference loop's tracks bit for bit."""

    @pytest.mark.parametrize("segment_id", [0, 6, 24, 50])
    def test_table2_approach_across_plan_switch(self, segment_id):
        from repro.scenario import shenzhen_scenario

        t0, t1 = 5 * 3600.0, 8 * 3600.0
        spec = next(
            s for s in shenzhen_scenario().simulation().specs(t0, t1)
            if s.segment_id == segment_id
        )
        switches = spec.controller.plan_switch_times(t0, t1)
        if isinstance(spec.controller, PreProgrammedController):
            assert switches == [7 * 3600.0]
        tracks, _, _ = _run_both(
            lambda: spec.controller, spec.arrivals, spec.config, t0, t1,
            seed=1000 + segment_id, segment_id=segment_id,
        )
        assert tracks and all(tr.is_taxi for tr in tracks)

    def test_dense_dwells_with_ambient_cars(self):
        cfg = ApproachConfig(
            segment_length_m=400.0, taxi_fraction=0.5, dwell_probability=0.6,
            record_all_vehicles=True,
        )
        tracks, _, _ = _run_both(
            lambda: StaticController(SCHED), PoissonArrivals(900.0), cfg,
            0.0, 3600.0, seed=21,
        )
        assert any(not tr.is_taxi for tr in tracks)
        assert _flag_flips(tracks) > 20

    @pytest.mark.parametrize("kind", sorted(_ADAPTIVE))
    @pytest.mark.parametrize("seed", [1, 6])
    def test_adaptive_live_feedback(self, kind, seed):
        # At these seeds a blocked entry is admitted late enough for the
        # gap and fuzzy timelines to depend on when the light is queried.
        cfg = ApproachConfig(
            segment_length_m=400.0, taxi_fraction=0.85, dwell_probability=0.3,
        )
        tracks, ctrl, ref_ctrl = _run_both(
            lambda: _ADAPTIVE[kind](SCHED, alpha=1.0), PoissonArrivals(600.0), cfg,
            0.0, 5400.0, seed=seed,
        )
        assert _flag_flips(tracks) > 0
        cycles = ctrl.realized_cycles(0.0, 5400.0)
        assert cycles == ref_ctrl.realized_cycles(0.0, 5400.0)
        assert len({s.cycle_s for _, s in cycles}) > 1  # the feedback did act

    # No shrink phase: shrinking a drawn failure reruns two simulations
    # per step and can outlast the suite's per-test watchdog.
    @settings(max_examples=40, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(
        cycle=st.floats(30.0, 200.0),
        red_frac=st.floats(0.1, 0.9),
        offset=st.floats(0.0, 200.0),
        kind=st.sampled_from(["static", "preprogrammed", *sorted(_ADAPTIVE)]),
        alpha=st.floats(0.0, 1.0),
        rate=st.floats(0.0, 1500.0),
        taxi_fraction=st.floats(0.0, 1.0),
        dwell_probability=st.floats(0.0, 1.0),
        dwell_lo=st.floats(0.5, 60.0),
        dwell_span=st.floats(0.0, 60.0),
        segment_length=st.floats(30.0, 500.0),
        record_all=st.booleans(),
        t0=st.floats(0.0, 86_400.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_drawn_configs(self, cycle, red_frac, offset, kind, alpha, rate,
                           taxi_fraction, dwell_probability, dwell_lo, dwell_span,
                           segment_length, record_all, t0, seed):
        sched = LightSchedule(cycle, cycle * red_frac, offset)
        other = LightSchedule(cycle * 1.3, cycle * 1.3 * (1.0 - red_frac), offset)
        t1 = t0 + 1200.0

        def make_controller():
            if kind == "static":
                return StaticController(sched)
            if kind == "preprogrammed":
                # a plan switch in the middle of the window
                switch = (t0 + 600.0) % SECONDS_PER_DAY
                return PreProgrammedController(
                    [PlanSwitch(0.0, other), PlanSwitch(switch, sched)]
                    if switch > 0.0 else [PlanSwitch(0.0, sched)]
                )
            return _ADAPTIVE[kind](sched, alpha=alpha)

        cfg = ApproachConfig(
            segment_length_m=segment_length,
            taxi_fraction=taxi_fraction,
            dwell_probability=dwell_probability,
            dwell_duration_range_s=(dwell_lo, dwell_lo + dwell_span),
            record_all_vehicles=record_all,
        )
        _, ctrl, ref_ctrl = _run_both(
            make_controller, PoissonArrivals(rate), cfg, t0, t1, seed
        )
        if isinstance(ctrl, AdaptiveController):
            assert ctrl.realized_cycles(t0, t1) == ref_ctrl.realized_cycles(t0, t1)
